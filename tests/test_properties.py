"""Property tests: the grouped indexes and the production rankers against
naive per-occurrence references and the pairwise oracles, the corpus
checksum against the bytes README lists, the array ranker against sorting
every (doc id, score) pair, and the index file checksums against short
error bursts, the coil-enc records against every finite float32, and run
files against any ids the id rule allows.

Generated corpora include empty documents and documents made of one
repeated token; generated queries include all-out-of-vocabulary ones and
repeated tokens.  Vectors are often drawn from a few small integers, so
many scores tie, and doc ids are shuffled against ordinals, so the doc-id
tie rule is exercised.  Examples are derandomized so the suite is
reproducible.
"""
from __future__ import annotations

import tempfile
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coil import (
    Bm25Params,
    ChecksumError,
    CoilConfig,
    Document,
    EncodedDocument,
    EncodedQuery,
    RankedList,
    UNKNOWN_TOKEN_ID,
    ValidationError,
    bm25_score_pair,
    bm25_search,
    brute_force_search,
    build_bm25_index,
    build_index,
    build_vocab,
    ingest_encoded,
    load_index,
    read_run,
    save_index,
    search,
    tokenize,
    write_encoded,
    write_run,
)
from coil.core import as_score, check_id, ranked_list_from_arrays
from synth import make_instance

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

VOCAB = 6  # indexed token ids are 0..VOCAB; VOCAB + 1 never occurs in a document
DIMS = [(3, 2), (3, 0), (1, 0), (0, 2)]  # (n_t, n_c): full, tok, uniCOIL, cls_only
SERVED = {"full": ("tok", "full", "cls_only"), "tok": ("tok",), "cls_only": ("cls_only",)}

repeated = st.tuples(st.integers(0, VOCAB), st.integers(1, 5)).map(lambda t: [t[0]] * t[1])
doc_tokens = st.one_of(st.just([]), repeated, st.lists(st.integers(0, VOCAB), max_size=8))
query_tokens = st.one_of(
    st.lists(st.sampled_from([UNKNOWN_TOKEN_ID, VOCAB + 1]), min_size=1, max_size=3),
    repeated,
    st.lists(st.integers(0, VOCAB + 1), max_size=6),
)


def shuffled_ids(docs: list) -> st.SearchStrategy[list[str]]:
    """Distinct ids in shuffled order, so the doc-id tie rule differs from ordinal order."""
    return st.permutations([f"d{i}" for i in range(len(docs))])


def random_vectors(rng: np.random.Generator, shape: tuple, ties: bool) -> np.ndarray:
    if ties:
        return rng.integers(-2, 3, shape).astype(np.float32)
    return rng.standard_normal(shape).astype(np.float32)


@st.composite
def coil_cases(draw):
    n_t, n_c = draw(st.sampled_from(DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())

    def encode(token_ids):
        cls = random_vectors(rng, (n_c,), ties) if n_c else None
        ids = np.asarray(token_ids, dtype=np.int32)
        return ids, random_vectors(rng, (len(ids), n_t), ties), cls

    token_lists = draw(st.lists(doc_tokens, max_size=8))
    ids = draw(shuffled_ids(token_lists))
    docs = [EncodedDocument(d, *encode(t)) for d, t in zip(ids, token_lists)]
    queries = [
        EncodedQuery(f"q{i}", *encode(t))
        for i, t in enumerate(draw(st.lists(query_tokens, min_size=1, max_size=3)))
    ]
    config = CoilConfig(n_lm=4, n_t=n_t, n_c=n_c)
    return config, docs, queries, draw(st.integers(1, 10))


@PROPERTY
@given(coil_cases())
def test_build_index_equals_naive_grouping(case):
    config, docs, _, _ = case
    rows: dict[int, list[tuple[int, np.ndarray]]] = {}
    for ordinal, doc in enumerate(docs):
        for pos, tid in enumerate(doc.token_ids.tolist()):
            rows.setdefault(tid, []).append((ordinal, doc.token_vecs[pos]))
    index = build_index(docs, config)
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        loaded = load_index(tmp)
    for got in (index, loaded):
        assert list(got.lists) == sorted(rows)
        for tid, occurrences in rows.items():
            lst = got.lists[tid]
            want_refs = np.asarray([o for o, _ in occurrences], dtype=np.int32)
            want_vecs = np.asarray([v for _, v in occurrences], dtype=np.float32)
            assert lst.token_id == tid
            assert lst.doc_refs.dtype == np.int32 and lst.vectors.dtype == np.float32
            assert lst.vectors.shape == (len(occurrences), config.n_t)
            assert lst.doc_refs.tobytes() == want_refs.tobytes()
            assert lst.vectors.tobytes() == want_vecs.tobytes()


@PROPERTY
@given(coil_cases())
def test_corpus_checksum_is_crc32_over_the_documented_bytes(case):
    """README: b"coil-corpus", the doc ids joined by newlines, then each
    document's token count, all token ids, all token vectors and all CLS rows."""
    config, docs, _, _ = case
    blob = b"coil-corpus" + "\n".join(d.doc_id for d in docs).encode("utf-8")
    blob += np.asarray([len(d.token_ids) for d in docs], dtype="<i4").tobytes()
    blob += b"".join(np.asarray(d.token_ids, dtype="<i4").tobytes() for d in docs)
    blob += b"".join(np.asarray(d.token_vecs, dtype="<f4").tobytes() for d in docs)
    if config.n_c:
        blob += b"".join(np.asarray(d.cls_vec, dtype="<f4").tobytes() for d in docs)
    assert build_index(docs, config).corpus_checksum == zlib.crc32(blob)


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory):
    path = tmp_path_factory.mktemp("burst") / "idx"
    save_index(make_instance(seed=26, num_docs=20).index, path)
    return path


@PROPERTY
@given(
    name=st.sampled_from(["postings.bin", "cls.bin"]),
    mask=st.binary(min_size=1, max_size=4).filter(any),
    data=st.data(),
)
def test_every_burst_of_up_to_32_bits_raises_checksum_error(saved_index, name, mask, data):
    """CRC-32 detects every error burst no longer than 32 bits."""
    path = saved_index / name
    original = path.read_bytes()
    offset = data.draw(st.integers(0, len(original) - len(mask)), label="offset")
    corrupted = bytearray(original)
    for i, byte in enumerate(mask):
        corrupted[offset + i] ^= byte
    path.write_bytes(bytes(corrupted))
    try:
        with pytest.raises(ChecksumError, match=name):
            load_index(saved_index)
    finally:
        path.write_bytes(original)


@PROPERTY
@given(coil_cases())
def test_search_equals_brute_force_in_every_served_mode(case):
    config, docs, queries, k = case
    index = build_index(docs, config)
    for mode in SERVED[config.mode]:
        for q in queries:
            ranked, _ = search(index, q, k, mode)
            assert ranked.entries == brute_force_search(docs, q, k, mode).entries


@st.composite
def score_arrays(draw):
    """Up to ~3000 scores: on a coarse grid (ties across the k-th score), on
    {-0.0, 0.0, 1.0}, or continuous; k from 1 past n, or None."""
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "zeros", "normal"]))
    if kind == "grid":
        scores = rng.integers(-3, 4, n) / 3.0
    elif kind == "zeros":
        scores = rng.choice([-0.0, 0.0, 1.0], n)
    else:
        scores = rng.standard_normal(n)
    doc_ids = np.array([f"d{i}" for i in rng.permutation(n)], dtype=str)
    k = draw(st.one_of(st.none(), st.integers(1, n + 3)))
    poison = draw(st.sampled_from([None, float("nan"), float("inf"), float("-inf")]))
    if poison is not None and n:
        scores[rng.integers(n)] = poison
    return doc_ids, scores, k


@PROPERTY
@given(score_arrays())
def test_array_ranker_equals_sorting_every_pair(case):
    doc_ids, scores, k = case
    if not np.isfinite(scores).all():
        with pytest.raises(ValidationError, match="non-finite score"):
            ranked_list_from_arrays("q", doc_ids, scores, k)
        return
    got = ranked_list_from_arrays("q", doc_ids, scores, k).entries
    pairs = [(str(d), as_score(s)) for d, s in zip(doc_ids, scores)]
    want = RankedList.from_scores("q", pairs, k).entries
    assert [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in want]


WORDS = [f"w{i}" for i in range(VOCAB)]
texts = st.one_of(
    st.just(""),
    st.tuples(st.sampled_from(WORDS), st.integers(1, 5)).map(lambda t: " ".join([t[0]] * t[1])),
    st.lists(st.sampled_from(WORDS), max_size=10).map(" ".join),
)


@st.composite
def bm25_cases(draw):
    corpus = draw(st.lists(texts, max_size=8))
    docs = [Document(d, t) for d, t in zip(draw(shuffled_ids(corpus)), corpus)]
    # words outside the vocabulary become the unknown id in documents and queries
    tokenizer = build_vocab([" ".join(WORDS[: draw(st.integers(0, VOCAB))])])
    queries = draw(
        st.lists(st.one_of(texts, st.just("zz qq zz")), min_size=1, max_size=3)
    )
    params = Bm25Params(
        k1=draw(st.sampled_from([0.0, 0.9, 1.2])),
        b=draw(st.sampled_from([0.0, 0.4, 0.75, 1.0])),
        k2=draw(st.sampled_from([0.0, 2.0])),
    )
    max_doc_tokens = draw(st.integers(1, 12))
    return docs, tokenizer, [tokenize(q, tokenizer) for q in queries], params, max_doc_tokens


@PROPERTY
@given(bm25_cases())
def test_bm25_postings_equal_naive_counts(case):
    docs, tokenizer, _, _, max_doc_tokens = case
    rows: dict[int, list[tuple[int, int]]] = {}
    lengths = []
    for ordinal, doc in enumerate(docs):
        ids = tokenize(doc.text, tokenizer).token_ids[:max_doc_tokens]
        lengths.append(len(ids))
        for tid, tf in sorted(Counter(ids).items()):
            if tid != UNKNOWN_TOKEN_ID:
                rows.setdefault(tid, []).append((ordinal, tf))
    index = build_bm25_index(docs, tokenizer, max_doc_tokens)
    assert sorted(index.postings) == sorted(rows)
    for tid, pairs in rows.items():
        ordinals, tfs = index.postings[tid]
        assert ordinals.dtype == np.int32 and tfs.dtype == np.int64
        assert ordinals.tolist() == [o for o, _ in pairs]
        assert tfs.tolist() == [tf for _, tf in pairs]
    assert index.doc_len.dtype == np.int64 and index.doc_len.tolist() == lengths


@PROPERTY
@given(bm25_cases())
def test_bm25_search_equals_ranking_every_document_by_pair_score(case):
    docs, tokenizer, queries, params, max_doc_tokens = case
    index = build_bm25_index(docs, tokenizer, max_doc_tokens)
    doc_terms = [set(tokenize(d.text, tokenizer).token_ids[:max_doc_tokens]) for d in docs]
    for query in queries:
        known = set(query.token_ids) - {UNKNOWN_TOKEN_ID}
        pairs = [
            (index.doc_table[o], bm25_score_pair(query, o, index, params))
            for o in range(index.num_docs)
            if known & doc_terms[o]
        ]
        want = RankedList.from_scores("q", pairs, k=5)
        assert bm25_search(index, query, 5, params, query_id="q").entries == want.entries


F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
F32_MAX = float(np.finfo(np.float32).max)
SUBNORMALS = [2.0**-149, 2.0**-126 - 2.0**-149]  # the smallest and the largest


@pytest.fixture(scope="module")
def enc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("enc") / "enc.jsonl"


@PROPERTY
@given(
    rows=st.lists(st.lists(F32, min_size=3, max_size=3), max_size=4),
    cls_vec=st.lists(F32, min_size=4, max_size=4),
)
@example(rows=[[-0.0, SUBNORMALS[0], F32_MAX]], cls_vec=[-F32_MAX, -SUBNORMALS[1], -0.0, 0.0])
@example(rows=[[-SUBNORMALS[0], 1.0, -F32_MAX]], cls_vec=[SUBNORMALS[1], -0.0, 0.1, -1.0])
def test_coil_enc_floats_round_trip_bit_exact(enc_path, rows, cls_vec):
    doc = EncodedDocument(
        "d",
        np.arange(len(rows), dtype=np.int32),
        np.asarray(rows, np.float32).reshape(len(rows), 3),
        np.asarray(cls_vec, np.float32),
    )
    write_encoded([doc], enc_path, 3, 4)
    (back,) = ingest_encoded(enc_path)
    assert back.token_vecs.dtype == back.cls_vec.dtype == np.float32
    assert back.token_vecs.tobytes() == doc.token_vecs.tobytes()
    assert back.cls_vec.tobytes() == doc.cls_vec.tobytes()


# -0.1321048513056169 lies just past a float32 rounding midpoint, so it must
# be rounded once, by the float32 cast
F64_IN_F32_RANGE = st.floats(-F32_MAX, F32_MAX, allow_nan=False)


@PROPERTY
@given(
    rows=st.lists(st.lists(F64_IN_F32_RANGE, min_size=3, max_size=3), max_size=4),
    cls_vec=st.lists(F64_IN_F32_RANGE, min_size=4, max_size=4),
)
@example(rows=[[-0.1321048513056169, 1.0, -0.0]], cls_vec=[-0.5356693565840133, 0.0, 1.0, 2.0])
def test_coil_enc_float64_input_reads_back_as_its_float32_cast(enc_path, rows, cls_vec):
    doc = EncodedDocument(
        "d",
        np.arange(len(rows), dtype=np.int32),
        np.asarray(rows, np.float64).reshape(len(rows), 3),
        np.asarray(cls_vec, np.float64),
    )
    write_encoded([doc], enc_path, 3, 4)
    (back,) = ingest_encoded(enc_path)
    assert back.token_vecs.tobytes() == doc.token_vecs.astype(np.float32).tobytes()
    assert back.cls_vec.tobytes() == doc.cls_vec.astype(np.float32).tobytes()


def _passes_id_rule(value: str) -> bool:
    try:
        check_id("any", value)
    except ValidationError:
        return False
    return True


RULE_IDS = st.text(min_size=1, max_size=5).filter(_passes_id_rule)
# whitespace, control characters and a lone surrogate, inside any text
ID_BREAKERS = [" ", "\t", "\n", "\x85", "\u2028", "\x00", "\x7f", "\ud800"]
BAD_IDS = st.one_of(
    st.just(""),
    st.integers(),
    st.builds(
        lambda head, breaker, tail: head + breaker + tail,
        st.text(max_size=2), st.sampled_from(ID_BREAKERS), st.text(max_size=2),
    ),
)


@st.composite
def runs_and_one_broken(draw):
    """A run whose ids pass the id rule and finite float32 scores, and the
    same run with one query id or doc id replaced by one that breaks it."""
    run = {}
    for qid in draw(st.lists(RULE_IDS, min_size=1, max_size=4, unique=True)):
        doc_ids = draw(st.lists(RULE_IDS, min_size=1, max_size=5, unique=True))
        scores = draw(st.lists(F32, min_size=len(doc_ids), max_size=len(doc_ids)))
        run[qid] = RankedList(qid, list(zip(doc_ids, sorted(scores, reverse=True))))
    bad = draw(BAD_IDS)
    target = draw(st.sampled_from(list(run)))
    broken = dict(run)
    entries = run[target].entries
    at = draw(st.integers(-1, len(entries) - 1))  # -1: the query id
    if at < 0:
        broken = {bad if qid == target else qid: ranked for qid, ranked in run.items()}
    else:
        entries = entries[:at] + [(bad, entries[at][1])] + entries[at + 1 :]
        broken[target] = RankedList(target, entries)
    return run, broken


@pytest.fixture(scope="module")
def run_path(tmp_path_factory):
    return tmp_path_factory.mktemp("run") / "run.txt"


@PROPERTY
@given(runs_and_one_broken())
def test_run_file_round_trip_and_broken_ids_raise_before_writing(run_path, case):
    run, broken = case
    write_run(run, run_path, tag="t")
    back = read_run(run_path)
    assert list(back) == list(run)
    for qid, ranked in run.items():
        assert back[qid].doc_ids() == ranked.doc_ids()
        assert [s for _, s in back[qid].entries] == [float(f"{s:.6g}") for _, s in ranked.entries]
    written = run_path.read_bytes()
    with pytest.raises(ValidationError):
        write_run(broken, run_path, tag="t")
    assert run_path.read_bytes() == written
