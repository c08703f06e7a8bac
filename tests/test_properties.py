"""Property tests: the grouped indexes and the production rankers against
naive per-occurrence references and the pairwise oracles, the corpus
checksum against the bytes README lists, the array ranker against sorting
every (doc id, score) pair, and the index file checksums against short
error bursts, the coil-enc records against every finite float32, and run
files against any ids the id rule allows.  The tokenizer, the vocabulary and
the BM25 index are checked against per-character and per-document loops,
and the contextualizer against its per-position loop.  Search's fold of a
list's dots to per-document maxima is checked against ``reduceat`` and a
row-order fold, and the run reader's chunks against one chunk.

Generated corpora include empty documents and documents made of one
repeated token; generated queries include all-out-of-vocabulary ones and
repeated tokens.  Vectors are often drawn from a few small integers, so
many scores tie, and doc ids are shuffled against ordinals, so the doc-id
tie rule is exercised.  Examples are derandomized so the suite is
reproducible.
"""
from __future__ import annotations

import string
import sys
import tempfile
import unittest.mock
import zlib
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coil import (
    Bm25Params,
    ChecksumError,
    CoilConfig,
    Document,
    EncodedDocument,
    EncodedQuery,
    FormatError,
    RankedList,
    StubContextualizerConfig,
    TokenizerConfig,
    UNKNOWN_TOKEN_ID,
    ValidationError,
    bm25_score_pair,
    bm25_search,
    brute_force_search,
    build_bm25_index,
    build_index,
    build_vocab,
    contextualize,
    ingest_encoded,
    load_index,
    read_run,
    save_index,
    score_full_pair,
    search,
    search_many,
    tokenize,
    write_encoded,
    write_run,
)
from coil import evaluation
from coil.bm25 import _h_d, _length_norm
from coil.core import (
    DocTable,
    TokenSeq,
    _joined_ids_pass,
    as_score,
    check_id,
    check_ids,
    ranked_list_from_arrays,
    read_lines,
)
from coil.encoding import _TOKEN, split_text, token_base_vector
from coil.evaluation import _run_from_columns
from coil.index import _lists_from_rows
from coil.retrieval import _cls_dot_f64, _run_maxima
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
            assert lst.doc_refs.dtype == np.int32 and lst.vectors.dtype == np.float32
            assert lst.vectors.shape == (len(occurrences), config.n_t)
            assert lst.doc_refs.tobytes() == want_refs.tobytes()
            assert lst.vectors.tobytes() == want_vecs.tobytes()


@st.composite
def repeated_token_lists(draw):
    """Rows of three token ids, sorted as an index sorts them, and one dot
    per row of the middle list.  Its per-document runs mix one-row runs with
    runs of up to 40 rows and long runs; its dots are signed zeros, a few
    tied values or normal draws."""
    lengths = draw(
        st.lists(
            st.one_of(st.just(1), st.integers(2, 40), st.integers(100, 300)),
            min_size=1,
            max_size=12,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zeros", "ties", "normal"]))
    n = sum(lengths)
    if kind == "normal":
        products = rng.standard_normal(n)
    else:
        values = [0.0, -0.0] if kind == "zeros" else [0.0, -0.0, 1.0, -1.0, 2.5]
        products = rng.choice(values, n)
    before = [1, 3, 3]  # lists on either side put the middle list's rows at an offset
    run_lengths = [before, lengths, [1, 1]]
    tids = np.repeat([1, 3, 5], [sum(r) for r in run_lengths]).astype(np.int32)
    refs = np.concatenate(
        [np.repeat(2 * np.arange(len(r)), r) for r in run_lengths]
    ).astype(np.int32)
    return tids, refs, products


def _in_row_order(products: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each run's maximum, folding its rows one at a time in row order."""
    ends = [*starts[1:].tolist(), len(products)]
    return np.array(
        [reduce(np.maximum, products[s:e]) for s, e in zip(starts.tolist(), ends)]
    )


@PROPERTY
@given(repeated_token_lists())
# a 9-row run whose third dot is -0.0: reduceat's maximum is -0.0, the row-order one +0.0
@example((np.full(9, 3, np.int32), np.zeros(9, np.int32), np.array([0.0, 0.0, -0.0] + [0.0] * 6)))
def test_run_maxima_equal_reduceat_in_value_and_in_every_score(case):
    tids, refs, products = case
    lst = _lists_from_rows(tids, refs, np.zeros((len(tids), 1), np.float32))[3]
    starts = np.arange(len(lst)) if lst.starts is None else lst.starts
    got = _run_maxima(products, lst)
    want = np.maximum.reduceat(products, starts)
    assert got.tobytes() == _in_row_order(products, starts).tobytes()
    assert np.array_equal(got, want)
    nonzero = want != 0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()
    # a zero's sign never reaches the accumulators that search adds into
    acc_got, acc_want = np.zeros(2 * len(starts)), np.zeros(2 * len(starts))
    acc_got[lst.ordinals] += got
    acc_want[lst.ordinals] += want
    assert acc_got.tobytes() == acc_want.tobytes()


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


# (CLS row, query cls vector) in their first two entries, both float32
CERTIFICATE_EDGES = {
    # 1 + 2**-23 + 2**-24: halfway between two float32 values
    "midpoint": (np.array([1 + 2.0**-23, 2.0**-24], np.float32), np.array([1, 1], np.float32)),
    # 2**-150 - 2**-150 (1 + 2**-23) = -2**-173: -0.0 as float32
    "negative_zero": (
        np.array([2.0**-75, -(2.0**-75) * (1 + 2.0**-23)], np.float32),
        np.array([2.0**-75, 2.0**-75], np.float32),
    ),
}


@st.composite
def pruned_scan_cases(draw):
    """Indexes that stress the CLS scan's bound: documents that copy a few
    CLS rows and token vectors (float32 ties across the k-th score), vector
    scales from subnormal products to about 1e18, and k from 1 past the
    number of documents.  Some cases give CLS rows and query cls vectors
    whose exact dots are float32 rounding midpoints, or tiny negatives that
    are -0.0 as float32: scores whose float64 products the certificate must
    refuse.  Some query cls vectors are drawn as float64, off the float32
    grid; the query stores their float32 cast, as every record does."""
    n_t, n_c = draw(st.sampled_from([(3, 1), (3, 4), (0, 3), (2, 33)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())
    scales = st.sampled_from([1e-44, 1e-30, 1e-20, 1e-3, 1.0, 1.0, 1e9, 1e17, 4e18])
    doc_scale = draw(scales)
    query_scale = draw(st.one_of(st.just(doc_scale), scales))  # 1e-20 twice: subnormal products
    num_docs = draw(st.integers(1, 60))

    def copies(count, width, scale):
        """``count`` rows, each a copy of one of a few random rows."""
        protos = random_vectors(rng, (draw(st.sampled_from([1, 2, 3, 4, 40])), width), ties)
        return (protos[rng.integers(len(protos), size=count)] * np.float32(scale)).astype(
            np.float32
        )

    cls_rows = copies(num_docs, n_c, doc_scale)
    special = draw(st.sampled_from([None, "midpoint", "negative_zero"])) if n_c >= 2 else None
    if special is not None:
        d_cls, q_cls = CERTIFICATE_EDGES[special]
        two = 2.0 ** draw(st.sampled_from([-20, 0, 20] if special == "midpoint" else [0]))
        picked = rng.random(num_docs) < 0.5
        cls_rows[picked] = 0
        cls_rows[picked, :2] = np.float32(two) * d_cls
    docs = []
    for i, tokens in enumerate(rng.integers(0, 3, (num_docs, draw(st.integers(0, 3))))):
        docs.append(
            EncodedDocument(f"d{i}", tokens, copies(len(tokens), n_t, doc_scale), cls_rows[i])
        )
    queries = []
    for i in range(draw(st.integers(1, 4))):
        tokens = rng.integers(0, 4, draw(st.integers(0, 3)))
        cls = copies(1, n_c, query_scale)[0]
        if special is not None and rng.random() < 0.75:
            cls[:] = 0
            cls[:2] = q_cls
        if rng.random() < 0.2:  # float64: the query stores its float32 cast
            cls = cls.astype(np.float64) / 3
        queries.append(EncodedQuery(f"q{i}", tokens, copies(len(tokens), n_t, query_scale), cls))
    config = CoilConfig(n_lm=max(n_t, n_c), n_t=n_t, n_c=n_c)
    return config, docs, queries, draw(st.integers(1, num_docs + 2))


@settings(PROPERTY, max_examples=500)
@given(pruned_scan_cases())
def test_pruned_cls_scan_equals_brute_force(case):
    """Where an exact score overflows float32, every route raises for the
    first such document; otherwise every route equals the oracle."""
    config, docs, queries, k = case
    index = build_index(docs, config)
    for mode in SERVED[config.mode]:
        if mode == "tok":
            continue
        wants = []
        for q in queries:
            with np.errstate(over="ignore"):
                scores = [
                    score_full_pair(q, d) if mode == "full" else as_score(_cls_dot_f64(q, d))
                    for d in docs
                ]
            bad = [d.doc_id for d, s in zip(docs, scores) if not np.isfinite(s)]
            wants.append(
                f"non-finite score for doc '{bad[0]}'"
                if bad
                else brute_force_search(docs, q, k, mode).entries
            )
        for q, want in zip(queries, wants):
            if isinstance(want, str):
                with pytest.raises(ValidationError, match=want):
                    search(index, q, k, mode)
            else:
                assert search(index, q, k, mode)[0].entries == want
        first_error = next((w for w in wants if isinstance(w, str)), None)
        for threads in (1, 2, 3):
            if first_error is not None:
                with pytest.raises(ValidationError, match=first_error):
                    search_many(index, queries, k, mode, threads)
            else:
                results = search_many(index, queries, k, mode, threads)
                assert [ranked.entries for ranked, _ in results] == wants


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
    table = DocTable([f"d{i}" for i in rng.permutation(n)])
    k = draw(st.one_of(st.none(), st.integers(1, n + 3)))
    poison = draw(st.sampled_from([None, float("nan"), float("inf"), float("-inf")]))
    if poison is not None and n:
        scores[rng.integers(n)] = poison
    return table, scores, k


@PROPERTY
@given(score_arrays())
def test_array_ranker_equals_sorting_every_pair(case):
    table, scores, k = case
    if not np.isfinite(scores).all():
        with pytest.raises(ValidationError, match="non-finite score"):
            ranked_list_from_arrays("q", table, scores, k)
        return
    got = ranked_list_from_arrays("q", table, scores, k).entries
    pairs = [(d, as_score(s)) for d, s in zip(table.ids, scores)]
    want = RankedList.from_scores("q", pairs, k).entries
    assert [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in want]


# ASCII, Latin-1, BMP and astral-plane characters.  By code point, the order
# of Python's `<`, U+FFFF sorts before U+10000; in UTF-16 it sorts after.
ID_CHARS = [
    "a", "b", "é", "ÿ", "Ā", "中", "\ufb01", "\uffff", "\U00010000", "😀", "\U0010fffd"
]


@st.composite
def tied_candidates(draw):
    """An index's unique doc ids, a candidate subset of its ordinals, heavily
    tied scores and k below, at or above the candidate count (or None)."""
    ids = draw(st.lists(st.text(st.sampled_from(ID_CHARS), min_size=1, max_size=3), unique=True))
    kept = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    keep = [o for o, kept_o in enumerate(kept) if kept_o]
    n = len(keep)
    scores = draw(st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n))
    where = draw(st.sampled_from(["below", "at", "above", "none"]))
    if where == "below" and n > 1:
        k = draw(st.integers(1, n - 1))
    elif where == "above":
        k = n + draw(st.integers(1, 3))
    else:
        k = None if where == "none" else max(n, 1)
    return ids, np.asarray(keep, dtype=np.int64), np.asarray(scores, dtype=np.float64), k


@PROPERTY
@given(tied_candidates())
def test_array_ranker_with_the_index_tie_key_equals_from_scores(case):
    ids, keep, scores, k = case
    table = DocTable(ids)
    assert [ids[o] for o in np.argsort(table.rank)] == sorted(ids)
    pairs = [(ids[o], as_score(s)) for o, s in zip(keep.tolist(), scores)]
    want = [(d, s.hex()) for d, s in RankedList.from_scores("q", pairs, k).entries]
    # as the searches call it: the index's table whole, and the candidates' ordinals
    got = ranked_list_from_arrays("q", table, scores, k, keep)
    assert [(d, s.hex()) for d, s in got.entries] == want
    gathered = ranked_list_from_arrays("q", DocTable([ids[o] for o in keep]), scores, k)
    assert [(d, s.hex()) for d, s in gathered.entries] == want


def _two_argsort_entries(doc_ids, scores, k, ordinals):
    """The ranker's order built from two sorts over every score, with no
    packed key: an argsort by doc id, then a stable argsort by score."""
    reported = scores.astype(np.float32)
    at = np.arange(len(reported)) if ordinals is None else ordinals
    by_rank = np.argsort(doc_ids[at])  # a 'U' array sorts by code point
    order = by_rank[np.argsort(-reported[by_rank], kind="stable")][:k]
    return [(str(doc_ids[at[o]]), reported[o].item().hex()) for o in order]


# 1e-46 rounds to a float32 zero of its sign, and 1 +- 2**-40 to 1.0
FLOAT32_TIES = [-0.0, 0.0, 1e-46, -1e-46, 0.5, 1.0, 1.0 + 2**-40, 1.0 - 2**-40, 2.0, -3.0]


@PROPERTY
@given(tied_candidates(), st.data())
def test_packed_key_order_equals_the_two_argsort_order(case, data):
    ids, keep, _, k = case
    n = len(keep)
    scores = np.asarray(
        data.draw(st.lists(st.sampled_from(FLOAT32_TIES), min_size=n, max_size=n)), np.float64
    )
    doc_ids = np.array(ids, dtype=str)
    want = _two_argsort_entries(doc_ids, scores, k, keep)
    assert want == _two_argsort_entries(doc_ids[keep], scores, k, None)
    for got in (
        ranked_list_from_arrays("q", DocTable(ids), scores, k, keep),
        ranked_list_from_arrays("q", DocTable([ids[o] for o in keep]), scores, k),
    ):
        assert [(d, s.hex()) for d, s in got.entries] == want


F32_MAX = float(np.finfo(np.float32).max)
F32_SUBNORMAL = float(np.finfo(np.float32).smallest_subnormal)
float32_values = st.one_of(
    st.integers(0, 2**32 - 1).filter(lambda bits: (bits >> 23) & 0xFF != 0xFF),  # finite
    st.tuples(st.integers(1, 2**23 - 1), st.sampled_from([0, 2**31])).map(sum),  # subnormal
).map(lambda bits: float(np.uint32(bits).view(np.float32)))


@st.composite
def float32_bit_scores(draw):
    """One score as float64: a random finite float32 bit pattern, a signed
    zero, subnormal or float32 maximum, or one of those moved by a few float64
    ulps, which rounds back onto the same float32 (a zero onto a zero of the
    step's sign)."""
    specials = [0.0, -0.0, F32_SUBNORMAL, -F32_SUBNORMAL, F32_MAX, -F32_MAX]
    value = draw(st.one_of(float32_values, st.sampled_from(specials)))
    for _ in range(draw(st.integers(0, 3))):
        value = float(np.nextafter(value, draw(st.sampled_from([-np.inf, np.inf]))))
    return value


@st.composite
def key_cases(draw):
    """Unique doc ids, the ordinals of the ranked ones (or None for every one),
    their scores with heavy ties, and k below, at or above n, or None."""
    ids = draw(st.lists(st.text(st.sampled_from(ID_CHARS), min_size=1, max_size=3), unique=True))
    ordinals = None
    if draw(st.booleans()):
        ordinals = np.flatnonzero(draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))))
    n = len(ids) if ordinals is None else len(ordinals)
    pool = draw(st.lists(float32_bit_scores(), min_size=1, max_size=4))
    scores = draw(st.lists(st.one_of(st.sampled_from(pool), float32_bit_scores()), min_size=n, max_size=n))
    where = draw(st.sampled_from(["below", "at", "above", "none"]))
    if where == "below" and n > 1:
        k = draw(st.integers(1, n - 1))
    elif where == "above":
        k = n + draw(st.integers(1, 3))
    else:
        k = None if where == "none" else max(n, 1)
    return ids, ordinals, np.asarray(scores, dtype=np.float64), k


@settings(PROPERTY, max_examples=300)
@given(key_cases())
def test_packed_key_ranker_equals_from_scores_bit_for_bit(case):
    ids, ordinals, scores, k = case
    at = range(len(ids)) if ordinals is None else ordinals.tolist()
    pairs = [(ids[o], as_score(s)) for o, s in zip(at, scores)]
    want = RankedList.from_scores("q", pairs, k).entries
    got = ranked_list_from_arrays("q", DocTable(ids), scores, k, ordinals).entries
    assert [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in want]
    assert [np.signbit(s) for _, s in got] == [np.signbit(s) for _, s in want]


def _first_fault(entries) -> str | None:
    """RankedList's rule as one loop over the entries: the first offending entry
    names the error, a non-finite score before a duplicate id before a rise."""
    seen, prev = set(), None
    for doc_id, score in entries:
        if not np.isfinite(score):
            return f"non-finite score for doc {doc_id!r}"
        if doc_id in seen:
            return f"duplicate doc id {doc_id!r} in ranked list"
        seen.add(doc_id)
        if prev is not None and score > prev:
            return "ranked list scores must be non-increasing"
        prev = score
    return None


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1.0, 2.0]),
        ),
        max_size=12,
    )
)
def test_ranked_list_check_names_the_first_fault(entries):
    want = _first_fault(entries)
    if want is None:
        assert RankedList("q", entries).entries == entries
    else:
        with pytest.raises(ValidationError) as raised:
            RankedList("q", entries)
        assert str(raised.value) == want


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
        assert ordinals.dtype == np.intp and tfs.dtype == np.int32
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


# -- the tokenizer and the set-up passes against their per-token references ---

PUNCTUATION = set(string.punctuation)
# every character str.split() splits on: 29 in all
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def reference_split_text(text: str, lowercase: bool = True) -> list[str]:
    """The split rule as a per-character loop: split on whitespace, then
    peel leading and trailing ASCII punctuation one character at a time."""
    if lowercase:
        text = text.lower()
    out: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        while chunk and chunk[0] in PUNCTUATION:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in PUNCTUATION:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead)
        if chunk:
            out.append(chunk)
        out.extend(reversed(trail))
    return out


def reference_build_vocab(texts, lowercase: bool = True) -> dict[str, int]:
    vocab: dict[str, int] = {}
    for text in texts:
        for token in reference_split_text(text, lowercase):
            if token not in vocab:
                vocab[token] = len(vocab) + 1
    return vocab


def reference_run_bounds(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(sorted_keys) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    changes = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.concatenate(([0], changes)), np.concatenate((changes, [len(sorted_keys)]))


def reference_group_by_key(keys: np.ndarray, *columns: np.ndarray):
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    columns = tuple(column[order] for column in columns)
    for start, end in zip(*reference_run_bounds(keys)):
        yield (int(keys[start]), *(column[start:end] for column in columns))


def reference_bm25_index(docs, tokenizer, max_doc_tokens):
    """(postings, doc_len, avgdl) built one document and one token at a time."""
    tid_parts = [np.empty(0, dtype=np.int64)]
    ord_parts = [np.empty(0, dtype=np.int32)]
    for ordinal, doc in enumerate(docs):
        ids = tokenize(doc.text, tokenizer).token_ids[:max_doc_tokens]
        tid_parts.append(np.asarray(ids, dtype=np.int64))
        ord_parts.append(np.full(len(ids), ordinal, dtype=np.int32))
    tids, ords = np.concatenate(tid_parts), np.concatenate(ord_parts)
    known = tids != UNKNOWN_TOKEN_ID
    postings = {}
    for tid, ordinals in reference_group_by_key(tids[known], ords[known]):
        starts, ends = reference_run_bounds(ordinals)
        postings[tid] = (ordinals[starts], ends - starts)
    doc_len = np.bincount(ords, minlength=len(docs))
    return postings, doc_len, float(doc_len.mean()) if len(doc_len) else 0.0


# letters that change length or case class when lowercased: İ -> i̇, ẞ -> ß, ǅ -> ǆ
TOKEN_CHARS = string.punctuation + "abAB" + WHITESPACE + "İßẞǅΣ"
token_texts = st.text(alphabet=TOKEN_CHARS, max_size=40)


@settings(PROPERTY, max_examples=500)
@given(token_texts, st.booleans())
@example("  ..a.b,  ,İ! ,,", True)
@example("\u2028(x)\x1c\x85'", False)
def test_split_text_equals_the_per_character_loop(text, lowercase):
    assert split_text(text, lowercase) == reference_split_text(text, lowercase)


def test_the_token_regex_splits_on_the_whitespace_of_str_split():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    by_split = set(every) - set("".join(every.split()))
    by_regex = set(every) - set("".join(_TOKEN.findall(every)))
    assert by_regex == by_split == set(WHITESPACE)
    assert len(WHITESPACE) == 29


@PROPERTY
@given(st.lists(token_texts, max_size=6), st.booleans())
def test_build_vocab_equals_the_per_token_reference(corpus, lowercase):
    got = build_vocab(iter(corpus), lowercase)
    want = reference_build_vocab(corpus, lowercase)
    assert got.lowercase == lowercase
    assert list(got.vocab.items()) == list(want.items())


@st.composite
def set_up_cases(draw):
    words = st.sampled_from(["a", "b", "c", "A", "b.", "(c", "zz", "!", "İ"])
    corpus = draw(
        st.lists(
            st.one_of(
                st.just(""),
                st.just("zz qq"),  # made of unknown tokens only
                st.lists(words, max_size=14).map(" ".join),
                token_texts,
            ),
            max_size=8,
        )
    )
    docs = [Document(d, t) for d, t in zip(draw(shuffled_ids(corpus)), corpus)]
    seen = draw(st.lists(st.sampled_from(["a b", "c", "A b. (c", "! ,", "İ"]), max_size=3))
    tokenizer = build_vocab(seen, lowercase=draw(st.booleans()))
    # ids that cross 2**16, and ids past it, take the index's general sort
    offset = draw(st.sampled_from([0, 2**16 - 2, 2**16 - 2, 2**31 - 100]))
    vocab = {token: tid + offset for token, tid in tokenizer.vocab.items()}
    return docs, TokenizerConfig(tokenizer.lowercase, vocab), draw(st.integers(1, 16))


@settings(PROPERTY, max_examples=300)
@given(set_up_cases())
def test_build_bm25_index_equals_the_per_document_reference(case):
    docs, tokenizer, max_doc_tokens = case
    postings, doc_len, avgdl = reference_bm25_index(docs, tokenizer, max_doc_tokens)
    index = build_bm25_index((d for d in docs), tokenizer, max_doc_tokens)
    assert list(index.postings) == list(postings)
    for tid, (ordinals, tfs) in postings.items():
        got_ordinals, got_tfs = index.postings[tid]
        assert got_ordinals.dtype == np.intp and got_tfs.dtype == np.int32
        assert np.array_equal(got_ordinals, ordinals) and np.array_equal(got_tfs, tfs)
    assert index.doc_len.dtype == doc_len.dtype and np.array_equal(index.doc_len, doc_len)
    assert index.avgdl == avgdl
    assert index.doc_table.ids == tuple(d.id for d in docs)


bm25_settings = st.builds(
    Bm25Params,
    k1=st.one_of(st.sampled_from([0.0, 1.2]), st.floats(0.0, 4.0)),
    b=st.one_of(st.sampled_from([0.0, 1.0, 0.75]), st.floats(0.0, 1.0)),
    k2=st.sampled_from([0.0, 1.0]),
)


@settings(PROPERTY, max_examples=200)
@given(set_up_cases(), st.lists(bm25_settings, min_size=1, max_size=3), st.data())
def test_bm25_weights_equal_the_whole_table_form_bit_for_bit(case, settings_list, data):
    """Each term's weights take the norms of its own postings; they must equal,
    bit for bit, the weights gathered from a table of every document's norm."""
    index = build_bm25_index(*case)
    tids = sorted(index.postings)
    assume(tids)  # without postings no term has weights, and avgdl may be 0
    for params in settings_list:
        query = data.draw(st.lists(st.sampled_from(tids)))
        bm25_search(index, TokenSeq(tuple(query)), k=3, params=params)
        weights = index.weights[(params.k1, params.b)]
        assert set(query) <= set(weights)
        table = _length_norm(index.doc_len, index, params.b)
        for tid, got in weights.items():
            ordinals, tfs = index.postings[tid]
            want = _h_d(tfs, table[ordinals], params)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (tid, params)


def reference_contextualize(seq, cfg, n_lm):
    """The per-position loop that defined the contextualizer's vectors."""

    def unit(vec):
        norm = float(np.sqrt(np.dot(vec, vec)))
        return vec if norm == 0.0 else vec / norm

    m = len(seq)
    out = np.empty((m, n_lm), dtype=np.float64)
    if m == 0:
        return out, np.zeros(n_lm, dtype=np.float64)
    bases = np.stack([token_base_vector(cfg.seed, tid, n_lm) for tid in seq.token_ids])
    w, mw = cfg.window, cfg.mix_weight
    for i in range(m):
        lo, hi = max(0, i - w), min(m - 1, i + w)
        n_nbrs = hi - lo  # window span minus self
        if n_nbrs == 0 or mw == 0.0:
            out[i] = bases[i]
            continue
        nbr_mean = (bases[lo:i].sum(axis=0) + bases[i + 1 : hi + 1].sum(axis=0)) / n_nbrs
        out[i] = unit((1.0 - mw) * bases[i] + mw * nbr_mean)
    return out, unit(out.mean(axis=0))


@settings(PROPERTY, max_examples=300)
@given(
    token_ids=st.lists(st.one_of(st.integers(0, 5), st.integers(0, 2**31 - 1)), max_size=40),
    seed=st.integers(0, 2**64 - 1),
    window=st.integers(0, 45),
    mix_weight=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ),
    n_lm=st.sampled_from([1, 2, 768]),
)
# with n_lm = 1 every base is +-1, so ids 0 and 1 (seed 0) blend to exact zero rows
@example(token_ids=[0, 1], seed=0, window=1, mix_weight=0.5, n_lm=1)
@example(token_ids=[0, 1, 2], seed=0, window=1, mix_weight=0.5, n_lm=1)
def test_contextualize_equals_the_per_position_loop(token_ids, seed, window, mix_weight, n_lm):
    seq = TokenSeq(tuple(token_ids))
    cfg = StubContextualizerConfig(seed=seed, window=window, mix_weight=mix_weight)
    out, cls_slot = contextualize(seq, cfg, n_lm)
    want_out, want_cls = reference_contextualize(seq, cfg, n_lm)
    assert out.shape == want_out.shape and out.dtype == want_out.dtype
    assert out.tobytes() == want_out.tobytes()
    assert cls_slot.tobytes() == want_cls.tobytes()


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


PRINTABLE_IDS = st.text(st.sampled_from(["a", "é", "😀", "-"]), min_size=1, max_size=3)
# ids that pass the id rule but are not printable: a format character, a
# private-use one and a noncharacter
PASSING_UNPRINTABLE = ["d\u200b", "d\ue000", "d\uffff"]
ODD_IDS = ["", 3, None, *[f"d{ch}" for ch in ID_BREAKERS], *PASSING_UNPRINTABLE]


@pytest.mark.parametrize("odd", [[], *([value] for value in ODD_IDS)])
@settings(PROPERTY, max_examples=30)
@given(
    st.lists(PRINTABLE_IDS, max_size=5), st.lists(st.sampled_from(ODD_IDS), max_size=2), st.data()
)
def test_joined_id_check_is_true_exactly_when_every_id_passes(odd, ids, more, data):
    """Printable ids with ``odd`` and up to two more odd ids inserted: the
    joined-string test is True exactly when check_id passes every id, except
    that an unprintable id the rule allows makes it False; check_ids then
    checks each id, raising check_id's first error."""
    for value in odd + more:
        ids.insert(data.draw(st.integers(0, len(ids))), value)
    passes = all(map(_passes_id_rule, ids))
    unprintable = any(value in PASSING_UNPRINTABLE for value in ids)
    assert _joined_ids_pass(ids) == (passes and not unprintable)
    if passes:
        check_ids("document", ids)
        return
    first = next(value for value in ids if not _passes_id_rule(value))
    with pytest.raises(ValidationError) as want:
        check_id("document", first)
    with pytest.raises(ValidationError) as got:
        check_ids("document", ids)
    assert str(got.value) == str(want.value)


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
        assert back[qid].ids == ranked.ids
        assert [s for _, s in back[qid].entries] == [float(f"{s:.6g}") for _, s in ranked.entries]
    written = run_path.read_bytes()
    with pytest.raises(ValidationError):
        write_run(broken, run_path, tag="t")
    assert run_path.read_bytes() == written


def reference_read_run(path):
    """The per-line run reader, as ``read_run`` read every file before its
    column path: the reference for both of its paths."""
    per_query = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise FormatError(f"{path}: line {lineno}: expected 6 fields, got {len(fields)}")
        qid, _, doc_id, rank_str, score_str, _ = fields
        try:
            rank = int(rank_str)
            score = float(score_str)
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: bad rank or score ({rank_str!r}, {score_str!r})"
            ) from None
        per_query.setdefault(qid, []).append((rank, doc_id, score, lineno))
    for qid, rows in per_query.items():
        for _, doc_id, _, lineno in rows:
            try:
                check_id("query", qid)
                check_id("document", doc_id)
            except ValidationError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    run = {}
    for qid, rows in per_query.items():
        rows.sort(key=lambda row: row[0])
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise FormatError(f"{path}: query {qid!r}: ranks are not 1..{len(rows)}")
        try:
            run[qid] = RankedList(qid, [(doc_id, score) for _, doc_id, score, _ in rows])
        except ValidationError as exc:
            raise FormatError(f"{path}: query {qid!r}: {exc}") from exc
    return run


def _read_outcome(read, path):
    """What ``read(path)`` gives: each query's entries, scores as bit
    patterns, in file order, or the message of the FormatError it raised."""
    try:
        run = read(path)
    except FormatError as exc:
        return str(exc)
    assert all(ranked.query_id == qid for qid, ranked in run.items())
    return [(qid, [(d, s.hex()) for d, s in ranked.entries]) for qid, ranked in run.items()]


# ids mostly in the form the column path reads, some of any form the rule allows
READER_IDS = st.one_of(st.text("aq01%é", min_size=1, max_size=3), RULE_IDS)
# what a splice inserts: whitespace a line split or a whole-file split treats
# differently, numerals the rank and score fields parse, and a line end
SPLICES = [" ", "\t", "\r", "\n", "\r\n", "\n\n", "\xa0", "\x1c", "01", "+", "nan", "-inf", "é"]


@settings(PROPERTY, max_examples=500)
@given(
    queries=st.lists(
        st.tuples(READER_IDS, st.lists(st.tuples(READER_IDS, F32), max_size=5)),
        min_size=1, max_size=3,
    ),
    data=st.data(),
)
def test_read_run_equals_the_per_line_reader_on_damaged_files(run_path, queries, data):
    run = {}
    for qid, rows in queries:
        doc_ids = list(dict.fromkeys(doc_id for doc_id, _ in rows))
        scores = sorted((score for _, score in rows[: len(doc_ids)]), reverse=True)
        run[qid] = RankedList(qid, list(zip(doc_ids, scores)))
    write_run(run, run_path, tag="t")
    written = run_path.read_bytes()
    kind = data.draw(
        st.sampled_from(["none", "flip", "truncate", "delete", "insert", "duplicate", "splice"])
    )
    at = data.draw(st.integers(0, len(written)))
    span = data.draw(st.integers(1, 16))
    if kind == "flip" and at < len(written):
        mutated = bytearray(written)
        mutated[at] ^= 1 << data.draw(st.integers(0, 7))
        mutated = bytes(mutated)
    elif kind == "truncate":
        mutated = written[:at]
    elif kind == "delete":
        mutated = written[:at] + written[at + span :]
    elif kind == "insert":
        source = data.draw(st.integers(0, len(written)))
        mutated = written[:at] + written[source : source + span] + written[at:]
    elif kind == "duplicate":
        mutated = written[:at] + written[at : at + span] + written[at:]
    elif kind == "splice":
        mutated = written[:at] + data.draw(st.sampled_from(SPLICES)).encode() + written[at:]
    else:
        mutated = written
    run_path.write_bytes(mutated)
    assert _read_outcome(read_run, run_path) == _read_outcome(reference_read_run, run_path)


READER_BASE = "q1 Q0 d1 1 2.5 t\nq1 Q0 d2 2 0.5 t\nq2 Q0 d1 1 7 t\n"


@pytest.mark.parametrize(
    "text",
    [
        "q1 Q0 d1 1 2.5\nt q1 Q0 d2 2 0.5 t\n",  # 5 fields beside 7: twelve in all
        "q1 Q0 d1 1 2.5 t\nq1 Q0 d2 2 0.5 t x\nq2 Q0 d1 1 7\n",
        READER_BASE.replace(" ", "\t", 1),
        READER_BASE.replace("\n", "\r\n"),
        READER_BASE.replace("\n", "\n\n", 1),
        "\n" + READER_BASE,
        READER_BASE.replace("\n", " \n"),
        READER_BASE[:-1],  # no final line end
        READER_BASE.replace("d2 2 0.5 t", "d\xa02 0.5 t"),  # 6 fields by a line split
        READER_BASE.replace("d1", "d\xa01"),
        "q1 Q0 d1 1 2.5 t\nq2 Q0 d1 1 7 t\nq1 Q0 d2 2 0.5 t\n",  # interleaved
        "q1 Q0 d2 2 0.5 t\nq1 Q0 d1 1 2.5 t\nq2 Q0 d1 1 7 t\n",  # ranks swapped
        READER_BASE.replace("d1 1 2.5", "d1 01 2.5"),
        READER_BASE.replace("d1 1 7", "d1 +1 7"),
        READER_BASE.replace("2.5", "nan"),
        READER_BASE.replace("0.5", "-inf"),
        READER_BASE.replace("0.5", "inf"),
        READER_BASE.replace("0.5", "1e999"),
        READER_BASE.replace("0.5", "0x1"),
        READER_BASE.replace("0.5", "2.6"),  # rising within q1
        READER_BASE.replace("d2", "d1"),
        READER_BASE.replace("d2", "d​2"),  # valid, but not printable
        READER_BASE.replace("d2", "d\x002"),
        READER_BASE.replace("d2 2", "d2 3"),
        "",
        "\n",
    ],
)
def test_read_run_on_files_the_column_path_declines(run_path, text):
    run_path.write_bytes(text.encode())
    assert _run_from_columns(text.encode()) is None
    assert _read_outcome(read_run, run_path) == _read_outcome(reference_read_run, run_path)


def test_read_run_reads_written_form_by_columns(run_path):
    run_path.write_bytes(READER_BASE.encode())
    assert _run_from_columns(READER_BASE.encode()) == reference_read_run(run_path)
    assert _read_outcome(read_run, run_path) == _read_outcome(reference_read_run, run_path)


def _long_run(queries: int = 8, rows: int = 1000) -> dict[str, RankedList]:
    return {
        f"q{n}": RankedList(f"q{n}", [(f"d{i}", float(rows - i)) for i in range(rows)])
        for n in range(queries)
    }


# each fault lies in the last query, past the first chunk
LATE_FAULTS = {
    "rising score": ("q7 Q0 d900 901 100 t", "q7 Q0 d900 901 1e+06 t"),
    "tab": ("q7 Q0 d900 901 100 t", "q7\tQ0 d900 901 100 t"),
    "repeated doc": ("q7 Q0 d900 901 100 t", "q7 Q0 d899 901 100 t"),
    "rank gap": ("q7 Q0 d900 901 100 t", "q7 Q0 d900 902 100 t"),
    "nan score": ("q7 Q0 d900 901 100 t", "q7 Q0 d900 901 nan t"),
    "unprintable id": ("q7 Q0 d900 901 100 t", "q7 Q0 d\u200b900 901 100 t"),
    "blank line": ("q7 Q0 d900 901 100 t\n", "q7 Q0 d900 901 100 t\n\n"),
}


@pytest.mark.parametrize("fault", [None, *LATE_FAULTS])
def test_read_run_larger_than_one_chunk(run_path, fault):
    write_run(_long_run(), run_path, tag="t")
    text = run_path.read_text()
    assert len(text) > 2 * evaluation._RUN_CHUNK
    # the first chunk ends inside a query: the lines on both sides share its id
    boundary = text.find("\n", evaluation._RUN_CHUNK - 1) + 1
    assert text[:boundary].splitlines()[-1].split()[0] == text[boundary:].split()[0]
    if fault is not None:
        old, new = LATE_FAULTS[fault]
        assert text.index(old) > boundary
        text = text.replace(old, new)
        run_path.write_text(text)
    got = _run_from_columns(text.encode())
    assert got is None if fault else got == reference_read_run(run_path)
    assert _read_outcome(read_run, run_path) == _read_outcome(reference_read_run, run_path)


@settings(PROPERTY, max_examples=300)
@given(
    queries=st.lists(
        st.tuples(st.sampled_from(["q1", "q2", "q3"]), st.integers(1, 6)),
        min_size=1, max_size=4,
    ),
    chunk=st.sampled_from([1, 2, 5, 17, 40]),
    data=st.data(),
)
def test_read_run_in_small_chunks_equals_one_chunk(queries, chunk, data):
    text = "".join(
        f"{qid} Q0 d{i} {i + 1} {rows - i} t\n" for qid, rows in queries for i in range(rows)
    )
    at = data.draw(st.integers(0, len(text)))
    splice = data.draw(st.sampled_from(["", *SPLICES]))
    cut = data.draw(st.integers(0, 3))  # characters deleted after the splice
    blob = (text[:at] + splice + text[at + cut :]).encode()
    with unittest.mock.patch.object(evaluation, "_RUN_CHUNK", 10**9):
        whole = _run_from_columns(blob)
    with unittest.mock.patch.object(evaluation, "_RUN_CHUNK", chunk):
        assert _run_from_columns(blob) == whole
