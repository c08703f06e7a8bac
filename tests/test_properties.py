"""Property tests: the grouped indexes and the production rankers against
naive per-occurrence references and the pairwise oracles.

Generated corpora include empty documents and documents made of one
repeated token; generated queries include all-out-of-vocabulary ones and
repeated tokens.  Vectors are often drawn from a few small integers, so
many scores tie, and doc ids are shuffled against ordinals, so the doc-id
tie rule is exercised.  Examples are derandomized so the suite is
reproducible.
"""
from __future__ import annotations

import tempfile
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from coil import (
    Bm25Params,
    CoilConfig,
    Document,
    EncodedDocument,
    EncodedQuery,
    RankedList,
    UNKNOWN_TOKEN_ID,
    bm25_score_pair,
    bm25_search,
    brute_force_search,
    build_bm25_index,
    build_index,
    build_vocab,
    load_index,
    save_index,
    search,
    tokenize,
)

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
def test_search_equals_brute_force_in_every_served_mode(case):
    config, docs, queries, k = case
    index = build_index(docs, config)
    for mode in SERVED[config.mode]:
        for q in queries:
            ranked, _ = search(index, q, k, mode)
            assert ranked.entries == brute_force_search(docs, q, k, mode).entries


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
