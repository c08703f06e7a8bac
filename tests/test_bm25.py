from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat

import numpy as np
import pytest

from coil import (
    Bm25Index,
    Bm25Params,
    Document,
    RankedList,
    TokenizerConfig,
    ValidationError,
    bm25_score_pair,
    bm25_search,
    build_bm25_index,
    build_vocab,
    sample_bm25_negatives,
    tokenize,
)
from synth import random_texts


def _index(texts, max_doc_tokens=512):
    docs = [Document(f"d{i}", t) for i, t in enumerate(texts)]
    tok = build_vocab((d.text for d in docs))
    return build_bm25_index(docs, tok, max_doc_tokens=max_doc_tokens), tok


class TestBuild:
    def test_statistics_on_tiny_corpus(self):
        index, tok = _index(["a b a", "b c"])
        a, b, c = tok.vocab["a"], tok.vocab["b"], tok.vocab["c"]
        assert [index.df(a), index.df(b), index.df(c)] == [1, 2, 1]
        assert index.num_docs == 2
        assert index.avgdl == 2.5
        np.testing.assert_array_equal(index.doc_len, [3, 2])
        ordinals, tfs = index.postings[a]
        np.testing.assert_array_equal(ordinals, [0])
        np.testing.assert_array_equal(tfs, [2])

    def test_empty_corpus(self):
        index, _ = _index([])
        assert index.num_docs == 0
        assert index.avgdl == 0.0
        assert index.postings == {}

    def test_df_equals_postings_length(self):
        rng = np.random.default_rng(42)
        texts = random_texts(rng, 30, 12, 20)
        index, _ = _index(texts)
        for tid, (ordinals, _) in index.postings.items():
            assert index.df(tid) == len(ordinals)

    def test_tf_sum_equals_token_count(self):
        rng = np.random.default_rng(43)
        texts = random_texts(rng, 25, 10, 15)
        index, tok = _index(texts)
        total_tf = sum(int(tfs.sum()) for _, tfs in index.postings.values())
        total_tokens = sum(len(tokenize(t, tok)) for t in texts)
        assert total_tf == total_tokens

    def test_truncation_applies(self):
        index, _ = _index(["x " * 100], max_doc_tokens=10)
        assert index.doc_len[0] == 10
        assert index.postings[1][1][0] == 10

    def test_token_ids_past_16_bits_keep_their_order(self):
        tok = TokenizerConfig(True, {"a": 2**16 - 1, "b": 2**16, "c": 3, "d": 2**31 - 1})
        docs = [Document("d0", "a b c d b"), Document("d1", "b d"), Document("d2", "zz")]
        index = build_bm25_index(docs, tok)
        assert list(index.postings) == [3, 2**16 - 1, 2**16, 2**31 - 1]
        got = {tid: (o.tolist(), tf.tolist()) for tid, (o, tf) in index.postings.items()}
        assert got[2**16] == ([0, 1], [2, 1]) and got[2**31 - 1] == ([0, 1], [1, 1])
        assert index.doc_len.tolist() == [5, 2, 1]

    def test_duplicate_doc_id_rejected(self):
        docs = [Document("d", "a"), Document("d", "b")]
        tok = build_vocab(["a b"])
        with pytest.raises(ValidationError, match="duplicate"):
            build_bm25_index(docs, tok)

    def test_direct_construction_rejects_a_duplicate_doc_id(self):
        # the ranker breaks ties on doc_rank and trusts the ids to be unique
        with pytest.raises(ValidationError, match="duplicate doc id 'd0'"):
            Bm25Index({}, doc_len=np.ones(3, np.int64), doc_table=["d0", "d1", "d0"])


class TestScorePair:
    def test_hand_derived_value(self):
        index, tok = _index(["a b a", "b c"])
        score = bm25_score_pair(tokenize("a", tok), 0, index)
        expected = math.log(2.0) * (2 * 2.2) / (2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2.5))
        assert score == pytest.approx(expected, abs=1e-6)
        assert score == pytest.approx(0.9023, abs=1e-4)

    def test_no_overlap_is_zero(self):
        index, tok = _index(["a b a", "b c"])
        assert bm25_score_pair(tokenize("c", tok), 0, index) == 0.0

    def test_unknown_query_token_contributes_nothing(self):
        index, tok = _index(["a b a", "b c"])
        with_unk = bm25_score_pair(tokenize("a zz", tok), 0, index)
        without = bm25_score_pair(tokenize("a", tok), 0, index)
        assert with_unk == without

    def test_k2_zero_makes_query_tf_irrelevant(self):
        index, tok = _index(["a b a", "b c"])
        once = bm25_score_pair(tokenize("a", tok), 0, index)
        thrice = bm25_score_pair(tokenize("a a a", tok), 0, index)
        assert once == thrice

    def test_k2_positive_weights_query_tf(self):
        index, tok = _index(["a b a", "b c"])
        params = Bm25Params(k2=100.0)
        once = bm25_score_pair(tokenize("a", tok), 0, index, params)
        thrice = bm25_score_pair(tokenize("a a a", tok), 0, index, params)
        assert thrice > once

    def test_h_d_increasing_and_bounded(self):
        params = Bm25Params()
        # equal lengths so only tf varies
        texts = [("f " * (i + 1) + "pad " * (7 - i)).strip() for i in range(7)]
        index, tok = _index(texts)
        f = tok.vocab["f"]
        scores = [
            bm25_score_pair(tokenize("f", tok), o, index, params)
            for o in range(index.num_docs)
        ]
        assert all(b > a for a, b in zip(scores, scores[1:]))
        idf_f = math.log((7 - index.df(f) + 0.5) / (index.df(f) + 0.5) + 1)
        assert all(s < idf_f * (1 + params.k1) for s in scores)

    def test_b_zero_removes_length_dependence(self):
        index, tok = _index(["f x x x x x x x", "f y"])
        params = Bm25Params(b=0.0)
        short = bm25_score_pair(tokenize("f", tok), 1, index, params)
        long = bm25_score_pair(tokenize("f", tok), 0, index, params)
        assert short == long

    def test_invalid_ordinal(self):
        index, tok = _index(["a"])
        with pytest.raises(ValidationError, match="ordinal"):
            bm25_score_pair(tokenize("a", tok), 5, index)


class TestSearch:
    def test_equals_exhaustive_pairwise(self):
        rng = np.random.default_rng(44)
        for trial in range(5):
            texts = random_texts(rng, 40, 15, 18)
            index, tok = _index(texts)
            for _ in range(6):
                qtext = " ".join(
                    f"w{int(i)}" for i in rng.integers(0, 15, int(rng.integers(1, 5)))
                )
                query = tokenize(qtext, tok)
                got = bm25_search(index, query, k=40)
                pairs = []
                for o in range(index.num_docs):
                    s = bm25_score_pair(query, o, index)
                    qids = {t for t in query.token_ids if t != 0}
                    if qids & set(
                        tokenize(texts[o], tok).token_ids
                    ):
                        pairs.append((index.doc_table[o], s))
                want = RankedList.from_scores("", pairs, k=40)
                assert got.entries == want.entries

    @pytest.mark.parametrize("params", [Bm25Params(), Bm25Params(k1=2.0, b=0.3)])
    def test_scores_equal_the_pair_scores(self, params):
        rng = np.random.default_rng(45)
        texts = random_texts(rng, 30, 12, 20)
        index, tok = _index(texts)
        query = tokenize("w0 w1 w1 w5 w9 unseen", tok)
        got = bm25_search(index, query, k=30, params=params)
        assert len(got.entries) > 10
        for doc_id, score in got.entries:
            assert score == bm25_score_pair(query, index.ordinal_of(doc_id), index, params)

    def test_each_b_gets_its_own_length_norms(self):
        index, tok = _index(["f x x x x x x x", "f y", "f"])
        query = tokenize("f", tok)
        for params in (Bm25Params(), Bm25Params(b=0.2), Bm25Params()):
            got = bm25_search(index, query, k=3, params=params)
            for doc_id, score in got.entries:
                assert score == bm25_score_pair(query, index.ordinal_of(doc_id), index, params)
        assert sorted(index.weights) == [(1.2, 0.2), (1.2, 0.75)]
        # one index serves k1 and b in turn: its term weights are kept per (k1, b)
        query = tokenize("f x y", tok)
        settings = [
            Bm25Params(k1=0.5),
            Bm25Params(b=0.2),
            Bm25Params(k1=0.5, b=0.2),
            Bm25Params(k1=2.0, b=0.2, k2=1.0),
            Bm25Params(),
        ]
        for params in settings * 2:
            got = bm25_search(index, query, k=3, params=params)
            assert len(got.entries) == 3
            for doc_id, score in got.entries:
                assert score == bm25_score_pair(query, index.ordinal_of(doc_id), index, params)
        keys = [(0.5, 0.2), (0.5, 0.75), (1.2, 0.2), (1.2, 0.75), (2.0, 0.2)]
        assert sorted(index.weights) == keys

    def test_the_weight_cache_keeps_one_table_per_setting_and_evicts_none(self):
        index, tok = _index(["f x x x", "f y", "x y z"])
        query = tokenize("f x", tok)
        used = sorted([tok.vocab["f"], tok.vocab["x"]])
        bm25_search(index, query, k=3, params=Bm25Params())
        first = index.weights[(1.2, 0.75)]
        arrays = dict(first)
        bm25_search(index, query, k=3, params=Bm25Params(k1=0.5, b=0.2))
        bm25_search(index, query, k=3, params=Bm25Params())
        assert sorted(index.weights) == [(0.5, 0.2), (1.2, 0.75)]
        assert index.weights[(1.2, 0.75)] is first
        assert all(first[tid] is array for tid, array in arrays.items())
        for table in index.weights.values():  # postings-sized float64 arrays, one per used term
            assert sorted(table) == used
            for tid, array in table.items():
                assert array.dtype == np.float64 and len(array) == len(index.postings[tid][0])

    def test_threads_that_fill_the_weight_cache_rank_as_one_thread(self):
        rng = np.random.default_rng(46)
        texts = random_texts(rng, 60, 12, 20)
        index, tok = _index(texts)
        queries = [tokenize(t, tok) for t in ("w0 w1 w2", "w3 w1 w9", "w5 w5 w0", "w2 w7")]
        settings = [Bm25Params(), Bm25Params(k1=0.7, b=0.3)]
        jobs = [(q, p) for q in queries for p in settings] * 8
        want = [bm25_search(index, q, 20, p).entries for q, p in jobs]
        columns = ([q for q, _ in jobs], repeat(20), [p for _, p in jobs])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # each round starts from empty caches
                fresh, _ = _index(texts)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    ranked = pool.map(bm25_search, repeat(fresh), *columns, timeout=60)
                    assert [r.entries for r in ranked] == want
        finally:
            sys.setswitchinterval(interval)

    def test_zero_overlap_query_empty(self):
        index, tok = _index(["a b", "c d"])
        assert bm25_search(index, tokenize("zz qq", tok), k=5).entries == []

    def test_single_doc_corpus(self):
        index, tok = _index(["only doc here"])
        ranked = bm25_search(index, tokenize("doc", tok), k=5)
        assert ranked.doc_ids() == ["d0"]

    def test_k_truncation(self):
        index, tok = _index(["f a", "f b", "f c", "f d"])
        assert len(bm25_search(index, tokenize("f", tok), k=2).entries) == 2

    def test_k_validated(self):
        index, tok = _index(["a"])
        with pytest.raises(ValidationError, match="k must be >= 1"):
            bm25_search(index, tokenize("a", tok), k=0)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(k1=-0.1), dict(b=-0.01), dict(b=1.01), dict(k2=-1.0), dict(k1=float("nan"))],
    )
    def test_range_validation(self, kwargs):
        with pytest.raises(ValidationError):
            Bm25Params(**kwargs)

    def test_defaults(self):
        p = Bm25Params()
        assert (p.k1, p.b, p.k2) == (1.2, 0.75, 0.0)


class TestNegativeSampling:
    def _setup(self):
        rng = np.random.default_rng(45)
        texts = random_texts(rng, 30, 8, 12)
        return _index(texts)

    def test_positives_excluded(self):
        index, tok = self._setup()
        query = tokenize("w0 w1", tok)
        full = bm25_search(index, query, k=1000).doc_ids()
        positives = full[:3]
        negs = sample_bm25_negatives(index, query, positives, depth=1000, count=7, seed=1)
        assert not set(negs) & set(positives)

    def test_fewer_candidates_than_count_returns_all(self):
        index, tok = _index(["f a", "f b", "f c"])
        query = tokenize("f", tok)
        negs = sample_bm25_negatives(index, query, ["d0"], depth=10, count=7, seed=0)
        assert sorted(negs) == ["d1", "d2"]

    def test_seed_determinism(self):
        index, tok = self._setup()
        query = tokenize("w0 w2 w3", tok)
        a = sample_bm25_negatives(index, query, [], depth=20, count=5, seed=9)
        b = sample_bm25_negatives(index, query, [], depth=20, count=5, seed=9)
        c = sample_bm25_negatives(index, query, [], depth=20, count=5, seed=10)
        assert a == b
        assert len(a) == 5 and len(set(a)) == 5
        assert a != c  # overwhelmingly likely with 20 candidates

    def test_samples_come_from_top_depth(self):
        index, tok = self._setup()
        query = tokenize("w0 w1 w4", tok)
        top = set(bm25_search(index, query, k=10).doc_ids())
        negs = sample_bm25_negatives(index, query, [], depth=10, count=5, seed=3)
        assert set(negs) <= top

    def test_depth_must_cover_count(self):
        index, tok = self._setup()
        with pytest.raises(ValidationError, match="depth"):
            sample_bm25_negatives(index, tokenize("w0", tok), [], depth=3, count=7)
