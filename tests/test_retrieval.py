from __future__ import annotations

import numpy as np
import pytest

from coil import (
    CoilConfig,
    EncodedDocument,
    EncodedQuery,
    ValidationError,
    brute_force_search,
    build_index,
    score_all_to_all_pair,
    score_full_pair,
    score_tok_pair,
    search,
    search_many,
)
from synth import make_instance


def _query(token_ids, vecs, cls=None, n_t=2, qid="q"):
    return EncodedQuery(
        query_id=qid,
        token_ids=np.asarray(token_ids, dtype=np.int32),
        token_vecs=np.asarray(vecs, dtype=np.float32).reshape(len(token_ids), n_t),
        cls_vec=None if cls is None else np.asarray(cls, dtype=np.float32),
    )


def _doc(token_ids, vecs, cls=None, n_t=2, doc_id="d"):
    return EncodedDocument(
        doc_id=doc_id,
        token_ids=np.asarray(token_ids, dtype=np.int32),
        token_vecs=np.asarray(vecs, dtype=np.float32).reshape(len(token_ids), n_t),
        cls_vec=None if cls is None else np.asarray(cls, dtype=np.float32),
    )


class TestScoreTokPair:
    def test_no_overlap_is_zero(self):
        q = _query([1], [[1, 0]])
        d = _doc([2, 3], [[1, 0], [0, 1]])
        assert score_tok_pair(q, d) == 0.0

    def test_max_over_occurrences(self):
        # query "apple" [1,0]; doc has "apple" twice: [0.5,0.5] and [2,-1]
        q = _query([1], [[1, 0]])
        d = _doc([1, 9, 1], [[0.5, 0.5], [9, 9], [2, -1]])
        assert score_tok_pair(q, d) == 2.0

    def test_duplicate_query_positions_each_contribute(self):
        u1, u2, w = [1.0, 0.0], [0.0, 2.0], [0.5, 0.25]
        q = _query([4, 4], [u1, u2])
        d = _doc([4], [w])
        expected = np.dot(u1, w) + np.dot(u2, w)
        assert score_tok_pair(q, d) == pytest.approx(expected, rel=1e-6)

    def test_unknown_token_matches_nothing(self):
        q = _query([0], [[1, 1]])
        d = _doc([0], [[1, 1]])
        assert score_tok_pair(q, d) == 0.0

    def test_empty_query_or_doc(self):
        assert score_tok_pair(_query([], []), _doc([1], [[1, 1]])) == 0.0
        assert score_tok_pair(_query([1], [[1, 1]]), _doc([], [])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            score_tok_pair(_query([1], [[1, 0]]), _doc([1], [[1, 0, 0]], n_t=3))

    def test_positive_scaling_covariance(self):
        rng = np.random.default_rng(42)
        vec = rng.normal(size=2)
        d = _doc([7, 8], rng.normal(size=(2, 2)))
        base = score_tok_pair(_query([7], [vec]), d)
        for c in (0.5, 2.0, 10.0):
            scaled = score_tok_pair(_query([7], [c * vec]), d)
            assert scaled == pytest.approx(c * base, rel=1e-5)

    def test_monotone_in_extra_occurrence(self):
        rng = np.random.default_rng(43)
        q = _query([5, 6], rng.normal(size=(2, 2)))
        vecs = rng.normal(size=(3, 2))
        d_small = _doc([5, 6, 9], vecs)
        extra = rng.normal(size=(1, 2))
        d_big = _doc([5, 6, 9, 5], np.vstack([vecs, extra]))
        assert score_tok_pair(q, d_big) >= score_tok_pair(q, d_small)


class TestScoreFullPair:
    def test_zero_cls_equals_tok(self):
        q = _query([1], [[1, 0]], cls=[0, 0, 0])
        d = _doc([1], [[0.5, 0.5]], cls=[0, 0, 0])
        assert score_full_pair(q, d) == score_tok_pair(q, d)

    def test_no_overlap_reduces_to_cls_dot(self):
        q = _query([1], [[1, 0]], cls=[1.0, 2.0])
        d = _doc([2], [[1, 0]], cls=[0.5, 0.25])
        assert score_full_pair(q, d) == pytest.approx(1 * 0.5 + 2 * 0.25, rel=1e-6)

    def test_two_token_toy_hand_sum(self):
        q = _query([1, 2], [[1, 0], [0, 1]], cls=[0.5, -0.5])
        d = _doc([2, 1], [[0.25, 0.75], [0.5, 0.125]], cls=[2.0, 1.0])
        tok_term = np.dot([1, 0], [0.5, 0.125]) + np.dot([0, 1], [0.25, 0.75])
        cls_term = np.dot([0.5, -0.5], [2.0, 1.0])
        assert score_full_pair(q, d) == pytest.approx(tok_term + cls_term, rel=1e-6)

    def test_missing_cls_rejected(self):
        q = _query([1], [[1, 0]], cls=[1.0])
        d = _doc([1], [[1, 0]])
        with pytest.raises(ValidationError, match="cls"):
            score_full_pair(q, d)

    def test_cls_dimension_mismatch_rejected(self):
        q = _query([1], [[1, 0]], cls=[1.0, 2.0])
        d = _doc([1], [[1, 0]], cls=[1.0])
        with pytest.raises(ValidationError, match="cls dimension"):
            score_full_pair(q, d)


class TestScoreAllToAll:
    def test_single_tokens_no_cls_is_plain_dot(self):
        q = _query([1], [[0.5, 2.0]])
        d = _doc([9], [[4.0, 0.25]])
        assert score_all_to_all_pair(q, d) == pytest.approx(
            0.5 * 4.0 + 2.0 * 0.25, rel=1e-6
        )

    def test_zero_document_vectors_score_zero(self):
        q = _query([1, 2], [[1, 0], [0, 1]])
        d = _doc([3, 4], [[0, 0], [0, 0]])
        assert score_all_to_all_pair(q, d) == 0.0

    def test_dominates_tok_when_cls_slot_is_own_max(self):
        # 3x3 toy: every all-to-all max runs over a superset of the
        # same-token positions, and each CLS slot's best partner is the
        # other CLS slot, so all-to-all >= tok + cls.
        q = _query([1, 2], [[1, 0], [0, 1]], cls=[3.0, 3.0])
        d = _doc([1, 2], [[0.5, 0.1], [0.1, 0.5]], cls=[3.0, 3.0])
        assert score_all_to_all_pair(q, d) >= score_full_pair(q, d)

    def test_empty_doc_no_cls_is_zero(self):
        assert score_all_to_all_pair(_query([1], [[1, 0]]), _doc([], [])) == 0.0

    def test_mixed_dimensions_refused(self):
        q = _query([1], [[1, 0]], cls=[1.0, 2.0, 3.0])
        d = _doc([1], [[1, 0]], cls=[1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="n_t=2 != n_c=3"):
            score_all_to_all_pair(q, d)

    def test_one_sided_cls_refused(self):
        q = _query([1], [[1, 0]], cls=[1.0, 2.0])
        d = _doc([1], [[1, 0]])
        with pytest.raises(ValidationError, match="both sides or neither"):
            score_all_to_all_pair(q, d)

    def test_cls_slots_join_the_match(self):
        # zero token vectors isolate the CLS row: score = cls dot
        q = _query([1], [[0, 0]], cls=[1.0, 1.0])
        d = _doc([2], [[0, 0]], cls=[0.5, 0.25])
        assert score_all_to_all_pair(q, d) == pytest.approx(0.75, rel=1e-6)


def _rankings_equal(a, b):
    return a.entries == b.entries


class TestSearchAgainstOracle:
    @pytest.mark.parametrize("mode", ["tok", "full", "cls_only"])
    def test_random_corpus_matches_brute_force(self, mode):
        inst = make_instance(seed=21, num_docs=200, vocab_size=60, num_queries=20)
        for q in inst.enc_queries:
            got, _ = search(inst.index, q, k=50, mode=mode)
            want = brute_force_search(inst.enc_docs, q, k=50, mode=mode)
            assert _rankings_equal(got, want), f"{mode} mismatch for {q.query_id}"

    def test_quantitative_agreement(self):
        inst = make_instance(seed=22, num_docs=120, vocab_size=30, num_queries=10)
        for q in inst.enc_queries:
            got, _ = search(inst.index, q, k=120, mode="full")
            want = brute_force_search(inst.enc_docs, q, k=120, mode="full")
            got_scores = np.asarray([s for _, s in got.entries])
            want_scores = np.asarray([s for _, s in want.entries])
            np.testing.assert_allclose(got_scores, want_scores, rtol=1e-4)

    def test_tok_mode_excludes_non_overlapping_docs(self):
        inst = make_instance(seed=23, num_docs=80, vocab_size=50, num_queries=15)
        for q in inst.enc_queries:
            got, _ = search(inst.index, q, k=80, mode="tok")
            qids = {int(t) for t in q.token_ids if t != 0}
            overlap = {
                d.doc_id
                for d in inst.enc_docs
                if qids & {int(t) for t in d.token_ids}
            }
            assert set(got.doc_ids()) <= overlap

    def test_all_oov_query_returns_empty_tok_list(self):
        inst = make_instance(seed=24, num_docs=20, oov_rate=0.0)
        q = inst.enc_queries[0]
        oov = EncodedQuery(
            "oov",
            np.zeros(2, dtype=np.int32),
            np.ones((2, inst.config.n_t), dtype=np.float32),
            q.cls_vec,
        )
        ranked, instr = search(inst.index, oov, k=10, mode="tok")
        assert ranked.entries == []
        assert instr.lists_touched == 0 and instr.candidates == 0

    def test_cls_only_equals_cls_dot_ranking(self):
        inst = make_instance(seed=25, num_docs=60, num_queries=5)
        for q in inst.enc_queries:
            got, _ = search(inst.index, q, k=60, mode="cls_only")
            dots = {
                d.doc_id: float(
                    np.float32(
                        np.dot(
                            d.cls_vec.astype(np.float64),
                            q.cls_vec.astype(np.float64),
                        )
                    )
                )
                for d in inst.enc_docs
            }
            expected = sorted(dots.items(), key=lambda e: (-e[1], e[0]))
            assert got.doc_ids() == [d for d, _ in expected]

    def test_fewer_candidates_than_k(self):
        inst = make_instance(seed=26, num_docs=30, vocab_size=200, max_doc_len=3)
        q = inst.enc_queries[0]
        ranked, instr = search(inst.index, q, k=1000, mode="tok")
        assert len(ranked.entries) == instr.candidates <= 30

    def test_doc_permutation_does_not_change_rankings(self):
        inst = make_instance(seed=27, num_docs=50, num_queries=5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(inst.enc_docs))
        shuffled = build_index(
            [inst.enc_docs[i] for i in perm], inst.config, vocab=inst.tokenizer.vocab
        )
        for q in inst.enc_queries:
            a, _ = search(inst.index, q, k=50, mode="full")
            b, _ = search(shuffled, q, k=50, mode="full")
            assert a.entries == b.entries


class TestInstrumentation:
    def test_counters_match_independent_counts(self):
        inst = make_instance(seed=28, num_docs=70, vocab_size=25, num_queries=12)
        for q in inst.enc_queries:
            _, instr = search(inst.index, q, k=10, mode="tok")
            qids = {int(t) for t in q.token_ids if t != 0}
            with_lists = {t for t in qids if t in inst.index.lists}
            assert instr.lists_touched == len(with_lists)
            assert instr.lists_touched <= len(qids)
            assert instr.postings_scanned == sum(
                len(inst.index.lists[t]) for t in with_lists
            )
            overlap = {
                i
                for i, d in enumerate(inst.enc_docs)
                if qids & {int(t) for t in d.token_ids}
            }
            assert instr.candidates == len(overlap)

    def test_cls_only_touches_no_lists(self):
        inst = make_instance(seed=29, num_docs=10)
        _, instr = search(inst.index, inst.enc_queries[0], k=5, mode="cls_only")
        assert instr == type(instr)(0, 0, 0)


class TestSearchValidation:
    def test_unknown_mode(self):
        inst = make_instance(seed=30, num_docs=5)
        with pytest.raises(ValidationError, match="unknown mode"):
            search(inst.index, inst.enc_queries[0], k=5, mode="dense")

    def test_k_must_be_positive(self):
        inst = make_instance(seed=31, num_docs=5)
        with pytest.raises(ValidationError, match="k must be >= 1"):
            search(inst.index, inst.enc_queries[0], k=0, mode="full")

    def test_full_mode_requires_cls_index(self):
        inst = make_instance(seed=32, num_docs=5, n_c=0)
        with pytest.raises(ValidationError, match="n_c >= 1"):
            search(inst.index, inst.enc_queries[0], k=5, mode="full")

    def test_tok_mode_requires_token_index(self):
        inst = make_instance(seed=33, num_docs=5, n_t=0, n_c=4)
        with pytest.raises(ValidationError, match="n_t >= 1"):
            search(inst.index, inst.enc_queries[0], k=5, mode="tok")

    @pytest.mark.parametrize(
        "n_t, n_c, mode", [(6, 4, "full"), (6, 0, "tok"), (0, 4, "cls_only")]
    )
    def test_mode_defaults_to_the_index_mode(self, n_t, n_c, mode):
        inst = make_instance(seed=41, num_docs=20, n_t=n_t, n_c=n_c)
        q = inst.enc_queries[0]
        assert search(inst.index, q, k=5) == search(inst.index, q, k=5, mode=mode)
        assert search_many(inst.index, inst.enc_queries, k=5, threads=2) == search_many(
            inst.index, inst.enc_queries, k=5, mode=mode
        )

    def test_query_dim_must_match_index(self):
        inst = make_instance(seed=34, num_docs=5)
        other = make_instance(seed=34, num_docs=5, n_t=inst.config.n_t + 1)
        with pytest.raises(ValidationError, match="token dimension"):
            search(inst.index, other.enc_queries[0], k=5, mode="tok")

    def test_brute_force_validates_too(self):
        inst = make_instance(seed=35, num_docs=5)
        with pytest.raises(ValidationError, match="unknown mode"):
            brute_force_search(inst.enc_docs, inst.enc_queries[0], k=5, mode="x")
        with pytest.raises(ValidationError, match="k must be >= 1"):
            brute_force_search(inst.enc_docs, inst.enc_queries[0], k=0, mode="tok")

    def test_brute_force_k_larger_than_corpus(self):
        inst = make_instance(seed=36, num_docs=8)
        ranked = brute_force_search(inst.enc_docs, inst.enc_queries[0], k=99, mode="full")
        assert len(ranked.entries) == 8

    def test_brute_force_single_doc(self):
        inst = make_instance(seed=37, num_docs=1, oov_rate=0.0)
        q = inst.enc_queries[0]
        ranked = brute_force_search(inst.enc_docs, q, k=5, mode="full")
        assert ranked.doc_ids() == [inst.enc_docs[0].doc_id]
        assert ranked.entries[0][1] == score_full_pair(q, inst.enc_docs[0])


class TestSearchMany:
    def test_thread_counts_agree(self):
        inst = make_instance(seed=38, num_docs=60, num_queries=16)
        seq = search_many(inst.index, inst.enc_queries, k=20, mode="full", threads=1)
        par = search_many(inst.index, inst.enc_queries, k=20, mode="full", threads=4)
        assert len(seq) == len(par) == 16
        for (ra, ia), (rb, ib) in zip(seq, par):
            assert ra.query_id == rb.query_id
            assert ra.entries == rb.entries
            assert ia == ib

    def test_order_preserved(self):
        inst = make_instance(seed=39, num_docs=10, num_queries=7)
        results = search_many(inst.index, inst.enc_queries, k=5, threads=3)
        assert [r.query_id for r, _ in results] == [q.query_id for q in inst.enc_queries]

    def test_thread_count_validated(self):
        inst = make_instance(seed=40, num_docs=5)
        with pytest.raises(ValidationError, match="threads"):
            search_many(inst.index, inst.enc_queries, k=5, threads=0)
