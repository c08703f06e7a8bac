from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coil import (
    CoilConfig,
    EncodedDocument,
    EncodedQuery,
    ValidationError,
    brute_force_search,
    build_bm25_index,
    build_index,
    load_index,
    save_index,
    score_all_to_all_pair,
    score_full_pair,
    score_tok_pair,
    search,
    search_many,
    write_run,
)
from coil import retrieval
from coil.retrieval import _dots, _gamma
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


_BUFFER_VALUES = 8192  # numpy's iterator buffer: slices must cross its edge


@st.composite
def _dots_case(draw):
    """A matrix, a float32 query block, a row slice and a query slice.

    Row counts run past one iterator buffer of values at every width, and
    the matrix is a view read from bytes at a 4-byte offset, as
    `load_index` reads ``cls.bin`` and ``postings.bin``.  Indexes hold
    float32; a document built by hand may hold float64.
    """
    width = draw(st.sampled_from([1, 3, 32, 768, 1000]))
    rows = draw(st.integers(0, 2 * _BUFFER_VALUES // width + 2))
    num_queries = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pad = draw(st.integers(0, 3))
    values = rng.standard_normal(rows * width).astype(dtype)
    blob = bytes(4 * pad) + values.tobytes()
    matrix = np.frombuffer(blob, dtype=dtype, offset=4 * pad).reshape(rows, width)
    queries = rng.standard_normal((num_queries, width)).astype(np.float32)
    start = draw(st.integers(0, rows))
    end = draw(st.integers(start, rows))
    first = draw(st.integers(0, num_queries - 1))
    last = draw(st.integers(first + 1, num_queries))
    return matrix, queries, (start, end), (first, last)


class TestDots:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(_dots_case())
    def test_cells_do_not_depend_on_rows_or_queries_scored_with_them(self, case):
        matrix, queries, (start, end), (first, last) = case
        full = _dots(matrix, queries)
        assert full.dtype == np.float64
        assert full.shape == (len(queries), len(matrix))
        assert full.tobytes() == _dots(matrix.copy(), queries).tobytes()
        part = _dots(matrix[start:end], queries[first:last])
        assert part.tobytes() == full[first:last, start:end].tobytes()
        if end > start:
            one = _dots(matrix[end - 1 : end], queries[last - 1 : last])
            assert one[0, 0] == full[last - 1, end - 1]
        # against a row-wise multiply().sum(), within float64 rounding
        products = matrix[None, :, :].astype(np.float64) * queries[:, None, :]
        bound = 2 * matrix.shape[1] * np.finfo(np.float64).eps * np.abs(products).sum(axis=2)
        assert (np.abs(full - products.sum(axis=2)) <= bound).all()


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
        assert (instr.lists_touched, instr.postings_scanned, instr.candidates) == (0, 0, 0)
        assert 5 <= instr.cls_scored <= 10


def test_the_scorers_index_columns_are_intp(tmp_path):
    # numpy converts an index array of any other dtype on every gather and
    # scatter, so an int32 column here costs every query a conversion
    inst = make_instance(seed=30, num_docs=60, vocab_size=20, max_doc_len=10)
    save_index(inst.index, tmp_path / "idx")
    for index in (inst.index, load_index(tmp_path / "idx")):
        repeated = [lst for lst in index.lists.values() if lst.starts is not None]
        assert 0 < len(repeated) < len(index.lists)  # both kinds of list occur
        for lst in index.lists.values():
            assert lst.ordinals.dtype == np.intp
        for lst in repeated:
            for column in (lst.starts, lst.later_rows, lst.later_runs):
                assert column.dtype == np.intp
    bm25 = build_bm25_index(inst.docs, inst.tokenizer)
    assert bm25.postings
    for ordinals, _ in bm25.postings.values():
        assert ordinals.dtype == np.intp


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


class TestSearchManyBlocks:
    """Batch sizes around the 32-query block, and thread counts that cut it smaller."""

    K = 25

    @pytest.fixture(scope="class")
    def inst(self):
        return make_instance(seed=42, num_docs=90, vocab_size=30, num_queries=67)

    @pytest.mark.parametrize("mode", ["full", "cls_only", "tok"])
    @pytest.mark.parametrize("batch", [1, 31, 32, 33, 67])
    def test_blocks_equal_single_searches_and_the_oracle(self, inst, tmp_path, mode, batch):
        queries = inst.enc_queries[:batch]
        singles = [search(inst.index, q, k=self.K, mode=mode) for q in queries]
        for q, (ranked, _) in zip(queries, singles):
            want = brute_force_search(inst.enc_docs, q, k=self.K, mode=mode)
            assert ranked.entries == want.entries, f"{mode} mismatch for {q.query_id}"
        runs = set()
        for threads in (1, 2, 3):
            results = search_many(inst.index, queries, k=self.K, mode=mode, threads=threads)
            assert results == singles
            path = tmp_path / f"run{threads}.txt"
            write_run({ranked.query_id: ranked for ranked, _ in results}, path, tag=mode)
            runs.add(path.read_bytes())
        assert len(runs) == 1

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("bad_at", [0, 30, 31, 32, 33, 66])
    def test_first_invalid_query_raises_its_error(self, inst, threads, bad_at):
        queries = list(inst.enc_queries)
        q = queries[bad_at]
        queries[bad_at] = EncodedQuery("short_cls", q.token_ids, q.token_vecs, q.cls_vec[:-1])
        if bad_at + 1 < len(queries):  # a later invalid query, with another error
            later = queries[bad_at + 1]
            queries[bad_at + 1] = EncodedQuery(
                "wide_tokens", later.token_ids, np.pad(later.token_vecs, ((0, 0), (0, 1))), None
            )
        with pytest.raises(ValidationError) as want:
            search(inst.index, queries[bad_at], k=self.K)
        with pytest.raises(ValidationError) as got:
            search_many(inst.index, queries, k=self.K, threads=threads)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_scoring_error_before_an_invalid_query_comes_first(self, inst, threads):
        queries = list(inst.enc_queries[:40])
        q = queries[20]
        huge = np.full_like(q.cls_vec, np.finfo(np.float32).max)
        queries[20] = EncodedQuery("huge", q.token_ids, q.token_vecs, huge)
        queries[21] = EncodedQuery("no_cls", q.token_ids, q.token_vecs, None)
        with pytest.raises(ValidationError, match="non-finite score"):
            search(inst.index, queries[20], k=self.K, mode="cls_only")
        with pytest.raises(ValidationError, match="non-finite score"):
            search_many(inst.index, queries, k=self.K, mode="cls_only", threads=threads)

    @pytest.mark.parametrize("mode", ["full", "cls_only"])
    def test_an_overflowing_score_raises_even_where_the_bound_would_prune_it(self, mode):
        # one document's score overflows float32 downwards: far below the k-th
        # best, so only the fallback to the exact scan lets the ranker see it
        rng = np.random.default_rng(43)
        n_t, n_c = 2, 3
        q_cls = np.full(n_c, 1e19, dtype=np.float32)
        q = _query([1], [[1e19, 1e19]], q_cls, n_t=n_t)
        docs = [
            _doc([1], rng.standard_normal(n_t), rng.standard_normal(n_c), n_t, f"d{i:02d}")
            for i in range(30)
        ]
        if mode == "full":  # the token sum overflows; the CLS product stays finite
            docs[7] = _doc([1], [-1e20, -1e20], np.ones(n_c), n_t, "neg")
        else:  # the CLS dot overflows
            docs[7] = _doc([1], [0, 0], np.full(n_c, -1e20), n_t, "neg")
        index = build_index(docs, CoilConfig(n_lm=4, n_t=n_t, n_c=n_c))
        for k in (1, 3, 29):
            with pytest.raises(ValidationError, match="non-finite score for doc 'neg'"):
                search(index, q, k=k, mode=mode)
            for threads in (1, 2):
                with pytest.raises(ValidationError, match="non-finite score for doc 'neg'"):
                    search_many(index, [q, q, q], k=k, mode=mode, threads=threads)

    @pytest.mark.parametrize("mode", ["full", "cls_only"])
    def test_the_scan_rescores_few_documents(self, mode, monkeypatch):
        # guards against a silent fall-back to scoring every CLS row exactly,
        # in the float32 prune and in the float64 certification after it
        rng = np.random.default_rng(44)
        n_t, n_c = 4, 16

        def vecs(shape):
            return rng.standard_normal(shape).astype(np.float32)

        docs = []
        for i in range(2000):
            ids = rng.integers(1, 200, rng.integers(1, 10))
            docs.append(_doc(ids, vecs((len(ids), n_t)), vecs(n_c), n_t, f"d{i:04d}"))
        index = build_index(docs, CoilConfig(n_lm=n_c, n_t=n_t, n_c=n_c))
        queries = [
            _query(ids, vecs((len(ids), n_t)), vecs(n_c), n_t, f"q{j}")
            for j, ids in enumerate(rng.integers(1, 200, (8, 3)))
        ]
        dotted = []  # CLS rows through `_dots`: each query's norm, twice, and the refused rows

        def counting_dots(matrix, vecs):
            if matrix.shape[1] == n_c:
                dotted.append(len(matrix))
            return _dots(matrix, vecs)

        monkeypatch.setattr(retrieval, "_dots", counting_dots)
        results = search_many(index, queries, k=50, mode=mode)
        monkeypatch.undo()
        assert sum(dotted) < sum(instr.cls_scored for _, instr in results) / 20
        for q, (ranked, instr) in zip(queries, results):
            assert 50 <= instr.cls_scored < 200
            assert ranked.entries == brute_force_search(docs, q, k=50, mode=mode).entries

    def test_a_float64_query_scores_every_row(self, inst):
        q = inst.enc_queries[0]
        wide = EncodedQuery("wide", q.token_ids, q.token_vecs, q.cls_vec.astype(np.float64) / 3)
        ranked, instr = search(inst.index, wide, k=self.K, mode="full")
        assert instr.cls_scored == inst.index.num_docs
        assert ranked.entries == brute_force_search(inst.enc_docs, wide, k=self.K).entries

    def test_k_is_checked_at_the_first_query(self, inst):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            search_many(inst.index, inst.enc_queries, k=0, threads=2)
        assert search_many(inst.index, [], k=0, threads=2) == []


def _perturbed_products(rows, block64):
    """`_products64` with every cell moved by the whole proven bound
    2 g(2**-53) |d| |q| from its `_dots` value: across 0 where 0 is within
    reach, else toward the float32 rounding midpoint on its side, and past it
    where it is within reach."""
    exact = _dots(rows, block64.astype(np.float32)).T
    row_norms = np.sqrt(_dots(rows, rows).diagonal())
    query_norms = np.sqrt((block64 * block64).sum(axis=1))
    reach = 2 * _gamma(rows.shape[1], 2.0**-53) * np.outer(row_norms, query_norms)
    reach *= 1 - 2.0**-20  # inside the bound, whatever the rounding of these norms
    reported = exact.astype(np.float32)
    side = np.where(exact >= reported, np.float32(np.inf), -np.float32(np.inf))
    midpoint = (reported.astype(np.float64) + np.nextafter(reported, side)) / 2
    step = np.sign(midpoint - reported)
    zero_side = np.where(np.arange(exact.size).reshape(exact.shape) % 2, 1.0, -1.0)
    step = np.where(np.abs(exact) < reach, -np.sign(exact), step)
    step = np.where(exact == 0, zero_side, step)
    return exact + step * reach


def test_certification_holds_for_products_anywhere_in_the_bound(monkeypatch):
    """CLS rows at float32 rounding midpoints, and rows whose scores are tiny
    either side of 0, where a float64 product moved within the bound changes
    the float32 score: only a certificate that refuses them keeps the oracle's
    bits, the sign of a zero score included."""
    mid = [1 + 2.0**-23, 2.0**-24, 0]  # . [1, 1, *] is a float32 rounding midpoint
    rows = {
        "mid": mid,
        "mid-neg": [-x for x in mid],
        "tiny-pos": [0, 0, 2.0**-149],  # . [1, 1, 2**-60] is 2**-209: +0.0 as float32
        "tiny-neg": [0, 0, -(2.0**-149)],  # -0.0 as float32
        "zero": [2.0**-140, -(2.0**-140), 0],
        "near": [1.0, 2.0**-24, 0],
    }
    n_t, n_c = 2, 3
    docs = [_doc([2], [[1, 1]], cls, n_t, name) for name, cls in rows.items()]
    filler = np.random.default_rng(47).standard_normal((8, n_c)).astype(np.float32)
    docs += [_doc([1], [[-1, 1]], cls - 4, n_t, f"low{i}") for i, cls in enumerate(filler)]
    index = build_index(docs, CoilConfig(n_lm=4, n_t=n_t, n_c=n_c))
    query_cls = [[1, 1, 2.0**-60], [-1, -1, -(2.0**-60)], [2, 2, 2.0**-59], [0.5, 0.5, 2.0**-61]]
    queries = [_query([1], [[1, 0]], cls, n_t, f"q{j}") for j, cls in enumerate(query_cls)]
    monkeypatch.setattr(retrieval, "_products64", _perturbed_products)

    def signed(ranked):
        return [(doc_id, score.hex()) for doc_id, score in ranked.entries]

    for mode in ("full", "cls_only"):
        for k in (len(rows), len(docs) - 1):
            want = [signed(brute_force_search(docs, q, k, mode)) for q in queries]
            assert [signed(search(index, q, k, mode)[0]) for q in queries] == want
            for threads in (1, 2, 3):
                got = search_many(index, queries, k, mode, threads)
                assert [signed(ranked) for ranked, _ in got] == want
