from __future__ import annotations

import math

import pytest

from coil import (
    FormatError,
    Qrels,
    RankedList,
    ValidationError,
    evaluate,
    mrr_at_k,
    ndcg_at_k,
    read_qrels,
    read_run,
    recall_at_k,
    write_run,
)


def _run(**lists):
    return {
        qid: RankedList.from_scores(qid, [(d, float(s)) for d, s in pairs])
        for qid, pairs in lists.items()
    }


class TestQrelsIo:
    def test_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\nq2 0 d3 2\n")
        qrels = read_qrels(path)
        assert qrels.judgments == {"q1": {"d1": 1, "d2": 0}, "q2": {"d3": 2}}
        assert qrels.relevant("q1") == {"d1"}
        assert qrels.relevant("q2", min_rel=2) == {"d3"}

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 d2 1\n")
        with pytest.raises(FormatError, match="line 2|:2"):
            read_qrels(path)

    def test_control_character_id_names_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d\x002 1\n")
        with pytest.raises(FormatError, match="qrels.txt: line 2: document id .* control"):
            read_qrels(path)

    def test_non_integer_relevance(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 high\n")
        with pytest.raises(FormatError, match="not an integer"):
            read_qrels(path)

    def test_negative_relevance(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -1\n")
        with pytest.raises(FormatError, match="negative"):
            read_qrels(path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_qrels(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("")
        assert read_qrels(path).judgments == {}

    def test_negative_relevance_rejected_in_constructor(self):
        with pytest.raises(ValidationError, match="negative"):
            Qrels({"q": {"d": -1}})


class TestRunIo:
    def test_roundtrip_preserves_metrics(self, tmp_path):
        run = _run(
            q1=[("d1", 1.23456789), ("d2", 0.5)],
            q2=[("d3", 9.87654321e-5), ("d4", 1e-7)],
        )
        qrels = Qrels({"q1": {"d2": 1}, "q2": {"d3": 1}})
        path = tmp_path / "run.txt"
        write_run(run, path, tag="test")
        back = read_run(path)
        assert set(back) == {"q1", "q2"}
        assert back["q1"].doc_ids() == ["d1", "d2"]
        for k in (1, 2, 5):
            assert mrr_at_k(back, qrels, k) == mrr_at_k(run, qrels, k)
            assert ndcg_at_k(back, qrels, k) == ndcg_at_k(run, qrels, k)

    def test_line_format(self, tmp_path):
        run = _run(q1=[("docA", 0.123456789)])
        path = tmp_path / "run.txt"
        write_run(run, path, tag="tagx")
        assert path.read_text() == "q1 Q0 docA 1 0.123457 tagx\n"

    def test_field_count_error(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.5\n")
        with pytest.raises(FormatError, match="expected 6 fields"):
            read_run(path)

    def test_bad_rank_or_score(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 first 0.5 tag\n")
        with pytest.raises(FormatError, match="bad rank or score"):
            read_run(path)

    def test_rank_sequence_validated(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 3 0.8 t\n")
        with pytest.raises(FormatError, match="ranks are not"):
            read_run(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("")
        assert read_run(path) == {}


class TestMrr:
    def test_first_relevant_at_rank_three(self):
        run = _run(q1=[("a", 3.0), ("b", 2.0), ("c", 1.0)])
        qrels = Qrels({"q1": {"c": 1}})
        assert mrr_at_k(run, qrels, 10) == pytest.approx(1 / 3, abs=1e-12)

    def test_no_relevant_in_top_k(self):
        run = _run(q1=[("a", 3.0), ("b", 2.0), ("c", 1.0)])
        qrels = Qrels({"q1": {"c": 1}})
        assert mrr_at_k(run, qrels, 2) == 0.0

    def test_mean_over_queries(self):
        run = _run(q1=[("a", 1.0)], q2=[("x", 2.0), ("b", 1.0)])
        qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
        assert mrr_at_k(run, qrels, 10) == pytest.approx(0.75, abs=1e-12)

    def test_query_missing_from_run_scores_zero(self):
        run = _run(q1=[("a", 1.0)])
        qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
        assert mrr_at_k(run, qrels, 10) == pytest.approx(0.5, abs=1e-12)

    def test_min_rel_threshold(self):
        run = _run(q1=[("a", 2.0), ("b", 1.0)])
        qrels = Qrels({"q1": {"a": 1, "b": 2}})
        assert mrr_at_k(run, qrels, 10, min_rel=2) == pytest.approx(0.5, abs=1e-12)

    def test_empty_qrels_rejected(self):
        with pytest.raises(ValidationError, match="empty qrels"):
            mrr_at_k(_run(q1=[("a", 1.0)]), Qrels({}), 10)

    def test_k_validated(self):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            mrr_at_k(_run(), Qrels({"q": {"d": 1}}), 0)


class TestRecall:
    def test_all_retrieved(self):
        run = _run(q1=[("a", 2.0), ("b", 1.0)])
        qrels = Qrels({"q1": {"a": 1, "b": 1}})
        assert recall_at_k(run, qrels, 10) == 1.0

    def test_none_retrieved(self):
        run = _run(q1=[("x", 1.0)])
        qrels = Qrels({"q1": {"a": 1}})
        assert recall_at_k(run, qrels, 10) == 0.0

    def test_half_retrieved(self):
        run = _run(q1=[("a", 1.0)])
        qrels = Qrels({"q1": {"a": 1, "b": 1}})
        assert recall_at_k(run, qrels, 10) == 0.5

    def test_k_truncation(self):
        run = _run(q1=[("x", 3.0), ("y", 2.0), ("a", 1.0)])
        qrels = Qrels({"q1": {"a": 1}})
        assert recall_at_k(run, qrels, 2) == 0.0
        assert recall_at_k(run, qrels, 3) == 1.0


class TestNdcg:
    def test_perfect_ranking(self):
        run = _run(q1=[("a", 3.0), ("b", 2.0), ("c", 1.0)])
        qrels = Qrels({"q1": {"a": 2, "b": 1, "c": 0}})
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(1.0, abs=1e-12)

    def test_single_relevant_at_rank_two(self):
        run = _run(q1=[("x", 2.0), ("a", 1.0)])
        qrels = Qrels({"q1": {"a": 1}})
        expected = 1.0 / math.log2(3)
        got = ndcg_at_k(run, qrels, 10)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.6309, abs=1e-4)

    def test_empty_intersection(self):
        run = _run(q1=[("x", 1.0), ("y", 0.5)])
        qrels = Qrels({"q1": {"a": 1}})
        assert ndcg_at_k(run, qrels, 10) == 0.0

    def test_zero_relevant_queries_excluded(self):
        run = _run(q1=[("a", 1.0)], q2=[("b", 1.0)])
        qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 0}})
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(1.0, abs=1e-12)

    def test_graded_gains_hand_case(self):
        run = _run(q1=[("a", 2.0), ("b", 1.0)])
        qrels = Qrels({"q1": {"a": 1, "b": 3}})
        dcg = (2**1 - 1) / math.log2(2) + (2**3 - 1) / math.log2(3)
        idcg = (2**3 - 1) / math.log2(2) + (2**1 - 1) / math.log2(3)
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(dcg / idcg, abs=1e-12)

    def test_improving_rank_never_decreases(self):
        qrels = Qrels({"q1": {"a": 1}})
        worse = _run(q1=[("x", 3.0), ("y", 2.0), ("a", 1.0)])
        better = _run(q1=[("x", 3.0), ("a", 2.0), ("y", 1.0)])
        assert ndcg_at_k(better, qrels, 10) >= ndcg_at_k(worse, qrels, 10)
        assert mrr_at_k(better, qrels, 10) >= mrr_at_k(worse, qrels, 10)


class TestFiveQueryHandSet:
    """A small fixed judgment set with every metric worked out by hand."""

    def setup_method(self):
        self.run = _run(
            q1=[("d1", 5.0), ("d2", 4.0)],          # relevant at rank 1
            q2=[("x1", 5.0), ("d3", 4.0)],          # relevant at rank 2
            q3=[("x2", 5.0), ("x3", 4.0)],          # relevant never retrieved
            q4=[("d5", 5.0), ("d6", 4.0), ("x4", 3.0)],  # 2 of 3 relevant found
            # q5 missing from the run entirely
        )
        self.qrels = Qrels(
            {
                "q1": {"d1": 1},
                "q2": {"d3": 1},
                "q3": {"d4": 1},
                "q4": {"d5": 1, "d6": 1, "d7": 1},
                "q5": {"d8": 1},
            }
        )

    def test_mrr(self):
        expected = (1.0 + 0.5 + 0.0 + 1.0 + 0.0) / 5
        assert mrr_at_k(self.run, self.qrels, 10) == pytest.approx(expected, abs=1e-9)

    def test_recall(self):
        expected = (1.0 + 1.0 + 0.0 + 2.0 / 3.0 + 0.0) / 5
        assert recall_at_k(self.run, self.qrels, 10) == pytest.approx(expected, abs=1e-9)

    def test_ndcg(self):
        q4_dcg = 1.0 / math.log2(2) + 1.0 / math.log2(3)
        q4_idcg = q4_dcg + 1.0 / math.log2(4)
        expected = (1.0 + 1.0 / math.log2(3) + 0.0 + q4_dcg / q4_idcg + 0.0) / 5
        assert ndcg_at_k(self.run, self.qrels, 10) == pytest.approx(expected, abs=1e-9)


class TestEvaluate:
    def test_delegates_and_keeps_order(self):
        run = _run(q1=[("a", 1.0)])
        qrels = Qrels({"q1": {"a": 1}})
        report = evaluate(run, qrels, ["ndcg@10", "mrr@5", "recall@1"])
        assert list(report) == ["ndcg@10", "mrr@5", "recall@1"]
        assert report["mrr@5"] == 1.0

    @pytest.mark.parametrize("spec", ["mrr", "mrr@", "mrr@x", "map@10", "mrr@0"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            evaluate(_run(q1=[("a", 1.0)]), Qrels({"q1": {"a": 1}}), [spec])

    def test_values_in_unit_interval(self):
        run = _run(q1=[("a", 2.0), ("b", 1.0)], q2=[("c", 1.0)])
        qrels = Qrels({"q1": {"b": 2}, "q2": {"a": 1}})
        report = evaluate(run, qrels, ["mrr@10", "recall@10", "ndcg@10"])
        assert all(0.0 <= v <= 1.0 for v in report.values())
