from __future__ import annotations

import math
import os

import numpy as np
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
from coil.evaluation import _run_from_columns, _run_from_lines
from streams import fed_stream, returns_within


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
        for text in ("", "\n \n"):
            path.write_text(text)
            with pytest.raises(FormatError) as raised:
                read_qrels(path)
            assert str(raised.value) == f"{path}: no judgments"

    def test_negative_relevance_rejected_in_constructor(self):
        with pytest.raises(ValidationError, match="negative"):
            Qrels({"q": {"d": -1}})

    @pytest.mark.parametrize("grade", [1.5, 1.0, True, False, "1", None, np.int64(1)])
    def test_grade_that_is_not_an_int_rejected_in_constructor(self, grade):
        with pytest.raises(ValidationError) as raised:
            Qrels({"q": {"d": grade}})
        assert str(raised.value) == f"relevance {grade!r} for ('q', 'd') is not an int"


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
        assert back["q1"].ids == ["d1", "d2"]
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

    @pytest.mark.parametrize("char", ["\x00", "\x7f"])
    @pytest.mark.parametrize(
        "lines, kind, lineno",
        [
            (["q1 Q0 d1 1 0.9 t", "q1 Q0 d{c}2 2 0.8 t", "q1 Q0 d{c}3 3 0.7 t"], "document", 2),
            (["q1 Q0 d1 1 0.9 t", "q{c}2 Q0 d1 1 0.8 t"], "query", 2),
        ],
        ids=["doc-id", "query-id"],
    )
    def test_control_character_id_names_line(self, tmp_path, char, lines, kind, lineno):
        path = tmp_path / "run.txt"
        path.write_text("".join(line.format(c=char) + "\n" for line in lines))
        with pytest.raises(
            FormatError, match=f"run.txt: line {lineno}: {kind} id .* control characters"
        ):
            read_run(path)

    def test_unprintable_but_valid_id_accepted(self, tmp_path):
        # U+200B is a format character: not printable, yet allowed by the id rule
        path = tmp_path / "run.txt"
        path.write_text("q​1 Q0 d​1 1 0.9 t\n")
        assert read_run(path)["q​1"].ids == ["d​1"]

    @pytest.mark.parametrize("stream", ["fifo", "pipe"])
    def test_stream_is_read_once_and_error_names_line(self, tmp_path, stream):
        data = b"q1 Q0 d1 1 0.9 t\nq1 Q0 d\x002 2 0.8 t\n"
        with fed_stream(stream, tmp_path, data) as path, pytest.raises(
            FormatError, match="line 2: document id .* control characters"
        ):
            returns_within(lambda: read_run(path))

    @pytest.mark.parametrize(
        "run",
        [
            {"q 1": RankedList("q 1", [("d0", 1.0)])},
            {"q1": RankedList("q1", [("d0", 1.0), ("d 0", 0.5)])},
            {"q1": RankedList("q1", [("d\x00", 1.0)])},
            {"q1": RankedList("q1", [("", 1.0)])},
            {"q1": RankedList("q1", [(5, 1.0)])},
        ],
        ids=["space-in-query-id", "space-in-doc-id", "nul-in-doc-id", "empty-doc-id", "int-doc-id"],
    )
    def test_write_checks_ids_before_opening(self, tmp_path, run):
        path = tmp_path / "run.txt"
        path.write_text("earlier\n")
        with pytest.raises(ValidationError, match="id"):
            write_run(run, path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]
        assert path.read_text() == "earlier\n"
        # a FIFO without a reader blocks its opener, so it shows that no open happens
        fifo = tmp_path / "run.fifo"
        os.mkfifo(fifo)
        with pytest.raises(ValidationError, match="id"):
            returns_within(lambda: write_run(run, fifo))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("d 900", "document id 'd 900' must not contain whitespace"),
            ("d\x00900", "document id 'd\\x00900' must not contain control characters"),
            ("", "document id must be non-empty"),
        ],
        ids=["space", "nul", "empty"],
    )
    @pytest.mark.parametrize("others", ["d{}", "d\u200b{}"], ids=["printable", "format-char"])
    def test_bad_id_deep_in_a_long_list_raises_before_opening(
        self, tmp_path, bad, message, others
    ):
        # the joined-string check and the per-id fallback give check_id's message;
        # U+200B makes the joined string unprintable, so every id is checked alone
        entries = [(others.format(i), 1.0) for i in range(1000)]
        entries[900] = (bad, 1.0)
        run = {"q0": RankedList("q0", [("ok", 2.0)]), "q1": RankedList("q1", entries)}
        fifo = tmp_path / "run.fifo"
        os.mkfifo(fifo)  # opening it without a reader would block
        with pytest.raises(ValidationError) as raised:
            returns_within(lambda: write_run(run, fifo))
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize("stream", ["fifo", "pipe"])
    def test_stream_that_fails_the_column_check_is_read_once_per_line(self, tmp_path, stream):
        # the blank line fails the column path's structure proof
        data = b"q1 Q0 d1 1 0.9 t\n\nq1 Q0 d2 2 0.8 t\nq2 Q0 d1 1 5 t\n"
        assert _run_from_columns(data) is None
        with fed_stream(stream, tmp_path, data) as path:
            run = returns_within(lambda: read_run(path))
        assert run == {
            "q1": RankedList("q1", [("d1", 0.9), ("d2", 0.8)]),
            "q2": RankedList("q2", [("d1", 5.0)]),
        }

    @pytest.mark.parametrize("stream", ["fifo", "pipe"])
    def test_stream_in_written_form_is_read_once_by_columns(self, tmp_path, stream):
        data = b"q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.8 t\nq2 Q0 d1 1 5 t\n"
        assert _run_from_columns(data) is not None
        with fed_stream(stream, tmp_path, data) as path:
            run = returns_within(lambda: read_run(path))
        assert run == _run_from_columns(data) == _run_from_lines(data, path)

    # %.6g edge cases: signed zeros, float64 and float32 subnormals, the
    # float32 extremes, and exact binary values on a 6-digit rounding tie
    EDGE_SCORES = [
        3.4028234663852886e38, 3.4e38, 1e300, 1234565.0, 1234575.0, 9999995.0, 999999.5,
        2.5, 1.0000005, 0.1234565, 1e-7, 1.1754943508222875e-38, 1e-300, 1.401298464324817e-45,
        5e-324, 0.0, -0.0, -5e-324, -1e-7, -1234565.0, -3.4e38, -3.4028234663852886e38,
    ]

    def test_write_from_columns_makes_the_bytes_of_the_tuple_formatting(self, tmp_path):
        scores = sorted(self.EDGE_SCORES, reverse=True)
        f32_max = float(np.finfo(np.float32).max)
        float32 = sorted({float(np.float32(s)) for s in scores if abs(s) <= f32_max}, reverse=True)
        run = {
            "q%d": RankedList("q%d", [(f"d{i}%s", s) for i, s in enumerate(scores)]),
            "q2": RankedList("q2", [(f"d{i}", s) for i, s in enumerate(float32)]),
            "q3": RankedList("q3", []),
        }
        path = tmp_path / "run.txt"
        write_run(run, path, tag="t%%")
        want = "".join(
            f"{qid} Q0 {doc_id} {rank} {score:.6g} t%%\n"
            for qid, ranked in run.items()
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1)
        )
        assert path.read_bytes() == want.encode()
        assert "1.23456e+06" in want and "-0 " in want and "4.94066e-324" in want

    def test_write_makes_the_same_bytes_as_one_line_per_entry(self, tmp_path):
        entries = [(f"d{i}", 1.0 / (i + 1)) for i in range(1000)]
        parts = {"q0": entries, "q1": [], "q2": entries[:3]}
        run = {qid: RankedList(qid, part) for qid, part in parts.items()}
        path = tmp_path / "run.txt"
        write_run(run, path, tag="t")
        want = "".join(
            f"{qid} Q0 {doc_id} {rank} {score:.6g} t\n"
            for qid, ranked in run.items()
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1)
        )
        assert path.read_bytes() == want.encode()


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

    def test_gains_are_the_unscaled_ones_bit_for_bit(self):
        run = _run(q1=[("a", 3.0), ("b", 2.0), ("c", 1.0), ("d", 0.5)])
        for grades in ({"a": 1, "b": 53, "d": 2}, {"a": 3, "c": 1, "e": 40}):
            dcg = sum(
                (2.0 ** grades[d] - 1.0) / math.log2(rank + 1)
                for rank, d in enumerate("abcd", start=1)
                if d in grades
            )
            ideal = sorted(grades.values(), reverse=True)
            idcg = sum((2.0**rel - 1.0) / math.log2(rank + 1) for rank, rel in enumerate(ideal, 1))
            assert ndcg_at_k(run, Qrels({"q1": grades}), 10) == dcg / idcg

    @pytest.mark.parametrize("grade", [1024, 10**6, 10**400], ids=["1024", "1e6", "1e400"])
    def test_large_grades_give_a_finite_ndcg(self, grade):
        run = _run(q1=[("a", 2.0), ("b", 1.0)])
        assert ndcg_at_k(run, Qrels({"q1": {"a": grade}}), 10) == 1.0
        got = ndcg_at_k(run, Qrels({"q1": {"a": 1, "b": grade}}), 10)
        assert math.isfinite(got) and 0.0 < got < 1.0

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
