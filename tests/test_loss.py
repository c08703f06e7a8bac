from __future__ import annotations

import math

import numpy as np
import pytest

from coil import (
    FormatError,
    TrainingExample,
    ValidationError,
    batch_loss,
    nll_loss,
    read_training_examples,
    write_training_examples,
)


def naive_nll(pos, negs):
    # direct, unstabilized softmax; fine at test magnitudes
    denom = math.exp(pos) + sum(math.exp(n) for n in negs)
    return -math.log(math.exp(pos) / denom)


class TestNllLoss:
    @pytest.mark.parametrize("l", [1, 3, 7])
    def test_equal_scores_give_log_group_size(self, l):
        assert nll_loss(0.7, [0.7] * l) == pytest.approx(math.log(1 + l), abs=1e-9)

    def test_empty_negatives_is_zero(self):
        assert nll_loss(3.3, []) == 0.0

    def test_hand_value(self):
        got = nll_loss(2.0, [0.0, 1.0])
        assert got == pytest.approx(naive_nll(2.0, [0.0, 1.0]), abs=1e-12)
        assert got == pytest.approx(0.40761, abs=1e-5)

    def test_matches_naive_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pos = float(rng.normal())
            negs = rng.normal(size=int(rng.integers(1, 9))).tolist()
            assert nll_loss(pos, negs) == pytest.approx(naive_nll(pos, negs), abs=1e-12)

    def test_positive_whenever_negatives_exist(self):
        assert nll_loss(100.0, [-100.0]) > 0.0

    def test_monotone_in_scores(self):
        negs = [0.5, -0.2]
        assert nll_loss(1.0, negs) > nll_loss(2.0, negs)
        assert nll_loss(1.0, [0.5, 0.0]) < nll_loss(1.0, [0.5, 0.4])

    def test_shift_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            pos = float(rng.normal())
            negs = rng.normal(size=5).tolist()
            for shift in (-100.0, 1e3, 7.7):
                shifted = nll_loss(pos + shift, [n + shift for n in negs])
                assert shifted == pytest.approx(nll_loss(pos, negs), abs=1e-9)

    def test_no_overflow_at_large_magnitudes(self):
        val = nll_loss(1e4, [-1e4, 1e4, 9999.0])
        assert math.isfinite(val)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            nll_loss(float("inf"), [0.0])
        with pytest.raises(ValidationError, match="finite"):
            nll_loss(0.0, [float("nan")])


class TestBatchLoss:
    def test_single_query_reduces_to_nll(self):
        row = [2.0, 0.5, -1.0, 0.0]
        got = batch_loss(np.asarray([row]))
        assert got == pytest.approx(nll_loss(row[0], row[1:]), abs=1e-12)

    def test_two_query_all_equal_gives_log16(self):
        scores = np.zeros((2, 16))
        assert batch_loss(scores) == pytest.approx(math.log(16), abs=1e-9)

    def test_cross_query_documents_are_negatives(self):
        rng = np.random.default_rng(44)
        scores = rng.normal(size=(3, 12))  # 3 queries x 3 groups of (1+3)
        expected = np.mean(
            [
                naive_nll(scores[i, i * 4], np.delete(scores[i], i * 4).tolist())
                for i in range(3)
            ]
        )
        assert batch_loss(scores) == pytest.approx(expected, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError, match="empty batch"):
            batch_loss(np.zeros((0, 4)))

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValidationError, match="columns"):
            batch_loss(np.zeros((3, 10)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValidationError, match="2-d"):
            batch_loss(np.zeros(8))

    def test_non_finite_rejected(self):
        scores = np.zeros((1, 4))
        scores[0, 2] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            batch_loss(scores)


class TestTrainingExamples:
    def test_positive_among_negatives_rejected(self):
        with pytest.raises(ValidationError, match="among the negatives"):
            TrainingExample("q1", "d1", ("d2", "d1"))

    def test_roundtrip(self, tmp_path):
        examples = [
            TrainingExample("q1", "d1", ("d2", "d3")),
            TrainingExample("q2", "d9", ()),
        ]
        path = tmp_path / "examples.jsonl"
        assert write_training_examples(examples, path) == 2
        assert read_training_examples(path) == examples

    def test_file_format(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        write_training_examples([TrainingExample("q", "p", ("n1",))], path)
        assert path.read_text() == '{"qid": "q", "pos": "p", "negs": ["n1"]}\n'

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text('{"qid": "q", "pos": "p", "negs": []}\nbroken\n')
        with pytest.raises(FormatError, match="2.*invalid JSON"):
            read_training_examples(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text('{"qid": "q", "negs": []}\n')
        with pytest.raises(FormatError, match="line 1: missing key 'pos'"):
            read_training_examples(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"qid": 5, "pos": "d1", "negs": ["d2"]}', "'qid' has the wrong type"),
            ('{"qid": "q", "pos": "d1", "negs": "abc"}', "'negs' has the wrong type"),
            ('["q", "d1", []]', "expected a JSON object"),
            ('{"qid": "q", "pos": "d1", "negs": [2]}', "document id must be a string"),
            ('{"qid": "q 1", "pos": "d1", "negs": []}', "query id 'q 1' must not contain"),
            ('{"qid": "q", "pos": "d\\u0000", "negs": []}', "must not contain control"),
            ('{"qid": "q", "pos": "d1", "negs": ["d1"]}', "among the negatives"),
        ],
        ids=[
            "int-qid", "string-negs", "json-list", "int-neg", "space-qid", "nul-pos", "pos-in-negs"
        ],
    )
    def test_bad_record_names_line(self, tmp_path, line, message):
        path = tmp_path / "examples.jsonl"
        path.write_text('{"qid": "q", "pos": "p", "negs": []}\n' + line + "\n")
        with pytest.raises(FormatError, match=f"examples.jsonl: line 2: .*{message}"):
            read_training_examples(path)
