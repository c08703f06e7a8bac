"""Contrastive negative log likelihood as a pure value computation.

No gradients or optimizer live here; the loss exists so a trainable
encoder can be validated against fixed points and so the negative
sampling pipeline has a consumer.  In-batch negatives are realized as:
each query scores one positive plus l hard negatives, and its negative
set is its own negatives plus every other query's positive and negatives.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import FormatError, ValidationError, check_fields, check_id, read_json_lines


@dataclass(frozen=True)
class TrainingExample:
    query_id: str
    positive_doc_id: str
    negative_doc_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "negative_doc_ids", tuple(self.negative_doc_ids))
        check_id("query", self.query_id)
        for doc_id in (self.positive_doc_id, *self.negative_doc_ids):
            check_id("document", doc_id)
        if self.positive_doc_id in self.negative_doc_ids:
            raise ValidationError(
                f"query {self.query_id!r}: positive {self.positive_doc_id!r} "
                "appears among the negatives"
            )


def nll_loss(pos_score: float, neg_scores: Sequence[float]) -> float:
    """-log softmax probability of the positive, max-shift stabilized.

    An empty negative set yields 0: the probability is 1.
    """
    scores = [float(pos_score), *map(float, neg_scores)]
    if not all(math.isfinite(s) for s in scores):
        raise ValidationError("scores must be finite")
    if len(scores) == 1:
        return 0.0
    shift = max(scores)
    if shift == scores[0]:
        # log1p keeps the loss positive even when the positive dominates
        return math.log1p(math.fsum(math.exp(s - shift) for s in scores[1:]))
    z = math.fsum(math.exp(s - shift) for s in scores)
    return math.log(z) - (scores[0] - shift)


def batch_loss(score_matrix: np.ndarray) -> float:
    """Mean NLL over a batch of B queries scored against all B(1+l) docs.

    Row i holds query i's scores over the batch documents laid out as B
    consecutive groups of (1 positive + l negatives); query i's positive
    is column i*(1+l) and every other column is a negative.
    """
    scores = np.asarray(score_matrix, dtype=np.float64)
    if scores.ndim != 2:
        raise ValidationError(f"score matrix must be 2-d, got {scores.ndim}-d")
    n_queries, n_cols = scores.shape
    if n_queries == 0:
        raise ValidationError("empty batch")
    if n_cols % n_queries != 0 or n_cols == 0:
        raise ValidationError(
            f"{n_cols} columns cannot be split into {n_queries} groups of 1+l"
        )
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    group = n_cols // n_queries
    losses = []
    for i in range(n_queries):
        pos_col = i * group
        row = scores[i]
        negs = np.delete(row, pos_col)
        losses.append(nll_loss(float(row[pos_col]), negs.tolist()))
    return float(np.mean(losses))


def write_training_examples(
    examples: Iterable[TrainingExample], path: str | Path
) -> int:
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            record = {
                "qid": ex.query_id,
                "pos": ex.positive_doc_id,
                "negs": list(ex.negative_doc_ids),
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


_EXAMPLE_TYPES = {"qid": str, "pos": str, "negs": list}


def read_training_examples(path: str | Path) -> list[TrainingExample]:
    examples = []
    for lineno, obj in read_json_lines(path):
        where = f"{path}: line {lineno}"
        record = check_fields(obj, _EXAMPLE_TYPES, where)
        try:
            examples.append(TrainingExample(record["qid"], record["pos"], tuple(record["negs"])))
        except ValidationError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return examples
