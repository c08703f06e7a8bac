"""Ranking metrics and TREC-format IO.

Formats (single ASCII spaces, no comments):
  qrels  `qid 0 docid rel`
  run    `qid Q0 docid rank score tag`, rank from 1, score to 6
         significant digits

Metric conventions: MRR and recall average over judged queries that have
at least one document at or above `min_rel`; a judged query missing from
the run contributes 0.  NDCG uses gain 2^rel - 1 with a log2(rank+1)
discount and excludes queries with no positively judged document.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .core import FormatError, RankedList, ValidationError, check_id, read_lines

Run = dict[str, RankedList]


@dataclass
class Qrels:
    """Graded judgments: query_id -> {doc_id: relevance >= 0}."""

    judgments: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for qid, docs in self.judgments.items():
            for doc_id, rel in docs.items():
                if rel < 0:
                    raise ValidationError(
                        f"negative relevance {rel} for ({qid!r}, {doc_id!r})"
                    )

    def relevant(self, query_id: str, min_rel: int = 1) -> set[str]:
        docs = self.judgments.get(query_id, {})
        return {d for d, rel in docs.items() if rel >= min_rel}

    def __len__(self) -> int:
        return sum(len(d) for d in self.judgments.values())


def read_qrels(path: str | Path) -> Qrels:
    judgments: dict[str, dict[str, int]] = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise FormatError(f"{path}: line {lineno}: expected 4 fields, got {len(fields)}")
        qid, _, doc_id, rel_str = fields
        try:
            check_id("query", qid)
            check_id("document", doc_id)
        except ValidationError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        try:
            rel = int(rel_str)
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: relevance {rel_str!r} is not an integer"
            ) from None
        if rel < 0:
            raise FormatError(f"{path}: line {lineno}: negative relevance {rel}")
        per_query = judgments.setdefault(qid, {})
        if doc_id in per_query:
            raise FormatError(
                f"{path}: line {lineno}: duplicate judgment for ({qid!r}, {doc_id!r})"
            )
        per_query[doc_id] = rel
    return Qrels(judgments)


def write_run(run: Mapping[str, RankedList], path: str | Path, tag: str = "coil") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, ranked in run.items():
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {score:.6g} {tag}\n")


def read_run(path: str | Path) -> Run:
    per_query: dict[str, list[tuple[int, str, float]]] = {}
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
        per_query.setdefault(qid, []).append((rank, doc_id, score))

    run: Run = {}
    for qid, rows in per_query.items():
        rows.sort(key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise FormatError(f"{path}: query {qid!r}: ranks are not 1..{len(rows)}")
        run[qid] = RankedList(qid, [(doc_id, score) for _, doc_id, score in rows])
    return run


def _check_k(k: int) -> None:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")


def _mean_over_judged(
    run: Mapping[str, RankedList],
    qrels: Qrels,
    k: int,
    per_query: Callable[..., float],
    min_rel: int = 1,
) -> float:
    """Mean of ``per_query(top_k_entries, judgments, relevant_ids)`` over the
    judged queries with a document at or above ``min_rel``; a judged query
    missing from the run gets an empty top k."""
    _check_k(k)
    if len(qrels) == 0:
        raise ValidationError("empty qrels")
    totals = []
    for qid, judged in qrels.judgments.items():
        relevant = qrels.relevant(qid, min_rel)
        if not relevant:
            continue
        ranked = run.get(qid)
        top = ranked.entries[:k] if ranked is not None else []
        totals.append(per_query(top, judged, relevant))
    return float(sum(totals) / len(totals)) if totals else 0.0


def mrr_at_k(run: Mapping[str, RankedList], qrels: Qrels, k: int, min_rel: int = 1) -> float:
    """Mean over judged queries of 1/rank of the first relevant in top k."""

    def reciprocal_rank(top, judged, relevant):
        for rank, (doc_id, _) in enumerate(top, start=1):
            if doc_id in relevant:
                return 1.0 / rank
        return 0.0

    return _mean_over_judged(run, qrels, k, reciprocal_rank, min_rel)


def recall_at_k(
    run: Mapping[str, RankedList], qrels: Qrels, k: int, min_rel: int = 1
) -> float:
    """Mean over judged queries of the fraction of relevant in the top k."""

    def recall(top, judged, relevant):
        return sum(1 for doc_id, _ in top if doc_id in relevant) / len(relevant)

    return _mean_over_judged(run, qrels, k, recall, min_rel)


def ndcg_at_k(run: Mapping[str, RankedList], qrels: Qrels, k: int) -> float:
    """Mean NDCG with gain 2^rel - 1; zero-relevant queries are excluded."""

    def ndcg(top, judged, relevant):
        ideal_gains = sorted((rel for rel in judged.values() if rel > 0), reverse=True)
        idcg = sum(
            (2.0**rel - 1.0) / math.log2(rank + 1)
            for rank, rel in enumerate(ideal_gains[:k], start=1)
        )
        dcg = 0.0
        for rank, (doc_id, _) in enumerate(top, start=1):
            rel = judged.get(doc_id, 0)
            if rel > 0:
                dcg += (2.0**rel - 1.0) / math.log2(rank + 1)
        return dcg / idcg

    return _mean_over_judged(run, qrels, k, ndcg)


METRICS = {"mrr": mrr_at_k, "recall": recall_at_k, "ndcg": ndcg_at_k}


def parse_metric_spec(spec: str) -> tuple[str, int]:
    name, sep, k_str = spec.partition("@")
    name = name.strip().lower()
    if not sep or name not in METRICS:
        raise ValidationError(
            f"bad metric spec {spec!r}; expected mrr@k, recall@k or ndcg@k"
        )
    try:
        k = int(k_str)
    except ValueError:
        raise ValidationError(f"bad metric spec {spec!r}: {k_str!r} is not an integer") from None
    _check_k(k)
    return name, k


def evaluate(
    run: Mapping[str, RankedList], qrels: Qrels, metric_specs: Sequence[str]
) -> dict[str, float]:
    """Compute each `name@k` spec; result keys keep the given order."""
    report: dict[str, float] = {}
    for spec in metric_specs:
        name, k = parse_metric_spec(spec)
        report[f"{name}@{k}"] = METRICS[name](run, qrels, k)
    return report
