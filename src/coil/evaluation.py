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

import io
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    FormatError,
    RankedList,
    ValidationError,
    atomic_writer,
    check_id,
    check_ids,
    decode_lines,
    read_lines,
)

Run = dict[str, RankedList]


@dataclass
class Qrels:
    """Graded judgments: query_id -> {doc_id: relevance >= 0}."""

    judgments: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for qid, docs in self.judgments.items():
            for doc_id, rel in docs.items():
                if isinstance(rel, bool) or not isinstance(rel, int):
                    raise ValidationError(
                        f"relevance {rel!r} for ({qid!r}, {doc_id!r}) is not an int"
                    )
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
        if not (qid + doc_id).isprintable():
            _check_row_ids(path, lineno, qid, doc_id)
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
    if not judgments:
        raise FormatError(f"{path}: no judgments")
    return Qrels(judgments)


def write_run(run: Mapping[str, RankedList], path: str | Path, tag: str = "coil") -> None:
    """Write ``run`` in TREC format.  The query ids (the keys), the doc ids
    and ``tag`` must pass the id rule, as :func:`read_run` reads each as one
    field; they are checked before ``path`` is opened."""
    check_id("run tag", tag)
    for qid, ranked in run.items():
        check_id("query", qid)
        check_ids("document", ranked.ids)
    with atomic_writer(path) as fh:
        for qid, ranked in run.items():
            fh.write(_query_lines(qid, ranked, tag))


def _query_lines(qid: str, ranked: RankedList, tag: str) -> str:
    """The run lines of one query, ``f"{qid} Q0 {doc_id} {rank} {score:.6g} {tag}\\n"``
    each, made by one ``%`` over all of them; a ``%`` in ``qid`` or ``tag`` is
    escaped."""
    line = qid.replace("%", "%%") + " Q0 %s %d %.6g " + tag.replace("%", "%%") + "\n"
    n = len(ranked.ids)
    rows = zip(ranked.ids, range(1, n + 1), ranked.scores.tolist())
    return (line * n) % tuple(chain.from_iterable(rows))


_RUN_CHUNK = 1 << 16  # characters of run text that one split() takes, at least


def read_run(path: str | Path) -> Run:
    """Read a run file; every query and document id must pass the id rule,
    and each query's rows must make a valid RankedList.

    The file is read once.  A file in the form :func:`write_run` writes is
    read by columns, split a chunk of whole lines at a time.  Any other
    file, and any file that fails a check there, is read again from the same
    bytes one line at a time, which raises the error naming the bad line or
    query; where both read a file, they give equal runs.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    run = _run_from_columns(data)
    return _run_from_lines(data, path) if run is None else run


def _run_from_columns(data: bytes) -> Run | None:
    """The run in ``data``, or None when a check fails.

    The checks: one ASCII space between fields and one newline after every
    sixth field, so every line has six fields; ids that are printable as one
    joined string; each query's rows contiguous, with rank fields exactly
    ``1``..``n``; finite scores that never rise within a query; and distinct
    doc ids within a query.  Every run passing them is one that
    :func:`_run_from_lines` reads without an error, and to an equal run.
    The text is split in chunks of whole lines, each at least `_RUN_CHUNK`
    characters but the last, and each chunk passes the field checks on its
    own; only the query, doc-id, rank and score columns are kept.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    qids: list[str] = []
    doc_ids: list[str] = []
    ranks: list[str] = []
    score_parts = [np.empty(0)]
    start = 0
    while start < len(text):
        end = text.find("\n", start + _RUN_CHUNK - 1) + 1 or len(text)
        chunk = text[start:end]
        start = end
        fields = chunk.split()
        # a 5-field line beside a 7-field one, a tab, a "\r", a blank line or
        # whitespace inside an id each make the rebuilt text differ
        if not fields or chunk != "\n".join(map(" ".join, zip(*[iter(fields)] * 6))) + "\n":
            return None
        chunk_qids, chunk_doc_ids = fields[0::6], fields[2::6]
        if not ("".join(chunk_qids) + "".join(chunk_doc_ids)).isprintable():
            return None
        try:
            score_parts.append(np.fromiter(map(float, fields[4::6]), np.float64, len(chunk_qids)))
        except ValueError:
            return None
        qids += chunk_qids
        doc_ids += chunk_doc_ids
        ranks += fields[3::6]
    if not qids:
        return None
    scores = np.concatenate(score_parts)
    if not np.isfinite(scores).all():
        return None
    distinct = list(dict.fromkeys(qids))
    starts = [0]
    for qid in distinct[1:]:
        starts.append(qids.index(qid, starts[-1]))
    ends = starts[1:] + [len(qids)]
    numerals = list(map(str, range(1, max(e - s for s, e in zip(starts, ends)) + 1)))
    rises = scores[1:] > scores[:-1]
    rises[np.array(starts[1:], dtype=np.intp) - 1] = False  # a new query may start higher
    if rises.any():
        return None
    run: Run = {}
    for qid, start, end in zip(distinct, starts, ends):
        ids = doc_ids[start:end]
        size = end - start
        if (
            qids[start:end].count(qid) != size
            or ranks[start:end] != numerals[:size]
            or len(set(ids)) != size
        ):
            return None
        run[qid] = RankedList.from_columns(qid, ids, scores[start:end])
    return run


def _run_from_lines(data: bytes, path: str | Path) -> Run:
    """The run in ``data``, read one line at a time; the first bad line or
    query raises FormatError naming ``path``."""
    per_query: dict[str, list[tuple[int, str, float, int]]] = {}
    for lineno, line in decode_lines(io.BytesIO(data), path):
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

    # every id before any rank sequence: a bad query id splits its query in two
    for qid, rows in per_query.items():
        if not (qid + "".join(map(itemgetter(1), rows))).isprintable():
            for _, doc_id, _, lineno in rows:
                _check_row_ids(path, lineno, qid, doc_id)
    run: Run = {}
    for qid, rows in per_query.items():
        rows.sort(key=itemgetter(0))
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise FormatError(f"{path}: query {qid!r}: ranks are not 1..{len(rows)}")
        try:
            run[qid] = RankedList(qid, [(doc_id, score) for _, doc_id, score, _ in rows])
        except ValidationError as exc:
            raise FormatError(f"{path}: query {qid!r}: {exc}") from exc
    return run


def _check_row_ids(path: str | Path, lineno: int, qid: str, doc_id: str) -> None:
    """The id rule for one row of a run or qrels file, raised as FormatError
    naming its line.  ``split()`` already rules out empty ids and whitespace,
    so callers need this only for ids that are not printable."""
    try:
        check_id("query", qid)
        check_id("document", doc_id)
    except ValidationError as exc:
        raise FormatError(f"{path}: line {lineno}: {exc}") from exc


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
    """Mean of ``per_query(top_k_doc_ids, judgments, relevant_ids)`` over the
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
        top = ranked.ids[:k] if ranked is not None else []
        totals.append(per_query(top, judged, relevant))
    return float(sum(totals) / len(totals)) if totals else 0.0


def mrr_at_k(run: Mapping[str, RankedList], qrels: Qrels, k: int, min_rel: int = 1) -> float:
    """Mean over judged queries of 1/rank of the first relevant in top k."""

    def reciprocal_rank(top, judged, relevant):
        for rank, doc_id in enumerate(top, start=1):
            if doc_id in relevant:
                return 1.0 / rank
        return 0.0

    return _mean_over_judged(run, qrels, k, reciprocal_rank, min_rel)


def recall_at_k(
    run: Mapping[str, RankedList], qrels: Qrels, k: int, min_rel: int = 1
) -> float:
    """Mean over judged queries of the fraction of relevant in the top k."""

    def recall(top, judged, relevant):
        return sum(1 for doc_id in top if doc_id in relevant) / len(relevant)

    return _mean_over_judged(run, qrels, k, recall, min_rel)


def ndcg_at_k(run: Mapping[str, RankedList], qrels: Qrels, k: int) -> float:
    """Mean NDCG with gain 2^rel - 1; zero-relevant queries are excluded.  Each
    query's gains are scaled by 2^-max_grade, which keeps any grade finite and,
    up to grade 53, every bit of the unscaled ratio."""

    def ndcg(top, judged, relevant):
        grades = sorted((rel for rel in judged.values() if rel > 0), reverse=True)

        def gain(rel: int) -> float:
            return math.ldexp(1.0, rel - grades[0]) - math.ldexp(1.0, -grades[0])

        idcg = sum(gain(rel) / math.log2(rank + 1) for rank, rel in enumerate(grades[:k], 1))
        dcg = 0.0
        for rank, doc_id in enumerate(top, start=1):
            rel = judged.get(doc_id, 0)
            if rel > 0:
                dcg += gain(rel) / math.log2(rank + 1)
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
