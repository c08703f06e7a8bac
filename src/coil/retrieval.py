"""Query-time scoring: indexed search and brute-force pairwise oracles.

The indexed path and the pairwise oracles must agree exactly in ordering,
so both funnel every dot product through `_row_dots` (elementwise multiply
then a row-wise float64 reduction) and accumulate per-document sums in
ascending query-position order.  That keeps the arithmetic bitwise
identical between the two routes; the reported float32 cast then cannot
disagree either.

Query positions with the unknown token id (0) are skipped by the lexical
scorers: an out-of-vocabulary token matches nothing, not other unknowns.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EncodedDocument,
    EncodedQuery,
    MODES,
    RankedList,
    ValidationError,
    as_score,
    ranked_list_from_arrays,
)
from .encoding import UNKNOWN_TOKEN_ID
from .index import CoilIndex


@dataclass(frozen=True)
class SearchInstrumentation:
    """Work counters for one query.

    lists_touched   distinct query token ids that have an inverted list
    postings_scanned  total occurrences stored in those lists
    candidates      distinct documents receiving a token score
    """

    lists_touched: int
    postings_scanned: int
    candidates: int


def _row_dots(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Per-row dot products, float64.

    Both the indexed path and the oracles use this one implementation so
    the summation tree per row is identical regardless of how many rows
    are scored at once.
    """
    return np.multiply(matrix, vector).sum(axis=1)


def _check_token_dims(q: EncodedQuery, d: EncodedDocument) -> None:
    if q.token_vecs.shape[1] != d.token_vecs.shape[1]:
        raise ValidationError(
            f"token dimension mismatch: query {q.token_vecs.shape[1]}, "
            f"document {d.token_vecs.shape[1]}"
        )


def _tok_score_f64(q: EncodedQuery, d: EncodedDocument) -> tuple[float, bool]:
    """Raw float64 exact-match score and whether any query token matched."""
    doc_ids = np.asarray(d.token_ids)
    total = 0.0
    matched = False
    for i, tid in enumerate(q.token_ids):
        if tid == UNKNOWN_TOKEN_ID:
            continue
        rows = np.flatnonzero(doc_ids == tid)
        if len(rows) == 0:
            continue
        matched = True
        dots = _row_dots(d.token_vecs[rows], q.token_vecs[i].astype(np.float64))
        total += float(dots.max())
    return total, matched


def _check_cls_dims(q: EncodedQuery, d: EncodedDocument) -> None:
    if q.cls_vec.shape != d.cls_vec.shape:
        raise ValidationError(
            f"cls dimension mismatch: query {q.cls_vec.shape[0]}, "
            f"document {d.cls_vec.shape[0]}"
        )


def _cls_dot_f64(q: EncodedQuery, d: EncodedDocument) -> float:
    if q.cls_vec is None or d.cls_vec is None:
        raise ValidationError("cls scoring requires cls vectors on both sides")
    _check_cls_dims(q, d)
    return float(_row_dots(d.cls_vec[None, :], q.cls_vec.astype(np.float64))[0])


def score_tok_pair(q: EncodedQuery, d: EncodedDocument) -> float:
    """Sum over query positions of the max dot with same-token occurrences.

    Positions whose token is absent from the document contribute 0.
    Duplicate query positions with the same token each contribute their
    own max term: their contextualized vectors differ.
    """
    _check_token_dims(q, d)
    total, _ = _tok_score_f64(q, d)
    return as_score(total)


def score_full_pair(q: EncodedQuery, d: EncodedDocument) -> float:
    """Exact-match score plus the CLS dot product."""
    _check_token_dims(q, d)
    cls = _cls_dot_f64(q, d)
    total, _ = _tok_score_f64(q, d)
    return as_score(total + cls)


def score_all_to_all_pair(q: EncodedQuery, d: EncodedDocument) -> float:
    """Sum over query slots of the max dot over all document slots.

    The exact-match constraint is dropped: every query vector may match
    any document vector.  CLS slots, when present on both sides, join the
    token slots, which is only well defined when the two spaces share a
    dimension; mixed n_t != n_c inputs are refused.
    """
    _check_token_dims(q, d)
    has_cls = q.cls_vec is not None or d.cls_vec is not None
    if has_cls:
        if q.cls_vec is None or d.cls_vec is None:
            raise ValidationError(
                "all-to-all scoring needs cls vectors on both sides or neither"
            )
        _check_cls_dims(q, d)
        n_t = q.token_vecs.shape[1]
        n_c = q.cls_vec.shape[0]
        if n_t != n_c:
            raise ValidationError(
                f"all-to-all scoring is undefined for n_t={n_t} != n_c={n_c}"
            )
        q_mat = np.vstack([q.token_vecs, q.cls_vec[None, :]])
        d_mat = np.vstack([d.token_vecs, d.cls_vec[None, :]])
    else:
        q_mat = q.token_vecs
        d_mat = d.token_vecs
    if q_mat.shape[0] == 0 or d_mat.shape[0] == 0:
        return 0.0
    sims = q_mat.astype(np.float64) @ d_mat.astype(np.float64).T
    return as_score(float(sims.max(axis=1).sum()))


def _validate_mode_for_index(index: CoilIndex, q: EncodedQuery, mode: str) -> None:
    """A full index serves every mode; a tok or cls_only index only its own."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    cfg = index.config
    if cfg.mode not in ("full", mode):
        missing = "n_c" if cfg.mode == "tok" else "n_t"
        raise ValidationError(f"mode={mode} requires an index with {missing} >= 1")
    if mode in ("tok", "full") and q.token_vecs.shape[1] != cfg.n_t:
        raise ValidationError(
            f"query token dimension {q.token_vecs.shape[1]} != index n_t {cfg.n_t}"
        )
    if mode in ("full", "cls_only") and (
        q.cls_vec is None or q.cls_vec.shape[0] != cfg.n_c
    ):
        raise ValidationError(
            f"mode={mode} requires a {cfg.n_c}-dimensional query cls vector"
        )


def search(
    index: CoilIndex, q: EncodedQuery, k: int, mode: str | None = None
) -> tuple[RankedList, SearchInstrumentation]:
    """Top-k retrieval over the inverted lists.

    Per query position, score its token's whole list with one batched
    row-dot, reduce to per-document maxima with a segmented max, and add
    into float64 accumulators; full and cls_only modes add one batched
    CLS row-dot over all documents.  tok mode ranks only documents that
    share at least one token with the query.  ``mode`` defaults to the
    index's own mode.
    """
    mode = index.config.mode if mode is None else mode
    _validate_mode_for_index(index, q, mode)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")

    num_docs = index.num_docs
    acc = np.zeros(num_docs, dtype=np.float64)
    touched = np.zeros(num_docs, dtype=bool)
    touched_tids: set[int] = set()

    if mode in ("tok", "full"):
        for i, tid in enumerate(q.token_ids):
            if tid == UNKNOWN_TOKEN_ID:
                continue
            lst = index.lists.get(tid)
            if lst is None:
                continue
            touched_tids.add(tid)
            products = _row_dots(lst.vectors, q.token_vecs[i].astype(np.float64))
            starts, ordinals = lst.segments()
            seg_max = np.maximum.reduceat(products, starts)
            acc[ordinals] += seg_max
            touched[ordinals] = True

    instr = SearchInstrumentation(
        lists_touched=len(touched_tids),
        postings_scanned=sum(len(index.lists[t]) for t in touched_tids),
        candidates=int(np.count_nonzero(touched)),
    )

    if mode == "tok":
        keep = np.flatnonzero(touched)
        doc_ids = index.doc_ids[keep]
        scores = acc[keep]
    else:
        cls_scores = _row_dots(index.cls_matrix, q.cls_vec.astype(np.float64))
        doc_ids = index.doc_ids
        scores = cls_scores if mode == "cls_only" else acc + cls_scores

    return ranked_list_from_arrays(q.query_id, doc_ids, scores, k), instr


def brute_force_search(
    docs: Sequence[EncodedDocument], q: EncodedQuery, k: int, mode: str = "full"
) -> RankedList:
    """Score every document pairwise and rank; the oracle for `search`."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    pairs: list[tuple[str, float]] = []
    for d in docs:
        if mode == "tok":
            _check_token_dims(q, d)
            total, matched = _tok_score_f64(q, d)
            if not matched:
                continue
            pairs.append((d.doc_id, as_score(total)))
        elif mode == "full":
            pairs.append((d.doc_id, score_full_pair(q, d)))
        else:
            pairs.append((d.doc_id, as_score(_cls_dot_f64(q, d))))
    return RankedList.from_scores(q.query_id, pairs, k)


def search_many(
    index: CoilIndex,
    queries: Sequence[EncodedQuery],
    k: int,
    mode: str | None = None,
    threads: int = 1,
) -> list[tuple[RankedList, SearchInstrumentation]]:
    """Run `search` over many queries, optionally in a thread pool.

    Results keep query order and are identical for any thread count: each
    query's scoring is independent and internally sequential.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    if threads == 1 or len(queries) <= 1:
        return [search(index, q, k, mode) for q in queries]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda q: search(index, q, k, mode), queries))
