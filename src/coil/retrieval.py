"""Query-time scoring: indexed search and brute-force pairwise oracles.

The indexed path and the pairwise oracles must agree exactly in ordering,
so both funnel every dot product through `_dots` (one float64 `einsum`)
and accumulate per-document sums in ascending query-position order.  A
cell of `_dots` does not depend on how many matrix rows or query rows are
scored with it, so the arithmetic is bitwise identical between the two
routes; the reported float32 cast then cannot disagree either.  The one
exception is the CLS dot of a document the indexed path keeps: a float64
BLAS product stands in for it where that product proves the float32 score
`_dots` would give, as set out below.

Both hot steps are exact.  `einsum` casts each float32 entry to float64
as it multiplies, so no float64 copy of a matrix is built.  `search_many`
cuts its queries into blocks of up to `_QUERY_BLOCK`, then scores the
inverted lists and ranks each query on its own; `search` is a block of one.
`ranked_list_from_arrays` finds the k-th best float32 score with a
partition and sorts only the scores at or above it, every tie at the cut
included, so its entries equal those of sorting every score.

The CLS scan is bounded, then certified.  One float32 BLAS product scores a
block's queries against every CLS row.  For a CLS row d and a query's cls
vector q, both n = n_c float32 entries, that product differs from `_dots`
by at most

    2 (g(2**-24) + g(2**-53)) |d| |q|  +  2n 2**-126 (|d| + |q| + 1),
    g(u) = n u / (1 - n u),

in any summation order, with or without FMA and with flush-to-zero.  The
float32 dot makes n products and n - 1 sums; each rounds with relative
error at most 2**-24 or, where it underflows, absolute error below 2**-126,
and flushing a subnormal entry moves its product by less than 2**-126
times the other vector's norm.  `_dots` rounds only its sums, because the
float64 product of two float32 numbers is exact.  The factor 2 covers the
rounding of the float64 norms (``CoilIndex.cls_norms``).  So a document's
score lies in an interval around its token sum plus its float32 product,
widened by a few float64 ulps for the arithmetic that builds it.  Rounding
to float32 keeps order, so a document whose upper end, as float32, lies
below the k-th largest lower end, as float32, scores below the k-th best
and cannot reach the top k.  Every other document, every tie at the cut
included, is kept.  A query keeps every row when k >= num_docs, and when
an interval end is non-finite or at least the float32 maximum in
magnitude.  The certificate below then serves those rows too: its float64
products stay finite, so a score past the float32 range casts to the same
infinity at both ends of its interval or is refused and rescored, and the
ranker still rejects a non-finite score for any document.  The bounds need
float32 vectors on both sides, and they hold for every query: an index
stores float32 CLS rows, and `EncodedQuery` stores its cls vector as
float32 when it is built.

A kept row needs `_dots` only for the float32 score it leads to, and a
float64 BLAS product proves that score for almost every row.  One product
per block scores every query against the union of the rows the block's
queries keep, `_GATHER_ROWS` rows cast to float64 at a time, so no float64
copy of the matrix is kept.  Each product of two float32 numbers is exact
in float64, and neither it nor any sum underflows or overflows: a product
is a multiple of 2**-298 below 2**256, and a float64 sum of multiples of
2**-350 is again one (a rounding to 53 bits keeps it), so every partial
sum is 0 or at least 2**-350 in magnitude.  Only the n - 1 sums round,
each with relative error at most 2**-53, so the BLAS value v and the
`_dots` value w each lie within g(2**-53) |d| |q| of the exact dot, and

    |v - w|  <=  2 g(2**-53) |d| |q|

in any summation order, with or without FMA.  A factor 2 again covers the
rounding of the norms, and the interval [lo, hi] around v is widened by a
few float64 ulps, so that w lies in it.  The ranked score is the float32
cast of ``acc + w``, with ``acc`` the token sum (cls_only mode ranks w
itself, and 0 + w is w for any w but -0.0).  A rounded addition of ``acc``
is monotone and so is the cast, so ``float32(acc + w)`` lies between
``float32(acc + lo)`` and ``float32(acc + hi)``.  Where those two are equal
and not zero, that value is the score, and the ranker is given ``acc + v``,
which casts to it.  A zero is rescored with `_dots`: -0.0 and +0.0 compare
equal, so the interval cannot tell which of them w gives, and a run file
prints the sign.  Every other row is rescored with `_dots` too, so the
entries equal those of an exact scan of every row.  On the benchmark's
full-mode corpus about 1 row in 100,000 is rescored.

Where the ranked-list invariants are checked: the ranker rejects a
non-finite score, and its sort by score, then by the doc table's code-point
rank, gives the order.  The index's ``DocTable`` rejected a duplicate doc
id when it was built, so no list is checked a second time, entry by entry.
The ranker takes the table whole, with the ordinals of the documents a
tok-mode query scored, and gathers only the ids it returns.  Those
ordinals, and every list's, are intp, so no query converts an index array
before it gathers or scatters with it.

Query positions with the unknown token id (0) are skipped by the lexical
scorers: an out-of-vocabulary token matches nothing, not other unknowns.
"""
from __future__ import annotations

import math
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
from .index import CoilIndex, InvertedList


@dataclass(frozen=True)
class SearchInstrumentation:
    """Work counters for one query.

    lists_touched   distinct query token ids that have an inverted list
    postings_scanned  total occurrences stored in those lists
    candidates      distinct documents receiving a token score
    cls_scored      documents whose exact float32 CLS score was found; 0 in tok mode

    ``cls_scored`` counts the documents the float32 CLS product could not
    rule out, every document when the query keeps every row (see the module
    docstring); each gets its exact float32 score, from a certified float64
    product or from `_dots`.  The float32 product may round differently for
    another block size, so a document whose bound lies within a rounding of
    the cut may be counted in one block and not in another; the ranked
    lists are the same.
    """

    lists_touched: int
    postings_scanned: int
    candidates: int
    cls_scored: int


_QUERY_BLOCK = 32  # queries per float32 CLS product: bounds it at 32 x num_docs float32
# CLS rows gathered and cast per chunk of a block's union product, and gathered
# per `_dots` call of the rows the certificate refuses.  On a 5000 x 768
# matrix, one query's 1008 kept rows took 0.65 ms in chunks of 64, 0.82 ms in
# chunks of 256 and 0.98 ms in one piece; a block of 32 queries took 0.22-0.25 ms
# per query in chunks of 32 to 128 rows, and 0.32 ms in one piece.
_GATHER_ROWS = 64


def _dots(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Float64 dots of every query row with every matrix row, shape (queries, rows).

    A cell's value does not depend on how many rows or query rows are
    scored with it, nor on where the rows start in memory, so the indexed
    path and the oracles, which share this helper, agree bit for bit.
    """
    return np.einsum("ij,kj->ki", matrix, queries, dtype=np.float64)


def _run_maxima(products: np.ndarray, lst: InvertedList) -> np.ndarray:
    """The largest of ``products``, one per row of ``lst``, in each of its
    per-document runs: each run's first row, with its later rows folded in
    by ``np.maximum.at`` in row order.

    ``max`` is exact, so the maxima equal ``np.maximum.reduceat(products,
    lst.starts)``.  Only a zero maximum may differ, in its sign: reduceat
    does not fold every run in row order.  No score sees that sign, because
    the accumulators start at +0.0 and +0.0 + -0.0 is +0.0.
    """
    if lst.starts is None:  # every run is one row
        return products
    best = products[lst.starts]
    np.maximum.at(best, lst.later_runs, products[lst.later_rows])
    return best


def _gamma(n: int, unit: float) -> float:
    """Relative error bound of an n-term dot product in any order, at unit roundoff ``unit``."""
    return n * unit / (1 - n * unit) if n * unit < 1 else math.inf


def _norm(vec: np.ndarray) -> float:
    """The float64 norm of one vector, from its `_dots` with itself."""
    return math.sqrt(_dots(vec[None, :], vec[None, :])[0, 0])


def _cls_candidates(
    index: CoilIndex, k: int, acc: np.ndarray | float, approx: np.ndarray, q_norm: float
) -> np.ndarray:
    """Ordinals, ascending, of every document whose score can reach the k-th
    best, from the float32 CLS products ``approx`` of a float32 cls vector
    of norm ``q_norm`` and the token sums ``acc``.

    See the module docstring for the bound and when every document is kept.
    """
    if k >= index.num_docs:
        return np.arange(index.num_docs)
    n = index.config.n_c
    rel = 2 * (_gamma(n, 2.0**-24) + _gamma(n, 2.0**-53))
    tiny = 2 * n * 2.0**-126
    big = float(np.finfo(np.float32).max)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = index.cls_norms * (rel * q_norm + tiny) + tiny * (q_norm + 1)
        centre = acc + approx
        width = bound + 2.0**-50 * (np.abs(centre) + bound)
        lo = centre - width
        hi = centre + width
        if not ((np.abs(lo) < big).all() and (np.abs(hi) < big).all()):  # NaN too
            return np.arange(index.num_docs)
    cut = np.float32(np.partition(lo, len(lo) - k)[len(lo) - k])
    return np.flatnonzero(hi.astype(np.float32) >= cut)


def _cls_dots(index: CoilIndex, q: EncodedQuery, rows: np.ndarray) -> np.ndarray:
    """`_dots` of ``q``'s cls vector with the CLS rows ``rows``, copying at
    most `_GATHER_ROWS` rows at a time."""
    vec = q.cls_vec[None, :]
    out = np.empty(len(rows), dtype=np.float64)
    for start in range(0, len(rows), _GATHER_ROWS):
        part = rows[start : start + _GATHER_ROWS]
        out[start : start + len(part)] = _dots(index.cls_matrix[part], vec)[0]
    return out


def _check_token_dims(q: EncodedQuery, d: EncodedDocument) -> None:
    if q.token_vecs.shape[1] != d.token_vecs.shape[1]:
        raise ValidationError(
            f"token dimension mismatch: query {q.token_vecs.shape[1]}, "
            f"document {d.token_vecs.shape[1]}"
        )


def _tok_score_f64(q: EncodedQuery, d: EncodedDocument) -> tuple[float, bool]:
    """Raw float64 exact-match score and whether any query token matched."""
    total = 0.0
    matched = False
    for i, tid in enumerate(q.token_ids):
        if tid == UNKNOWN_TOKEN_ID:
            continue
        rows = np.flatnonzero(d.token_ids == tid)
        if len(rows) == 0:
            continue
        matched = True
        total += float(_dots(d.token_vecs[rows], q.token_vecs[i : i + 1]).max())
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
    return float(_dots(d.cls_vec[None, :], q.cls_vec[None, :])[0, 0])


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


def _validate_query(index: CoilIndex, q: EncodedQuery, k: int, mode: str) -> None:
    """Raise unless ``index`` can rank ``q`` in ``mode``, then unless k >= 1.

    A full index serves every mode; a tok or cls_only index only its own.
    """
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
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")


def _search_block(
    index: CoilIndex, queries: Sequence[EncodedQuery], k: int, mode: str | None
) -> list[tuple[RankedList, SearchInstrumentation]]:
    """Rank a block of queries in order, with one float32 CLS product and one
    chunked float64 product of the kept CLS rows for the whole block.

    An invalid query ends the block: the queries before it are ranked, so
    their errors come first, and then its own error is raised, in the
    order a loop of single searches would raise them.
    """
    mode = index.config.mode if mode is None else mode
    error = None
    for n, q in enumerate(queries):
        try:
            _validate_query(index, q, k, mode)
        except ValidationError as exc:
            queries, error = queries[:n], exc
            break
    if mode == "tok":
        results = [_rank_tok(index, q, k) for q in queries]
    else:
        results = _rank_cls_block(index, queries, k, mode) if len(queries) else []
    if error is not None:
        raise error
    return results


def _scan_lists(
    index: CoilIndex, q: EncodedQuery
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """``q``'s float64 token-score accumulators, the ordinals of the
    documents they touch, and its lists_touched, postings_scanned and
    candidates counters."""
    num_docs = index.num_docs
    acc = np.zeros(num_docs, dtype=np.float64)
    touched = np.zeros(num_docs, dtype=bool)
    touched_tids: set[int] = set()
    scanned = 0
    for i, tid in enumerate(q.token_ids):
        if tid == UNKNOWN_TOKEN_ID:
            continue
        lst = index.lists.get(tid)
        if lst is None:
            continue
        if tid not in touched_tids:
            touched_tids.add(tid)
            scanned += len(lst)
        products = _run_maxima(_dots(lst.vectors, q.token_vecs[i : i + 1])[0], lst)
        acc[lst.ordinals] += products
        touched[lst.ordinals] = True
    ordinals = np.flatnonzero(touched)
    return acc, ordinals, (len(touched_tids), scanned, len(ordinals))


def _rank_tok(
    index: CoilIndex, q: EncodedQuery, k: int
) -> tuple[RankedList, SearchInstrumentation]:
    """Rank the documents that share a token with ``q`` by their token scores."""
    acc, keep, counters = _scan_lists(index, q)
    ranked = ranked_list_from_arrays(q.query_id, index.doc_table, acc[keep], k, keep)
    return ranked, SearchInstrumentation(*counters, 0)


def _rank_cls_block(
    index: CoilIndex, queries: Sequence[EncodedQuery], k: int, mode: str
) -> list[tuple[RankedList, SearchInstrumentation]]:
    """Rank a block of valid full or cls_only queries: prune the CLS rows
    with one float32 product, score the rows each query keeps with one
    float64 product over their union, and certify or rescore each score."""
    # an overflow here makes its query keep every row (`_cls_candidates`);
    # this orientation packs less and ran faster than block @ cls_matrix.T
    block = np.stack([q.cls_vec for q in queries])
    with np.errstate(over="ignore", invalid="ignore"):
        approx = (index.cls_matrix @ block.T).T
    pruned = []
    for q, q_approx in zip(queries, approx):
        if mode == "full":
            acc, _, counters = _scan_lists(index, q)
        else:  # no token sum: cls_only mode ranks the CLS dot itself
            acc, counters = 0.0, (0, 0, 0)
        q_norm = _norm(q.cls_vec)
        keep = _cls_candidates(index, k, acc, q_approx, q_norm)
        base = acc[keep] if mode == "full" else acc
        pruned.append((keep, base, q_norm, SearchInstrumentation(*counters, len(keep))))
    position, products = _kept_products(index, block, [keep for keep, _, _, _ in pruned])
    results = []
    for n, (q, (keep, base, q_norm, instr)) in enumerate(zip(queries, pruned)):
        cls = _certified_cls(index, q, base, keep, products[position[keep], n], q_norm)
        scores = cls if mode == "cls_only" else base + cls
        ranked = ranked_list_from_arrays(q.query_id, index.doc_table, scores, k, keep)
        results.append((ranked, instr))
    return results


def _products64(rows: np.ndarray, block64: np.ndarray) -> np.ndarray:
    """One float64 BLAS product of float32 CLS ``rows`` with a block's query
    cls vectors, shape (rows, queries); each cell lies within the module
    docstring's bound of its `_dots` value."""
    return rows.astype(np.float64) @ block64.T


def _kept_products(
    index: CoilIndex, block: np.ndarray, keeps: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """`_products64` of the float32 query ``block`` with the union of the CLS
    rows in ``keeps``, cast `_GATHER_ROWS` rows at a time: each document's
    position in that union, and the products, shape (union, queries)."""
    marked = np.zeros(index.num_docs, dtype=bool)
    for keep in keeps:
        marked[keep] = True
    union = np.flatnonzero(marked)
    block64 = block.astype(np.float64)
    products = np.empty((len(union), len(block64)), dtype=np.float64)
    for start in range(0, len(union), _GATHER_ROWS):
        rows = union[start : start + _GATHER_ROWS]
        products[start : start + len(rows)] = _products64(index.cls_matrix[rows], block64)
    return np.cumsum(marked) - 1, products


def _certified_cls(
    index: CoilIndex,
    q: EncodedQuery,
    base: np.ndarray | float,
    keep: np.ndarray,
    products: np.ndarray,
    q_norm: float,
) -> np.ndarray:
    """CLS values for the kept rows ``keep`` whose sum with their token
    scores ``base`` casts to the float32 score the `_dots` value gives: the
    float64 ``products`` where they certify that score, `_dots` elsewhere.
    ``q_norm`` is the norm of ``q``'s float32 cls vector.

    See the module docstring for the bound and why a certified 0 is rescored.
    """
    rel = 2 * 2 * _gamma(index.config.n_c, 2.0**-53)
    bound = index.cls_norms[keep] * (rel * q_norm)
    width = bound + 2.0**-50 * (np.abs(products) + bound)
    with np.errstate(over="ignore"):  # an end past the float32 range casts to inf, in order
        lo = (base + (products - width)).astype(np.float32)
        hi = (base + (products + width)).astype(np.float32)
    refused = np.flatnonzero((lo != hi) | (lo == 0))
    products[refused] = _cls_dots(index, q, keep[refused])
    return products


def search(
    index: CoilIndex, q: EncodedQuery, k: int, mode: str | None = None
) -> tuple[RankedList, SearchInstrumentation]:
    """Top-k retrieval over the inverted lists.

    Per query position, score its token's whole list with one `_dots`
    pass, reduce to per-document maxima with a segmented max, and add
    into float64 accumulators; full and cls_only modes add the CLS dot of
    every document that can reach the top k, which a float32 scan with a
    proven error bound picks.  tok mode ranks only documents that share at
    least one token with the query.  ``mode`` defaults to the index's own mode.
    This is `search_many` over a block of one query.
    """
    return _search_block(index, [q], k, mode)[0]


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
    """Rank many queries in blocks, optionally in a thread pool.

    The queries are cut into blocks of at most `_QUERY_BLOCK`, fewer when
    that gives every thread a block, and each block makes one float32 pass
    over the CLS matrix.  Results keep query order and equal those of `search`
    for any thread count: every score cell is computed the same way
    whatever block it falls in.  The first invalid query, in query order,
    raises the error `search` would.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    size = max(1, min(_QUERY_BLOCK, -(-len(queries) // threads)))
    blocks = [queries[start : start + size] for start in range(0, len(queries), size)]
    if threads == 1 or len(blocks) <= 1:
        return [r for block in blocks for r in _search_block(index, block, k, mode)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ranked = pool.map(lambda block: _search_block(index, block, k, mode), blocks)
        return [r for results in ranked for r in results]
