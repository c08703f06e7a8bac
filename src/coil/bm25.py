"""Classic term-frequency inverted index and BM25 scoring.

Serves as the lexical baseline and as the source of hard negatives.  It
shares the tokenizer and document truncation with the contextualized
pipeline so comparisons isolate the scoring model, and it uses the
Robertson and Sparck Jones smoothed idf ln((N - df + 0.5)/(df + 0.5) + 1),
which is nonnegative.

The index is built in two steps.  `build_bm25_index` reads the corpus once and
tokenizes it into two flat columns, one (token id, doc ordinal) row per kept
token.  `bm25_index_from_rows` turns such columns into the index: one stable
sort by token id, as for the contextualized index's lists, then one pass over
the runs of equal (token id, ordinal) rows, whose lengths are the tfs.
`bm25_search` accumulates per-ordinal float64 sums and ranks them with
``ranked_list_from_arrays``, the path and tie rule (score descending, then
doc id ascending) of tok-mode ``retrieval.search``.  As there, the ranker
checks that scores are finite, its sort of one key packing the score and
then the index's ``doc_rank`` gives the order, and ``Bm25Index`` rejects a
duplicate doc id when it is constructed.  Postings hold intp ordinals, as
the inverted lists do, so the scatter-add converts no index array.

A term's document weights ``h_d`` depend only on the index, k1 and b, so
the index keeps each used term's weights per (k1, b), computed on the
term's first use from its postings' own length norms (precomputed impacts,
after Anh and Moffat, SIGIR 2006).  The norm is computed element by element,
so these weights equal, bit for bit, weights gathered from a table of every
document's norm.  Each query still adds ``idf * h_q * h_d`` term by term,
the same expression in the same order, so its scores keep their bits.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .core import Document, RankedList, TokenSeq, ValidationError, as_score, rank_doc_ids
from .core import ranked_list_from_arrays
from .encoding import TokenizerConfig, UNKNOWN_TOKEN_ID, split_text
from .index import run_bounds


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75
    k2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k1", "b", "k2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.k1 < 0:
            raise ValidationError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")
        if self.k2 < 0:
            raise ValidationError(f"k2 must be >= 0, got {self.k2}")


@dataclass
class Bm25Index:
    """Postings are parallel arrays per token id; they do not change after build.

    ``avgdl`` is the mean of ``doc_len``, 0.0 for an empty corpus.  One
    cache, filled on first use, holds what every query would otherwise
    recompute: ``weights``, per ``(k1, b)``, each used term's float64
    document weights ``tf (1 + k1) / (tf + k1 norm)``, parallel to its
    postings, where ``norm = 1 - b + b * dl / avgdl``.  Threads that race to
    fill it store equal arrays.  Nothing is evicted: each ``(k1, b)`` a
    caller searches with keeps its table, up to one postings-sized float64
    array per term.
    """

    postings: dict[int, tuple[np.ndarray, np.ndarray]]  # tid -> (intp ordinals, int32 tfs)
    doc_len: np.ndarray  # (N,) int64, post-truncation token counts
    doc_table: list[str]
    avgdl: float = field(init=False)
    # doc_table's own strings as an object array, so ranking gathers them, not copies
    doc_ids: np.ndarray = field(init=False, repr=False, compare=False)
    doc_rank: np.ndarray = field(init=False, repr=False, compare=False)  # the ranker's tie key
    weights: dict[tuple[float, float], dict[int, np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.avgdl = float(self.doc_len.mean()) if len(self.doc_len) else 0.0
        self.doc_ids = np.array(self.doc_table, dtype=object)
        # raises on a duplicate doc id
        self.doc_rank = rank_doc_ids(np.asarray(self.doc_table, dtype=str))
        self.weights = {}

    @property
    def num_docs(self) -> int:
        return len(self.doc_table)

    def df(self, tid: int) -> int:
        """Number of documents that contain token id ``tid``."""
        return len(self.postings[tid][0])

    def ordinal_of(self, doc_id: str) -> int:
        try:
            return self.doc_table.index(doc_id)
        except ValueError:
            raise ValidationError(f"unknown doc id {doc_id!r}") from None


def build_bm25_index(
    docs: Iterable[Document],
    tokenizer: TokenizerConfig,
    max_doc_tokens: int = 512,
) -> Bm25Index:
    """Count term statistics over the tokenized, truncated corpus.

    Reads ``docs`` once, keeping only one flat token-id column, which
    :func:`bm25_index_from_rows` turns into the index.
    """
    if max_doc_tokens < 1:
        raise ValidationError(f"max_doc_tokens must be >= 1, got {max_doc_tokens}")
    doc_table: list[str] = []
    lengths: list[int] = []
    lookup, lowercase = tokenizer.vocab.get, tokenizer.lowercase

    def doc_token_ids():
        for doc in docs:
            doc_table.append(doc.id)
            tokens = split_text(doc.text, lowercase)[:max_doc_tokens]
            lengths.append(len(tokens))
            yield map(lookup, tokens, repeat(UNKNOWN_TOKEN_ID))

    tids = np.fromiter(chain.from_iterable(doc_token_ids()), dtype=np.int64)
    ords = np.repeat(np.arange(len(doc_table), dtype=np.int32), lengths)
    return bm25_index_from_rows(tids, ords, doc_table)


def bm25_index_from_rows(tids: np.ndarray, ords: np.ndarray, doc_table: list[str]) -> Bm25Index:
    """The index of the token occurrences ``(tids[i], ords[i])``.

    The rows of each token id must come in ascending ordinal order.
    Document length counts every row; postings skip the unknown token id,
    mirroring the lexical scorers' rule that out-of-vocabulary tokens match
    nothing.  A duplicate doc id raises when the index is constructed.
    """
    doc_len = np.bincount(ords, minlength=len(doc_table))
    known = tids != UNKNOWN_TOKEN_ID
    tids, ords = tids[known], ords[known]
    keys = tids
    if len(keys) and 0 <= keys.min() and keys.max() < 2**16:
        keys = keys.astype(np.uint16)  # numpy's stable sort is a radix sort for these
    # a stable sort keeps each token's rows in ordinal order
    order = np.argsort(keys, kind="stable")
    tids, ords = tids[order], ords[order]
    # one run per (token id, document); its length is the tf
    run_starts, run_ends = run_bounds(tids, ords)
    # intp ordinals, because numpy converts an index array of any other dtype
    # on every gather and scatter; int32 tfs, as a tf counts one document's tokens
    run_tids, run_ords = tids[run_starts], ords[run_starts].astype(np.intp)
    tfs = np.subtract(run_ends, run_starts, dtype=np.int32)
    starts, ends = run_bounds(run_tids)
    postings = {
        tid: (run_ords[start:end], tfs[start:end])
        for tid, start, end in zip(run_tids[starts].tolist(), starts.tolist(), ends.tolist())
    }
    return Bm25Index(postings=postings, doc_len=doc_len, doc_table=doc_table)


def _idf(index: Bm25Index, tid: int) -> float:
    df = index.df(tid)
    return math.log((index.num_docs - df + 0.5) / (df + 0.5) + 1.0)


def _h_q(tf_q: int, params: Bm25Params) -> float:
    return tf_q * (1.0 + params.k2) / (tf_q + params.k2)


def _length_norm(dl, index: Bm25Index, b: float):
    """Document length norm, for a scalar or an array of doc lengths."""
    return 1.0 - b + b * dl / index.avgdl


def _h_d(tf, norm, params: Bm25Params):
    """Document-side saturating tf, for scalars or arrays of (tf, length norm)."""
    return tf * (1.0 + params.k1) / (tf + params.k1 * norm)


def bm25_score_pair(
    query: TokenSeq, ordinal: int, index: Bm25Index, params: Bm25Params = Bm25Params()
) -> float:
    """BM25 score for one document: idf-weighted saturating tf over shared terms."""
    if not 0 <= ordinal < index.num_docs:
        raise ValidationError(f"doc ordinal {ordinal} out of range")
    dl = float(index.doc_len[ordinal])
    score = 0.0
    for tid, tf_q in sorted(Counter(query.token_ids).items()):
        if tid == UNKNOWN_TOKEN_ID or tid not in index.postings:
            continue
        ordinals, tfs = index.postings[tid]
        pos = int(np.searchsorted(ordinals, ordinal))
        if pos == len(ordinals) or ordinals[pos] != ordinal:
            continue
        h_d = _h_d(float(tfs[pos]), _length_norm(dl, index, params.b), params)
        score += _idf(index, tid) * _h_q(tf_q, params) * h_d
    return as_score(score)


def bm25_search(
    index: Bm25Index,
    query: TokenSeq,
    k: int,
    params: Bm25Params = Bm25Params(),
    query_id: str = "",
) -> RankedList:
    """Rank exactly the documents sharing at least one known query term."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    acc = np.zeros(index.num_docs, dtype=np.float64)
    touched = np.zeros(index.num_docs, dtype=bool)
    weights = index.weights.setdefault((params.k1, params.b), {})  # k2 is query-side only
    for tid, tf_q in sorted(Counter(query.token_ids).items()):
        if tid == UNKNOWN_TOKEN_ID or tid not in index.postings:
            continue
        idf = _idf(index, tid)
        h_q = _h_q(tf_q, params)
        ordinals, tf_d = index.postings[tid]
        h_d = weights.get(tid)
        if h_d is None:
            norm = _length_norm(index.doc_len[ordinals], index, params.b)
            h_d = weights[tid] = _h_d(tf_d, norm, params)
        acc[ordinals] += idf * h_q * h_d
        touched[ordinals] = True
    keep = np.flatnonzero(touched)
    return ranked_list_from_arrays(query_id, index.doc_ids, acc[keep], k, index.doc_rank, keep)


def sample_bm25_negatives(
    index: Bm25Index,
    query: TokenSeq,
    positive_ids: Sequence[str],
    depth: int = 1000,
    count: int = 7,
    seed: int = 0,
) -> list[str]:
    """Uniformly sample negatives from the top-depth BM25 ranking.

    Positives are always excluded; when fewer than `count` candidates
    remain, all of them are returned in rank order.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if depth < count:
        raise ValidationError(f"depth {depth} must be >= count {count}")
    positives = set(positive_ids)
    candidates: list[str] = []
    if depth >= 1:
        ranked = bm25_search(index, query, k=depth)
        candidates = [d for d in ranked.ids if d not in positives]
    if len(candidates) <= count:
        return candidates
    return random.Random(seed).sample(candidates, count)
