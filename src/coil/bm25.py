"""Classic term-frequency inverted index and BM25 scoring.

Serves as the lexical baseline and as the source of hard negatives.  It
shares the tokenizer and document truncation with the contextualized
pipeline so comparisons isolate the scoring model, and it uses the
Robertson and Sparck Jones smoothed idf ln((N - df + 0.5)/(df + 0.5) + 1),
which is nonnegative.

It also shares the inverted-list machinery: postings are grouped with
``index.group_by_key``, and `bm25_search` accumulates per-ordinal float64
sums and ranks them with ``ranked_list_from_arrays``, the path and tie rule
(score descending, then doc id ascending) of tok-mode ``retrieval.search``.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import Document, RankedList, TokenSeq, ValidationError, as_score
from .core import ranked_list_from_arrays
from .encoding import TokenizerConfig, UNKNOWN_TOKEN_ID, tokenize
from .index import group_by_key, run_bounds


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
    """Immutable after build; postings are parallel arrays per token id."""

    postings: dict[int, tuple[np.ndarray, np.ndarray]]  # tid -> (ordinals, tfs)
    doc_len: np.ndarray  # (N,) int64, post-truncation token counts
    avgdl: float
    doc_table: list[str]
    doc_ids: np.ndarray = field(init=False, repr=False, compare=False)  # doc_table as array

    def __post_init__(self) -> None:
        self.doc_ids = np.asarray(self.doc_table, dtype=str)

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

    Document length counts every kept token; postings skip the unknown
    token id, mirroring the lexical scorers' rule that out-of-vocabulary
    tokens match nothing.
    """
    if max_doc_tokens < 1:
        raise ValidationError(f"max_doc_tokens must be >= 1, got {max_doc_tokens}")
    doc_table: list[str] = []
    seen: set[str] = set()
    tid_parts = [np.empty(0, dtype=np.int64)]
    ord_parts = [np.empty(0, dtype=np.int32)]
    for ordinal, doc in enumerate(docs):
        if doc.id in seen:
            raise ValidationError(f"duplicate doc id {doc.id!r}")
        seen.add(doc.id)
        doc_table.append(doc.id)
        ids = tokenize(doc.text, tokenizer).token_ids[:max_doc_tokens]
        tid_parts.append(np.asarray(ids, dtype=np.int64))
        ord_parts.append(np.full(len(ids), ordinal, dtype=np.int32))

    tids, ords = np.concatenate(tid_parts), np.concatenate(ord_parts)
    known = tids != UNKNOWN_TOKEN_ID
    postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for tid, ordinals in group_by_key(tids[known], ords[known]):
        starts, ends = run_bounds(ordinals)  # one run per document; its length is the tf
        postings[tid] = (ordinals[starts], ends - starts)
    doc_len = np.bincount(ords, minlength=len(doc_table))
    return Bm25Index(
        postings=postings,
        doc_len=doc_len,
        avgdl=float(doc_len.mean()) if len(doc_len) else 0.0,
        doc_table=doc_table,
    )


def _idf(index: Bm25Index, tid: int) -> float:
    df = index.df(tid)
    return math.log((index.num_docs - df + 0.5) / (df + 0.5) + 1.0)


def _h_q(tf_q: int, params: Bm25Params) -> float:
    return tf_q * (1.0 + params.k2) / (tf_q + params.k2)


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
        tf_d = float(tfs[pos])
        h_d = (
            tf_d
            * (1.0 + params.k1)
            / (tf_d + params.k1 * (1.0 - params.b + params.b * dl / index.avgdl))
        )
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
    for tid, tf_q in sorted(Counter(query.token_ids).items()):
        if tid == UNKNOWN_TOKEN_ID or tid not in index.postings:
            continue
        idf = _idf(index, tid)
        h_q = _h_q(tf_q, params)
        ordinals, tf_d = index.postings[tid]
        dl = index.doc_len[ordinals]
        h_d = (
            tf_d
            * (1.0 + params.k1)
            / (tf_d + params.k1 * (1.0 - params.b + params.b * dl / index.avgdl))
        )
        acc[ordinals] += idf * h_q * h_d
        touched[ordinals] = True
    keep = np.flatnonzero(touched)
    return ranked_list_from_arrays(query_id, index.doc_ids[keep], acc[keep], k)


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
        candidates = [d for d, _ in ranked.entries if d not in positives]
    if len(candidates) <= count:
        return candidates
    return random.Random(seed).sample(candidates, count)
