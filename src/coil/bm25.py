"""Classic term-frequency inverted index and BM25 scoring.

Serves as the lexical baseline and as the source of hard negatives.  It
shares the tokenizer and document truncation with the contextualized
pipeline so comparisons isolate the scoring model, and it uses the
Robertson and Sparck Jones smoothed idf ln((N - df + 0.5)/(df + 0.5) + 1),
which is nonnegative.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import Document, RankedList, TokenSeq, ValidationError, as_score
from .encoding import TokenizerConfig, UNKNOWN_TOKEN_ID, tokenize


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
    lengths: list[int] = []
    per_token: dict[int, list[tuple[int, int]]] = {}
    for ordinal, doc in enumerate(docs):
        if doc.id in seen:
            raise ValidationError(f"duplicate doc id {doc.id!r}")
        seen.add(doc.id)
        doc_table.append(doc.id)
        ids = tokenize(doc.text, tokenizer).token_ids[:max_doc_tokens]
        lengths.append(len(ids))
        for tid, tf in sorted(Counter(ids).items()):
            if tid == UNKNOWN_TOKEN_ID:
                continue
            per_token.setdefault(tid, []).append((ordinal, tf))

    postings = {
        tid: (
            np.asarray([o for o, _ in rows], dtype=np.int32),
            np.asarray([tf for _, tf in rows], dtype=np.int64),
        )
        for tid, rows in per_token.items()
    }
    doc_len = np.asarray(lengths, dtype=np.int64)
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
    acc: dict[int, float] = {}
    for tid, tf_q in sorted(Counter(query.token_ids).items()):
        if tid == UNKNOWN_TOKEN_ID or tid not in index.postings:
            continue
        idf = _idf(index, tid)
        h_q = _h_q(tf_q, params)
        ordinals, tfs = index.postings[tid]
        for ordinal, tf_d in zip(ordinals.tolist(), tfs.tolist()):
            dl = float(index.doc_len[ordinal])
            h_d = (
                tf_d
                * (1.0 + params.k1)
                / (tf_d + params.k1 * (1.0 - params.b + params.b * dl / index.avgdl))
            )
            acc[ordinal] = acc.get(ordinal, 0.0) + idf * h_q * h_d
    pairs = [(index.doc_table[o], as_score(s)) for o, s in acc.items()]
    return RankedList.from_scores(query_id, pairs, k)


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
