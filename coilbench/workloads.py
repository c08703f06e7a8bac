"""Workload definitions and the seeded input generator.

The generator is independent of the test suite's helpers.  It makes
corpora over a fixed word list (uniform or Zipf-distributed), queries of
2-6 tokens drawn from one target document (about 10% get one extra
out-of-vocabulary token), and qrels naming each query's target as its only
relevant document.  The library only ever sees the files written here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

VOCAB_SIZE = 2000
DOC_TOKENS = (4, 24)
QUERY_TOKENS = (2, 6)
OOV_RATE = 0.1

# Encoder settings shared by every workload: the stub model's weights are
# part of the system under test, not of the workload, so they never vary.
N_LM = 768
N_T = 32
STUB_SEED = 0
K = 1000
EVAL_SPECS = ("mrr@10", "recall@1000", "ndcg@10")

# Each workload searches one fixed corpus, built once per checkout (a 10k
# document index takes ~40 s to encode and build); the seed picks the
# queries, their target documents, the OOV injection and the documents each
# round ingests.  The corpora are small enough that the three set-ups of a
# run leave most of it to the rounds.
CORPUS_SEED = 20210415


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # search mode
    n_c: int
    zipf_s: float | None  # None: uniform word distribution
    corpus_docs: int  # documents in the searched corpus
    ingest_docs: int  # documents through encode -> save per round
    batch_queries: int  # queries per round, in each query phase
    min_queries: int  # per-query latency samples required before stopping
    trace_rounds: int  # rounds in one traced or untraced trace pass

    @property
    def min_rounds(self) -> int:
        return -(-self.min_queries // self.batch_queries)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="query-full",
            mode="full",
            n_c=768,
            zipf_s=None,
            corpus_docs=5_000,
            ingest_docs=80,
            batch_queries=20,
            min_queries=200,
            trace_rounds=3,
        ),
        Workload(
            name="query-tok",
            mode="tok",
            n_c=0,
            zipf_s=1.0,
            corpus_docs=10_000,
            ingest_docs=80,
            batch_queries=20,
            min_queries=300,
            trace_rounds=6,
        ),
    )
}


def get_workload(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks it to a seconds-long run for tests."""
    w = WORKLOADS[name]
    if smoke:
        w = replace(
            w,
            corpus_docs=min(w.corpus_docs, 300),
            ingest_docs=min(w.ingest_docs, 30),
            batch_queries=10,
            min_queries=20,
            trace_rounds=1,
        )
    return w


def words(vocab_size: int = VOCAB_SIZE) -> list[str]:
    return [f"w{i:04d}" for i in range(vocab_size)]


def make_corpus(
    rng: np.random.Generator, num_docs: int, zipf_s: float | None
) -> list[tuple[str, str]]:
    """``num_docs`` (id, text) pairs of 4-24 tokens each."""
    vocab = words()
    lengths = rng.integers(DOC_TOKENS[0], DOC_TOKENS[1] + 1, num_docs)
    total = int(lengths.sum())
    if zipf_s is None:
        ids = rng.integers(0, len(vocab), total)
    else:
        weights = 1.0 / np.arange(1, len(vocab) + 1, dtype=np.float64) ** zipf_s
        ids = rng.choice(len(vocab), size=total, p=weights / weights.sum())
    docs = []
    start = 0
    for i, length in enumerate(lengths.tolist()):
        text = " ".join(vocab[j] for j in ids[start : start + length].tolist())
        docs.append((f"d{i:06d}", text))
        start += length
    return docs


def make_queries(
    rng: np.random.Generator, docs: list[tuple[str, str]], count: int
) -> list[tuple[str, str, str]]:
    """``count`` (query id, text, target doc id) triples.

    Each query keeps the document order of 2-6 token positions sampled
    without replacement from its target.
    """
    out = []
    for i in range(count):
        doc_id, text = docs[int(rng.integers(len(docs)))]
        tokens = text.split()
        n = min(int(rng.integers(QUERY_TOKENS[0], QUERY_TOKENS[1] + 1)), len(tokens))
        picked = np.sort(rng.choice(len(tokens), size=n, replace=False))
        query = [tokens[p] for p in picked.tolist()]
        if rng.random() < OOV_RATE:
            query.append(f"zz{int(rng.integers(1_000_000))}")
        out.append((f"q{i:05d}", " ".join(query), doc_id))
    return out


def write_jsonl(path: Path, records: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rid, text in records:
            fh.write(json.dumps({"id": rid, "text": text}) + "\n")


def write_qrels(path: Path, queries: list[tuple[str, str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, _, doc_id in queries:
            fh.write(f"{qid} 0 {doc_id} 1\n")


def read_jsonl(path: Path) -> list[tuple[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [(obj["id"], obj["text"]) for obj in map(json.loads, fh)]
