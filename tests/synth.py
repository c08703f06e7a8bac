"""Random corpus and query generation shared by the test modules.

Everything flows through the public pipeline: text -> vocabulary ->
deterministic encoder -> index, so generated instances exercise the same
code paths as the CLI.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from coil import (
    CoilConfig,
    CoilIndex,
    Document,
    EncodedDocument,
    EncodedQuery,
    Query,
    StubContextualizerConfig,
    TokenizerConfig,
    build_index,
    build_vocab,
    encode_document,
    encode_query,
    seeded_projection,
)


@dataclass
class Instance:
    docs: list[Document]
    queries: list[Query]
    enc_docs: list[EncodedDocument]
    enc_queries: list[EncodedQuery]
    index: CoilIndex
    tokenizer: TokenizerConfig
    config: CoilConfig


def random_texts(
    rng: np.random.Generator,
    count: int,
    vocab_size: int,
    max_len: int,
    min_len: int = 1,
) -> list[str]:
    words = [f"w{i}" for i in range(vocab_size)]
    texts = []
    for _ in range(count):
        length = int(rng.integers(min_len, max_len + 1))
        texts.append(" ".join(words[int(j)] for j in rng.integers(0, vocab_size, length)))
    return texts


def make_instance(
    seed: int,
    num_docs: int = 50,
    vocab_size: int = 40,
    max_doc_len: int = 24,
    num_queries: int = 10,
    max_query_len: int = 6,
    n_lm: int = 16,
    n_t: int = 6,
    n_c: int = 4,
    oov_rate: float = 0.1,
    allow_empty_doc: bool = False,
) -> Instance:
    """Build a full random instance; n_c=0 disables the CLS side."""
    rng = np.random.default_rng(seed)
    texts = random_texts(
        rng, num_docs, vocab_size, max_doc_len, min_len=0 if allow_empty_doc else 1
    )
    docs = [Document(f"d{i:05d}", t) for i, t in enumerate(texts)]
    mode = "full" if n_t >= 1 and n_c >= 1 else ("tok" if n_t >= 1 else "cls_only")
    config = CoilConfig(n_lm=n_lm, n_t=n_t, n_c=n_c, mode=mode)
    tokenizer = build_vocab((d.text for d in docs))
    stub = StubContextualizerConfig(seed=seed)
    params = seeded_projection(config, seed)
    enc_docs = [encode_document(d, tokenizer, stub, params, config) for d in docs]
    index = build_index(enc_docs, config)

    query_texts = random_texts(rng, num_queries, vocab_size, max_query_len)
    if oov_rate > 0:
        query_texts = [
            t + " zzunseen" if rng.random() < oov_rate else t for t in query_texts
        ]
    queries = [Query(f"q{i:04d}", t) for i, t in enumerate(query_texts)]
    enc_queries = [encode_query(q, tokenizer, stub, params, config) for q in queries]
    return Instance(docs, queries, enc_docs, enc_queries, index, tokenizer, config)


def coil_enc_record(doc_id, token_ids, token_vecs, cls_vec=None) -> bytes:
    """One coil-enc record framed by hand, independently of ``write_encoded``:
    the id's byte length and the token count as ``<u4``, then the id (a str
    is UTF-8 encoded, bytes are written as given), the ``<i4`` token ids and
    the ``<f4`` token vectors, then the ``<f4`` cls_vec when one is given."""
    if isinstance(doc_id, str):
        doc_id = doc_id.encode("utf-8")
    token_ids = np.asarray(token_ids, "<i4")
    record = np.array([len(doc_id), len(token_ids)], "<u4").tobytes() + doc_id
    record += token_ids.tobytes() + np.asarray(token_vecs, "<f4").tobytes()
    if cls_vec is not None:
        record += np.asarray(cls_vec, "<f4").tobytes()
    return record


def coil_enc_bytes(header: dict, *records: bytes) -> bytes:
    """A coil-enc file: the JSON header line, then the records."""
    return json.dumps(header).encode() + b"\n" + b"".join(records)
