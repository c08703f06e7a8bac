"""Contextualized inverted index: build, persist, load, summarize.

Every stored token occurrence lands in exactly one row of exactly one
per-token vector block, ordered by (document ordinal, position) so the
scatter targets are nondecreasing and query-time scoring can reduce each
block with a single segmented max.  Document-level vectors are stacked
into one matrix addressed by ordinal.

On-disk layout (all integers little-endian; see README for the byte-level
description):

* ``meta.json``   config, vocabulary, doc table, per-list directory,
                  corpus checksum, per-file FNV-1a checksums
* ``postings.bin``  for each token id in ascending order: int32 doc
                  ordinals then float32 occurrence vectors
* ``cls.bin``     float32 matrix, one row per document ordinal
                  (absent when n_c = 0)
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import (
    CoilConfig,
    EncodedDocument,
    FormatError,
    ValidationError,
    check_encoded_dims,
    check_fields,
    check_id,
    config_from_meta,
    read_json,
    validate_config,
)
from .encoding import fnv1a64, vocab_from_meta

INDEX_FORMAT = "coil-index"
INDEX_VERSION = 1

META_FILE = "meta.json"
POSTINGS_FILE = "postings.bin"
CLS_FILE = "cls.bin"


class ChecksumError(FormatError):
    """Stored checksum does not match the file contents."""


def _posting_row_bytes(n_t: int) -> int:
    """Bytes one occurrence takes in postings.bin: an int32 ref and an n_t float32 vector."""
    return 4 + 4 * n_t


@dataclass
class InvertedList:
    """All stored occurrences of one token id.

    ``vectors`` holds one row per occurrence (the transpose of the
    n_t-by-N stacked form), parallel to ``doc_refs``; rows appear in
    (document ordinal, position) order, so ``doc_refs`` is nondecreasing.
    """

    token_id: int
    vectors: np.ndarray  # (n_occurrences, n_t) float32
    doc_refs: np.ndarray  # (n_occurrences,) int32, nondecreasing
    # (starts, ordinals), set by one assignment so threads never see half of it
    _segments: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.doc_refs)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start offsets and document ordinals of the per-document row runs."""
        segments = self._segments
        if segments is None:
            starts, _ = run_bounds(self.doc_refs)
            segments = self._segments = (starts, self.doc_refs[starts])
        return segments


@dataclass
class CoilIndex:
    config: CoilConfig
    lists: dict[int, InvertedList]
    cls_matrix: np.ndarray | None  # (num_docs, n_c) float32, row per ordinal
    doc_table: list[str]  # ordinal -> doc_id
    vocab: dict[str, int]
    corpus_checksum: int
    encoder_meta: dict | None = None  # provenance needed to encode text queries
    doc_ids: np.ndarray = field(init=False, repr=False, compare=False)  # doc_table as array

    def __post_init__(self) -> None:
        self.doc_ids = np.asarray(self.doc_table, dtype=str)

    @property
    def num_docs(self) -> int:
        return len(self.doc_table)


@dataclass
class IndexStats:
    num_docs: int
    num_lists: int
    total_postings: int
    bytes_on_disk: int
    list_size_histogram: dict[int, int]  # occurrences-per-list -> lists, ascending


def run_bounds(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the runs of equal values in a sorted array."""
    if len(sorted_keys) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    changes = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.concatenate(([0], changes)), np.concatenate((changes, [len(sorted_keys)]))


def group_by_key(keys: np.ndarray, *columns: np.ndarray) -> Iterator[tuple]:
    """Yield ``(key, *column slices)`` per distinct key, ascending; rows keep input order."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    columns = tuple(column[order] for column in columns)
    for start, end in zip(*run_bounds(keys)):
        yield (int(keys[start]), *(column[start:end] for column in columns))


def _doc_checksum(state: int, doc: EncodedDocument) -> int:
    state = fnv1a64(doc.doc_id.encode("utf-8"), state)
    state = fnv1a64(np.ascontiguousarray(doc.token_ids, dtype=np.int32).tobytes(), state)
    state = fnv1a64(np.ascontiguousarray(doc.token_vecs, dtype=np.float32).tobytes(), state)
    if doc.cls_vec is not None:
        state = fnv1a64(np.ascontiguousarray(doc.cls_vec, dtype=np.float32).tobytes(), state)
    return state


def build_index(
    docs: Iterable[EncodedDocument],
    config: CoilConfig,
    vocab: dict[str, int] | None = None,
    encoder_meta: dict | None = None,
) -> CoilIndex:
    """Group every encoded token occurrence into its token's list.

    Documents keep their input order as ordinals; a document with no
    tokens still occupies an ordinal (and a CLS row when n_c >= 1).
    """
    validate_config(config)
    n_t, n_c = config.n_t, config.n_c
    doc_table: list[str] = []
    seen_ids: set[str] = set()
    tid_parts = [np.empty(0, dtype=np.int64)]
    ref_parts = [np.empty(0, dtype=np.int32)]
    vec_parts = [np.empty((0, n_t), dtype=np.float32)]
    cls_rows: list[np.ndarray] = []
    checksum = fnv1a64(b"coil-corpus")

    for ordinal, doc in enumerate(docs):
        if doc.doc_id in seen_ids:
            raise ValidationError(f"duplicate doc id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        check_encoded_dims(f"document {doc.doc_id!r}", doc, n_t, n_c)
        if n_c >= 1:
            cls_rows.append(np.ascontiguousarray(doc.cls_vec, dtype=np.float32))
        doc_table.append(doc.doc_id)
        checksum = _doc_checksum(checksum, doc)
        tid_parts.append(np.asarray(doc.token_ids, dtype=np.int64))
        ref_parts.append(np.full(len(doc.token_ids), ordinal, dtype=np.int32))
        vec_parts.append(np.asarray(doc.token_vecs, dtype=np.float32))

    # rows enter in (ordinal, position) order, the order each list keeps
    groups = group_by_key(
        np.concatenate(tid_parts), np.concatenate(ref_parts), np.concatenate(vec_parts)
    )
    lists = {tid: InvertedList(tid, vecs, refs) for tid, refs, vecs in groups}

    cls_matrix = None
    if n_c >= 1:
        cls_matrix = (
            np.vstack(cls_rows) if cls_rows else np.empty((0, n_c), dtype=np.float32)
        )
    return CoilIndex(
        config=config,
        lists=lists,
        cls_matrix=cls_matrix,
        doc_table=doc_table,
        vocab=dict(vocab) if vocab else {},
        corpus_checksum=checksum,
        encoder_meta=encoder_meta,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(index: CoilIndex, dir_path: str | Path) -> None:
    """Write meta.json, postings.bin and (when n_c >= 1) cls.bin."""
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    n_t = index.config.n_t

    postings_chunks: list[bytes] = []
    directory: list[list[int]] = []
    for tid in sorted(index.lists):
        lst = index.lists[tid]
        directory.append([tid, len(lst)])
        postings_chunks.append(np.ascontiguousarray(lst.doc_refs, dtype=np.int32).tobytes())
        postings_chunks.append(
            np.ascontiguousarray(lst.vectors, dtype=np.float32).tobytes()
        )
    postings_blob = b"".join(postings_chunks)
    (out / POSTINGS_FILE).write_bytes(postings_blob)
    checksums = {POSTINGS_FILE: f"{fnv1a64(postings_blob):016x}"}

    if index.cls_matrix is not None:
        cls_blob = np.ascontiguousarray(index.cls_matrix, dtype=np.float32).tobytes()
        (out / CLS_FILE).write_bytes(cls_blob)
        checksums[CLS_FILE] = f"{fnv1a64(cls_blob):016x}"

    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "config": asdict(index.config),
        "num_docs": index.num_docs,
        "doc_table": index.doc_table,
        "vocab": index.vocab,
        "lists": directory,
        "corpus_checksum": f"{index.corpus_checksum:016x}",
        "checksums": checksums,
        "encoder_meta": index.encoder_meta,
    }
    (out / META_FILE).write_text(
        json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def _read_checked(path: Path, checksums: dict, expected_size: int, layout: str) -> bytes:
    """Read a binary index file, checking its size first, then its checksum."""
    blob = path.read_bytes()
    if len(blob) != expected_size:
        raise FormatError(
            f"{path}: size {len(blob)} does not match meta (expected {expected_size} {layout})"
        )
    stored = checksums.get(path.name)
    actual = f"{fnv1a64(blob):016x}"
    if actual != stored:
        raise ChecksumError(f"{path}: checksum mismatch (stored {stored}, computed {actual})")
    return blob


_META_TYPES = {
    "format": str,
    "version": int,
    "config": dict,
    "num_docs": int,
    "doc_table": list,
    "vocab": dict,
    "lists": list,
    "corpus_checksum": str,
    "checksums": dict,
    "encoder_meta": (dict, type(None)),
}


def _is_list_entry(entry: object) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and type(entry[0]) is int
        and type(entry[1]) is int
        and entry[1] >= 0
    )


def load_index(dir_path: str | Path) -> CoilIndex:
    """Load a saved index; matrices compare bitwise-equal to the saved ones."""
    root = Path(dir_path)
    meta_path = root / META_FILE
    meta = read_json(meta_path)
    if not isinstance(meta, dict) or meta.get("format") != INDEX_FORMAT:
        raise FormatError(f"{meta_path}: not a {INDEX_FORMAT} directory")
    if meta.get("version") != INDEX_VERSION:
        raise FormatError(f"{meta_path}: unsupported version {meta.get('version')!r}")
    check_fields(meta, _META_TYPES, str(meta_path))
    cfg = config_from_meta(meta["config"], f"{meta_path}: config")
    n_t, n_c = cfg.n_t, cfg.n_c
    doc_table = meta["doc_table"]
    num_docs = len(doc_table)
    try:
        for doc_id in doc_table:
            check_id("document", doc_id)
    except ValidationError as exc:
        raise FormatError(f"{meta_path}: doc_table entries: {exc}") from exc
    if len(set(doc_table)) != num_docs:
        raise FormatError(f"{meta_path}: doc_table holds a duplicate doc id")
    if meta["num_docs"] != num_docs:
        raise FormatError(f"{meta_path}: num_docs disagrees with doc_table")
    vocab = vocab_from_meta(meta["vocab"], f"{meta_path}: vocab")
    try:
        corpus_checksum = int(meta["corpus_checksum"], 16)
    except ValueError as exc:
        raise FormatError(f"{meta_path}: corpus_checksum is not hexadecimal") from exc
    directory = meta["lists"]
    if not all(_is_list_entry(entry) for entry in directory):
        raise FormatError(f"{meta_path}: lists must hold [token_id, n_occurrences] pairs")

    postings_path = root / POSTINGS_FILE
    blob = _read_checked(
        postings_path,
        meta["checksums"],
        _posting_row_bytes(n_t) * sum(n for _, n in directory),
        f"for n_t={n_t}; truncated file or wrong n_t",
    )
    lists: dict[int, InvertedList] = {}
    offset = 0
    for tid, n_occ in directory:
        refs = np.frombuffer(blob, dtype="<i4", count=n_occ, offset=offset)
        offset += 4 * n_occ
        vecs = np.frombuffer(blob, dtype="<f4", count=n_occ * n_t, offset=offset)
        offset += 4 * n_occ * n_t
        # search's segmented max (np.maximum.reduceat) relies on this order
        if np.any(refs[1:] < refs[:-1]):
            raise FormatError(f"{postings_path}: doc ordinals decrease in list {tid}")
        if n_occ and (refs[0] < 0 or refs[-1] >= num_docs):
            raise FormatError(f"{postings_path}: doc ordinal out of range in list {tid}")
        lists[tid] = InvertedList(tid, vecs.reshape(n_occ, n_t), refs)

    cls_matrix = None
    if n_c >= 1:
        cls_blob = _read_checked(
            root / CLS_FILE,
            meta["checksums"],
            4 * n_c * num_docs,
            f"for {num_docs} docs x n_c={n_c}",
        )
        cls_matrix = np.frombuffer(cls_blob, dtype="<f4").reshape(num_docs, n_c)

    return CoilIndex(
        config=cfg,
        lists=lists,
        cls_matrix=cls_matrix,
        doc_table=doc_table,
        vocab=vocab,
        corpus_checksum=corpus_checksum,
        encoder_meta=meta["encoder_meta"],
    )


def index_stats(index: CoilIndex) -> IndexStats:
    """Pure summary; bytes_on_disk is the exact size the binary files occupy."""
    total = sum(len(lst) for lst in index.lists.values())
    histogram: dict[int, int] = {}
    for lst in index.lists.values():
        histogram[len(lst)] = histogram.get(len(lst), 0) + 1
    disk = total * _posting_row_bytes(index.config.n_t)
    if index.cls_matrix is not None:
        disk += 4 * index.config.n_c * index.num_docs
    return IndexStats(
        num_docs=index.num_docs,
        num_lists=len(index.lists),
        total_postings=total,
        bytes_on_disk=disk,
        list_size_histogram=dict(sorted(histogram.items())),
    )
