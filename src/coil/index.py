"""Contextualized inverted index: build, persist, load, summarize.

Every stored token occurrence is one row (token id, document ordinal,
n_t-wide vector).  Rows are kept sorted by (token id, document ordinal,
position), so each token's rows form one contiguous inverted list whose
ordinals are nondecreasing, and query-time scoring can reduce each list
with a single segmented max.  Document-level vectors are stacked into one
matrix addressed by ordinal.

On-disk layout, version 4 (all integers little-endian; see README for the
byte-level description):

* ``meta.json``   config, vocabulary, doc table, corpus checksum (CRC-32),
                  per-file CRC-32 checksums stored as ``crc32:%08x``,
                  encoder settings
* ``postings.bin``  three columns over the N sorted rows: N int32 token ids,
                  N int32 doc ordinals, then N x n_t float32 vectors
                  (``8 + 4 * n_t`` bytes per row; N follows from the size)
* ``cls.bin``     float32 matrix, one row per document ordinal
                  (absent when n_c = 0)
"""
from __future__ import annotations

import json
import zlib
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import (
    CoilConfig,
    EncodedDocument,
    FormatError,
    ValidationError,
    atomic_writer,
    check_encoded_dims,
    check_fields,
    check_id,
    config_from_meta,
    read_json,
    validate_config,
)
from .encoding import vocab_from_meta
from .encoding import fnv1a64  # noqa: F401  (unused here; coilbench/tracing.py wraps this name)

INDEX_FORMAT = "coil-index"
INDEX_VERSION = 4

META_FILE = "meta.json"
POSTINGS_FILE = "postings.bin"
CLS_FILE = "cls.bin"


class ChecksumError(FormatError):
    """Stored checksum does not match the file contents."""


def _posting_row_bytes(n_t: int) -> int:
    """Bytes one occurrence takes in postings.bin: an int32 token id, an int32
    doc ordinal and an n_t float32 vector."""
    return 8 + 4 * n_t


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


def _lists_from_rows(
    tids: np.ndarray, refs: np.ndarray, vecs: np.ndarray
) -> dict[int, InvertedList]:
    """One InvertedList per token id from rows sorted by (token id, ordinal, position)."""
    starts, ends = run_bounds(tids)
    return {
        tid: InvertedList(tid, vecs[start:end], refs[start:end])
        for tid, start, end in zip(tids[starts].tolist(), starts.tolist(), ends.tolist())
    }


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
    lengths: list[int] = []
    tid_parts = [np.empty(0, dtype=np.int32)]
    vec_parts = [np.empty((0, n_t), dtype=np.float32)]
    cls_rows = [np.empty((0, n_c), dtype=np.float32)]

    for doc in docs:
        if doc.doc_id in seen_ids:
            raise ValidationError(f"duplicate doc id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        check_encoded_dims(f"document {doc.doc_id!r}", doc, n_t, n_c)
        doc_table.append(doc.doc_id)
        lengths.append(len(doc.token_ids))
        tid_parts.append(np.asarray(doc.token_ids, dtype=np.int32))
        vec_parts.append(np.asarray(doc.token_vecs, dtype=np.float32))
        if n_c >= 1:
            cls_rows.append(np.asarray(doc.cls_vec, dtype=np.float32).reshape(1, n_c))

    tids = np.concatenate(tid_parts)
    counts = np.asarray(lengths, dtype=np.int32)
    refs = np.repeat(np.arange(len(doc_table), dtype=np.int32), counts)
    vecs = np.concatenate(vec_parts)
    cls_matrix = np.concatenate(cls_rows) if n_c >= 1 else None

    checksum = zlib.crc32("\n".join(doc_table).encode("utf-8"), zlib.crc32(b"coil-corpus"))
    for column in (counts, tids, vecs, cls_matrix):
        if column is not None:
            checksum = zlib.crc32(column, checksum)

    # a stable sort keeps each token's rows in (ordinal, position) order
    order = np.argsort(tids, kind="stable")
    return CoilIndex(
        config=config,
        lists=_lists_from_rows(tids[order], refs[order], vecs[order]),
        cls_matrix=cls_matrix,
        doc_table=doc_table,
        vocab=dict(vocab) if vocab else {},
        corpus_checksum=checksum,
        encoder_meta=encoder_meta,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def file_checksum(*buffers) -> str:
    """The checksum meta.json stores for a binary file made of ``buffers``:
    CRC-32 over their bytes in order, tagged with the algorithm."""
    crc = 0
    for buffer in buffers:
        crc = zlib.crc32(buffer, crc)
    return f"crc32:{crc:08x}"


def save_index(index: CoilIndex, dir_path: str | Path) -> None:
    """Write meta.json, postings.bin and (when n_c >= 1) cls.bin.

    Each file goes through :func:`~coil.core.atomic_writer`, and all of them
    are replaced only once every one is written: the binaries first and
    meta.json last.  A reader that finds an earlier index's meta.json beside
    new binaries fails its checksum check, and a failed save leaves no
    temporary file behind.
    """
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    lists = [index.lists[tid] for tid in sorted(index.lists)]
    tids = np.repeat([lst.token_id for lst in lists], [len(lst) for lst in lists])
    refs = np.concatenate([np.empty(0, np.int32)] + [lst.doc_refs for lst in lists])
    vecs = np.concatenate(
        [np.empty((0, index.config.n_t), np.float32)] + [lst.vectors for lst in lists]
    )
    files = {
        POSTINGS_FILE: [
            np.ascontiguousarray(column, dtype=dtype)
            for column, dtype in ((tids, "<i4"), (refs, "<i4"), (vecs, "<f4"))
        ]
    }
    if index.cls_matrix is not None:
        files[CLS_FILE] = [np.ascontiguousarray(index.cls_matrix, dtype="<f4")]

    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "config": asdict(index.config),
        "doc_table": index.doc_table,
        "vocab": index.vocab,
        "corpus_checksum": f"{index.corpus_checksum:08x}",
        "checksums": {name: file_checksum(*columns) for name, columns in files.items()},
        "encoder_meta": index.encoder_meta,
    }

    # an ExitStack leaves its writers in reverse order, so the files are
    # replaced in the order postings.bin, cls.bin, meta.json
    with ExitStack() as stack:
        stack.enter_context(atomic_writer(out / META_FILE)).write(
            json.dumps(meta, sort_keys=True) + "\n"
        )
        for name in reversed(files):
            fh = stack.enter_context(atomic_writer(out / name, binary=True))
            for column in files[name]:
                fh.write(column)
    if index.cls_matrix is None:  # an earlier full index must not leave its CLS rows behind
        (out / CLS_FILE).unlink(missing_ok=True)


def _read_rows(
    path: Path, checksums: dict, row_bytes: int, layout: str, expected_rows: int | None = None
) -> tuple[bytes, int]:
    """Read a binary index file of fixed-size rows and count them, checking
    the size first (whole rows, as many as expected), then the checksum."""
    blob = path.read_bytes()
    rows, rest = divmod(len(blob), row_bytes)
    if rest or expected_rows not in (None, rows):
        raise FormatError(f"{path}: size {len(blob)} does not fit {layout}")
    stored = checksums.get(path.name)
    actual = file_checksum(blob)
    if actual != stored:
        raise ChecksumError(f"{path}: checksum mismatch (stored {stored}, computed {actual})")
    return blob, rows


_META_TYPES = {
    "format": str,
    "version": int,
    "config": dict,
    "doc_table": list,
    "vocab": dict,
    "corpus_checksum": str,
    "checksums": dict,
    "encoder_meta": (dict, type(None)),
}


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
    vocab = vocab_from_meta(meta["vocab"], f"{meta_path}: vocab")
    try:
        corpus_checksum = int(meta["corpus_checksum"], 16)
    except ValueError as exc:
        raise FormatError(f"{meta_path}: corpus_checksum is not hexadecimal") from exc

    postings_path = root / POSTINGS_FILE
    row_bytes = _posting_row_bytes(n_t)
    blob, n = _read_rows(
        postings_path,
        meta["checksums"],
        row_bytes,
        f"whole {row_bytes}-byte rows for n_t={n_t}; truncated file or wrong n_t",
    )
    tids = np.frombuffer(blob, dtype="<i4", count=n)
    refs = np.frombuffer(blob, dtype="<i4", count=n, offset=4 * n)
    vecs = np.frombuffer(blob, dtype="<f4", count=n * n_t, offset=8 * n).reshape(n, n_t)
    if np.any(tids[1:] < tids[:-1]):
        raise FormatError(f"{postings_path}: token ids decrease")
    # search's segmented max (np.maximum.reduceat) relies on this order
    decreasing = np.flatnonzero((refs[1:] < refs[:-1]) & (tids[1:] == tids[:-1]))
    if len(decreasing):
        raise FormatError(
            f"{postings_path}: doc ordinals decrease in list {tids[decreasing[0]]}"
        )
    outside = np.flatnonzero((refs < 0) | (refs >= num_docs))
    if len(outside):
        raise FormatError(
            f"{postings_path}: doc ordinal out of range in list {tids[outside[0]]}"
        )

    cls_matrix = None
    if n_c >= 1:
        cls_blob, _ = _read_rows(
            root / CLS_FILE,
            meta["checksums"],
            4 * n_c,
            f"{num_docs} docs x n_c={n_c}",
            expected_rows=num_docs,
        )
        cls_matrix = np.frombuffer(cls_blob, dtype="<f4").reshape(num_docs, n_c)

    return CoilIndex(
        config=cfg,
        lists=_lists_from_rows(tids, refs, vecs),
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
