"""Contextualized inverted index: build, persist, load, summarize.

Every stored token occurrence is one row (token id, document ordinal,
n_t-wide vector).  Rows are kept sorted by (token id, document ordinal,
position), so each token's rows form one contiguous inverted list whose
ordinals are nondecreasing, and query-time scoring can reduce each list
with a single segmented max.  The index holds the rows as the three
columns postings.bin stores, and builds its lists as slices of them.
Document-level vectors are stacked into one matrix addressed by ordinal.

On-disk layout, version 5 (all integers little-endian; see README for the
byte-level description):

* ``meta.json``   config, doc table, corpus checksum (CRC-32), per-file
                  CRC-32 checksums stored as ``crc32:%08x``, encoder
                  settings (which hold the vocabulary)
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
from typing import Iterable

import numpy as np

from .core import (
    CoilConfig,
    DocTable,
    EncodedDocument,
    FormatError,
    ValidationError,
    atomic_writer,
    check_encoded_dims,
    check_fields,
    config_from_meta,
    read_json,
)
from .encoding import fnv1a64  # noqa: F401  (unused here; coilbench/tracing.py wraps this name)

INDEX_FORMAT = "coil-index"
INDEX_VERSION = 5

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
    ``starts`` and ``ordinals`` describe its per-document row runs, the
    segments of search's segmented max: the offset where each run begins
    and the document it belongs to.  ``later_rows`` holds the offset of
    every other row, the later occurrences in a document, ascending, and
    ``later_runs`` the run each one belongs to; search takes each run's
    first row and folds the later rows in with ``np.maximum.at``.  In a
    list where no document holds the token twice every run is one row, so
    ``starts``, ``later_rows`` and ``later_runs`` are None and ``ordinals``
    equals ``doc_refs``.  Every index column search uses is intp, which
    numpy indexes with as it is: ``ordinals`` is a slice of one column of
    run ordinals per index, held beside the int32 ``doc_refs``.
    """

    vectors: np.ndarray  # (n_occurrences, n_t) float32
    doc_refs: np.ndarray  # (n_occurrences,) int32, nondecreasing
    starts: np.ndarray | None = field(repr=False)  # (n_runs,) intp offsets, ascending
    ordinals: np.ndarray = field(repr=False)  # (n_runs,) intp, doc_refs[starts]
    later_rows: np.ndarray | None = field(repr=False)  # (n_later,) intp offsets, ascending
    later_runs: np.ndarray | None = field(repr=False)  # (n_later,) intp, the run of each

    def __len__(self) -> int:
        return len(self.doc_refs)


@dataclass
class CoilIndex:
    """An index held as the three postings.bin columns, rows sorted by
    (token id, document ordinal, position).

    ``lists`` maps each token id to its :class:`InvertedList`, whose
    ``vectors`` and ``doc_refs`` are slices of the rows; it is built from
    them on construction, and :func:`save_index` writes the rows as they are.
    Construction first checks the column shapes, types and the order the
    lists rely on, raising ValidationError: ``doc_refs`` is as long as
    ``token_ids``, ``vectors`` is (N, n_t), ``cls_matrix`` is (num_docs, n_c)
    and None exactly when n_c = 0, ``token_ids`` and ``doc_refs`` hold 4-byte
    integers and the matrices 4-byte floats (the CLS scan's error bound
    assumes float32 rows), token ids never decrease, ordinals never decrease
    within a token id, and every ordinal names a document of ``doc_table``.
    """

    config: CoilConfig
    token_ids: np.ndarray  # (N,) int32, nondecreasing
    doc_refs: np.ndarray  # (N,) int32, nondecreasing within each token id
    vectors: np.ndarray  # (N, n_t) float32
    cls_matrix: np.ndarray | None  # (num_docs, n_c) float32, row per ordinal
    doc_table: DocTable  # ordinal -> doc_id
    corpus_checksum: int
    encoder_meta: dict | None = None  # provenance needed to encode text queries
    lists: dict[int, InvertedList] = field(init=False, repr=False, compare=False)
    # float64 Euclidean norm of each CLS row, for the CLS scan's error bound
    cls_norms: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, n_c = len(self.token_ids), self.config.n_c
        for name, column, kind, expected in (
            ("token_ids", self.token_ids, "i4", (n,)),
            ("doc_refs", self.doc_refs, "i4", (n,)),
            ("vectors", self.vectors, "f4", (n, self.config.n_t)),
            ("cls_matrix", self.cls_matrix, "f4", (self.num_docs, n_c) if n_c else None),
        ):
            actual = None if column is None else column.shape
            if actual != expected:
                raise ValidationError(f"{name} shape {actual}, expected {expected}")
            # kind and size, without the byte order: load_index's '<i4' and '<f4' views pass
            if column is not None and column.dtype.str[1:] != kind:
                raise ValidationError(f"{name} dtype {column.dtype}, expected {np.dtype(kind)}")
        _check_rows(self.token_ids, self.doc_refs, self.num_docs)
        self.lists = _lists_from_rows(self.token_ids, self.doc_refs, self.vectors)
        self.cls_norms = None
        if self.cls_matrix is not None:
            cls = self.cls_matrix
            self.cls_norms = np.sqrt(np.einsum("ij,ij->i", cls, cls, dtype=np.float64))

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


def run_bounds(*sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the runs of equal rows in parallel key columns
    sorted so that equal rows are adjacent."""
    if len(sorted_keys[0]) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    change = sorted_keys[0][1:] != sorted_keys[0][:-1]
    for keys in sorted_keys[1:]:
        change |= keys[1:] != keys[:-1]
    changes = np.flatnonzero(change) + 1
    return np.concatenate(([0], changes)), np.concatenate((changes, [len(sorted_keys[0])]))


def _check_rows(tids: np.ndarray, refs: np.ndarray, num_docs: int) -> None:
    """Raise ValidationError unless the rows are sorted by (token id, ordinal)
    and every ordinal is below ``num_docs``."""
    if np.any(tids[1:] < tids[:-1]):
        raise ValidationError("token ids decrease")
    # search's segmented max relies on this order
    decreasing = np.flatnonzero((refs[1:] < refs[:-1]) & (tids[1:] == tids[:-1]))
    if len(decreasing):
        raise ValidationError(f"doc ordinals decrease in list {tids[decreasing[0]]}")
    outside = np.flatnonzero((refs < 0) | (refs >= num_docs))
    if len(outside):
        raise ValidationError(f"doc ordinal out of range in list {tids[outside[0]]}")


def _lists_from_rows(
    tids: np.ndarray, refs: np.ndarray, vecs: np.ndarray
) -> dict[int, InvertedList]:
    """One InvertedList per token id from rows sorted by (token id, ordinal, position).

    The per-document runs of every list, and its later occurrences, come
    from one pass over all rows; each list takes slices of those arrays.
    """
    starts, ends = run_bounds(tids)
    # one run per (token id, ordinal); a row that repeats the row before it
    # is a later occurrence in its run
    later_row = np.zeros(len(tids), dtype=bool)
    later_row[1:] = (tids[1:] == tids[:-1]) & (refs[1:] == refs[:-1])
    run_starts = np.flatnonzero(~later_row)
    later_rows = np.flatnonzero(later_row)
    # every run's document, and every list-local offset and run number, is
    # intp, because numpy converts an index array of any other dtype on
    # every gather and scatter
    ordinals = refs[run_starts].astype(np.intp)
    # list i holds runs run_edges[i] up to run_edges[i + 1]
    run_edges = np.append(np.searchsorted(run_starts, starts), len(run_starts))
    runs = np.diff(run_edges)
    later = ends - starts - runs  # later occurrences per list
    # Row g, the k-th later row, is preceded by g - k run starts, so it lies
    # in run g - k - 1.
    later_runs = later_rows - np.arange(1, len(later_rows) + 1) - np.repeat(run_edges[:-1], later)
    later_rows -= np.repeat(starts, later)
    # a list in which no document holds its token twice needs no runs
    repeats = later > 0
    run_starts = run_starts[np.repeat(repeats, runs)]
    local_starts = run_starts - np.repeat(starts[repeats], runs[repeats])
    bounds = np.concatenate(([0], np.cumsum(runs * repeats)))
    later_bounds = np.concatenate(([0], np.cumsum(later)))
    lists = {}
    for tid, start, end, first, last, a, b, c, d, repeated in zip(
        tids[starts].tolist(),
        starts.tolist(),
        ends.tolist(),
        run_edges[:-1].tolist(),
        run_edges[1:].tolist(),
        bounds[:-1].tolist(),
        bounds[1:].tolist(),
        later_bounds[:-1].tolist(),
        later_bounds[1:].tolist(),
        repeats.tolist(),
    ):
        vectors, doc_refs, list_ordinals = vecs[start:end], refs[start:end], ordinals[first:last]
        if repeated:
            lists[tid] = InvertedList(
                vectors, doc_refs, local_starts[a:b], list_ordinals,
                later_rows[c:d], later_runs[c:d],
            )
        else:
            lists[tid] = InvertedList(vectors, doc_refs, None, list_ordinals, None, None)
    return lists


def build_index(
    docs: Iterable[EncodedDocument],
    config: CoilConfig,
    vocab: dict[str, int] | None = None,
    encoder_meta: dict | None = None,
) -> CoilIndex:
    """Group every encoded token occurrence into its token's list.

    Documents keep their input order as ordinals; a document with no
    tokens still occupies an ordinal (and a CLS row when n_c >= 1).  A
    duplicate doc id raises when the doc table is built.

    ``vocab`` is a compatibility keyword, never stored: the vocabulary is
    ``encoder_meta["vocab"]``, and a ``vocab`` given beside an
    ``encoder_meta`` whose vocabulary differs raises ValidationError.  It
    goes once the benchmark harness stops passing it (ROADMAP item 1).
    """
    if vocab is not None and encoder_meta is not None and vocab != encoder_meta.get("vocab"):
        raise ValidationError("vocab differs from encoder_meta['vocab']")
    n_t, n_c = config.n_t, config.n_c
    doc_table: list[str] = []
    lengths: list[int] = []
    tid_parts = [np.empty(0, dtype=np.int32)]
    vec_parts = [np.empty((0, n_t), dtype=np.float32)]
    cls_rows = [np.empty((0, n_c), dtype=np.float32)]

    for doc in docs:
        check_encoded_dims(f"document {doc.doc_id!r}", doc, n_t, n_c)
        doc_table.append(doc.doc_id)
        lengths.append(len(doc.token_ids))
        tid_parts.append(doc.token_ids)
        vec_parts.append(doc.token_vecs)
        if n_c >= 1:
            cls_rows.append(doc.cls_vec[None, :])

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
        token_ids=tids[order],
        doc_refs=refs[order],
        vectors=vecs[order],
        cls_matrix=cls_matrix,
        doc_table=DocTable(doc_table),
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
    rows = ((index.token_ids, "<i4"), (index.doc_refs, "<i4"), (index.vectors, "<f4"))
    files = {POSTINGS_FILE: [np.ascontiguousarray(column, dtype=dtype) for column, dtype in rows]}
    if index.cls_matrix is not None:
        files[CLS_FILE] = [np.ascontiguousarray(index.cls_matrix, dtype="<f4")]

    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "config": asdict(index.config),
        "doc_table": index.doc_table.ids,
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
    try:
        doc_table = DocTable(meta["doc_table"])
    except ValidationError as exc:
        raise FormatError(f"{meta_path}: doc_table entries: {exc}") from exc
    num_docs = len(doc_table)
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

    try:
        return CoilIndex(
            config=cfg,
            token_ids=tids,
            doc_refs=refs,
            vectors=vecs,
            cls_matrix=cls_matrix,
            doc_table=doc_table,
            corpus_checksum=corpus_checksum,
            encoder_meta=meta["encoder_meta"],
        )
    except ValidationError as exc:  # the rows' order; the doc table is checked above
        raise FormatError(f"{postings_path}: {exc}") from exc


def index_stats(index: CoilIndex) -> IndexStats:
    """Pure summary; bytes_on_disk is the exact size the binary files occupy."""
    total = len(index.token_ids)
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
