"""Core domain types shared by every other module.

Scores follow one convention system-wide: vectors and scores are 32-bit
floats at rest, summations accumulate in 64-bit, and the final reported
score is rounded back to 32-bit.  Ranked results are always ordered by
score descending with ties broken by doc id ascending.

Records and settings are valid once they are built.  An
:class:`EncodedDocument` or :class:`EncodedQuery` stores its token ids as
int32 and its vectors as float32 when it is constructed, rejecting a value
either type cannot hold, so the index, the coil-enc writer and search take
its arrays as they are.  A :class:`CoilConfig` checks every rule of
:func:`validate_config` when it is constructed.

A ranked list's invariants are each checked in one place.  Every score is
finite, doc ids are unique, and scores never rise down the list:
:class:`RankedList` checks all three, in one loop over the entries, for a
list a caller builds from ``(doc_id, score)`` pairs (``from_scores``, and
``read_run`` on its per-line path).  :func:`ranked_list_from_arrays` ranks
the documents of a :class:`DocTable`, the one table of doc ids that an index
and its BM25 baseline hold.  The table checks its ids once, when it is
built: each passes the id rule and none repeats.  It also holds the tie key,
the rank of each id in code-point order.  The ranker checks finiteness
itself and gets its order from one ``np.argsort`` of a uint64 key packing
the float32 score and then that rank, so the keys are unique and the list
is built from its columns without a second check, as ``read_run``'s column
path does after checking the columns itself.
"""
from __future__ import annotations

import json
import math
import os
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

MODES = ("tok", "full", "cls_only")


class ValidationError(ValueError):
    """A named invariant or precondition was violated."""


class FormatError(ValueError):
    """A file or record does not match its declared format."""


def as_score(value: float) -> float:
    """Round a 64-bit accumulator value onto the 32-bit score grid."""
    return float(np.float32(value))


def check_id(kind: str, value: str) -> None:
    """The id rule: a non-empty string free of whitespace, control characters and surrogates."""
    if not isinstance(value, str):
        raise ValidationError(f"{kind} id must be a string")
    if not value:
        raise ValidationError(f"{kind} id must be non-empty")
    if value.isprintable() and " " not in value:
        return  # no whitespace, control character or surrogate
    if any(ch.isspace() for ch in value):
        raise ValidationError(f"{kind} id {value!r} must not contain whitespace")
    # numpy string arrays drop trailing NULs, so such ids would collide in rankings,
    # and a lone surrogate cannot be written as UTF-8
    if any(unicodedata.category(ch) in ("Cc", "Cs") for ch in value):
        raise ValidationError(
            f"{kind} id {value!r} must not contain control characters or surrogates"
        )


def _joined_ids_pass(ids: Sequence) -> bool:
    """Whether every id passes the id rule, judged on one joined string.

    True is exact.  False only says to run :func:`check_id` on each id: an
    id holding a format, private-use or unassigned character passes the
    rule, but makes the joined string unprintable.
    """
    try:
        joined = "".join(ids)
    except TypeError:  # an id that is not a string
        return False
    return joined.isprintable() and " " not in joined and all(ids)


def check_ids(kind: str, ids: Sequence) -> None:
    """:func:`check_id` on every id, with its message for the first that fails."""
    if not _joined_ids_pass(ids):
        for value in ids:
            check_id(kind, value)


@dataclass(frozen=True)
class Document:
    id: str
    text: str

    def __post_init__(self) -> None:
        check_id("document", self.id)


@dataclass(frozen=True)
class Query:
    id: str
    text: str

    def __post_init__(self) -> None:
        check_id("query", self.id)


@dataclass(frozen=True)
class TokenSeq:
    """The vocabulary id of each token of a text, in position order."""

    token_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.token_ids)


@dataclass(frozen=True)
class CoilConfig:
    """Dimension and mode settings for the encoder and index.

    n_t = 0 disables token vectors (dense/CLS-only variant) and n_c = 0
    disables the CLS vector (token-only variant); n_t = 1 gives the
    term-importance degenerate variant.  ``mode`` is the richest scoring
    mode the dims support (see :func:`derive_mode`); it is derived when
    omitted, and an explicit value must equal it.  Construction checks every
    rule of :func:`validate_config`, so a config that exists is valid.
    """

    n_lm: int
    n_t: int = 32
    n_c: int = 768
    max_doc_tokens: int = 512
    cls_layer_norm: bool = False
    mode: str | None = None  # None: derive_mode(n_t, n_c)

    def __post_init__(self) -> None:
        if self.mode is None:
            object.__setattr__(self, "mode", derive_mode(self.n_t, self.n_c))
        validate_config(self)


def derive_mode(n_t: int, n_c: int) -> str:
    """full when both vector kinds exist, else tok or cls_only."""
    if n_t >= 1 and n_c >= 1:
        return "full"
    if n_t >= 1:
        return "tok"
    if n_c >= 1:
        return "cls_only"
    raise ValidationError("n_t and n_c cannot both be 0")


def validate_config(config: CoilConfig) -> CoilConfig:
    """Return ``config`` unchanged, or raise naming the first violated
    invariant; :class:`CoilConfig` calls it when it is constructed."""
    if config.n_lm < 1:
        raise ValidationError("n_lm must be >= 1")
    if config.n_t < 0:
        raise ValidationError("n_t must be >= 0")
    if config.n_c < 0:
        raise ValidationError("n_c must be >= 0")
    if config.max_doc_tokens < 1:
        raise ValidationError("max_doc_tokens must be >= 1")
    derived = derive_mode(config.n_t, config.n_c)
    if config.mode != derived:
        raise ValidationError(
            f"mode={config.mode!r} disagrees with n_t={config.n_t}, n_c={config.n_c}, "
            f"which give mode {derived!r}"
        )
    if config.n_t > config.n_lm:
        raise ValidationError("n_t must be <= n_lm")
    if config.n_c > config.n_lm:
        raise ValidationError("n_c must be <= n_lm")
    return config


def check_fields(obj: object, types: dict[str, type | tuple], source: str) -> dict:
    """Return ``obj`` if it is a JSON object holding exactly the keys of
    ``types``, each value of the named type; raise FormatError otherwise.

    ``int`` excludes bools; ``float`` also accepts ints.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{source}: expected a JSON object")
    unknown = sorted(obj.keys() - types.keys())
    if unknown:
        raise FormatError(f"{source}: unknown key {unknown[0]!r}")
    for key, typ in types.items():
        if key not in obj:
            raise FormatError(f"{source}: missing key {key!r}")
        value = obj[key]
        accepted = (int, float) if typ is float else typ
        if isinstance(value, bool) != (typ is bool) or not isinstance(value, accepted):
            raise FormatError(f"{source}: {key!r} has the wrong type ({type(value).__name__})")
    return obj


_CONFIG_TYPES = {
    "n_lm": int,
    "n_t": int,
    "n_c": int,
    "max_doc_tokens": int,
    "cls_layer_norm": bool,
    "mode": str,
}


def config_from_meta(obj: object, source: str) -> CoilConfig:
    """Parse the JSON form of a CoilConfig (``dataclasses.asdict``).

    Stored settings that break a config rule are a malformed file, so the
    ValidationError comes back as a FormatError naming ``source``.
    """
    fields = check_fields(obj, _CONFIG_TYPES, source)
    try:
        return CoilConfig(**fields)
    except ValidationError as exc:
        raise FormatError(f"{source}: {exc}") from exc


@dataclass
class ProjectionParams:
    """Affine maps that project contextualizer outputs down to n_t / n_c dims.

    The float64 forms the projections multiply by are converted once, on
    first use, so the arrays must not be changed in place after that.
    """

    w_tok: np.ndarray  # (n_t, n_lm) float32
    b_tok: np.ndarray  # (n_t,) float32
    w_cls: np.ndarray  # (n_c, n_lm) float32
    b_cls: np.ndarray  # (n_c,) float32

    @cached_property
    def tok_f64(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w_tok.T, b_tok)`` as float64; ``w_tok.T`` keeps its Fortran order."""
        return self.w_tok.T.astype(np.float64), self.b_tok.astype(np.float64)

    @cached_property
    def cls_f64(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w_cls, b_cls)`` as float64."""
        return self.w_cls.astype(np.float64), self.b_cls.astype(np.float64)

    def validate(self, config: CoilConfig) -> ProjectionParams:
        shapes = {
            "w_tok": (config.n_t, config.n_lm),
            "b_tok": (config.n_t,),
            "w_cls": (config.n_c, config.n_lm),
            "b_cls": (config.n_c,),
        }
        for name, shape in shapes.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValidationError(f"{name} shape {actual} != {shape}")
        for name in shapes:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"{name} contains non-finite entries")
        return self


def _float32(name: str, kind: str, vec: np.ndarray) -> np.ndarray:
    """``vec`` itself when it is float32, else its float32 cast; raises
    unless every entry is finite, and finite as float32."""
    if vec.dtype.kind not in "fiu" or not np.isfinite(vec).all():
        raise ValidationError(f"{name}: non-finite {kind} entry")
    if vec.dtype != np.float32:
        with np.errstate(over="ignore"):
            vec = vec.astype(np.float32)
        if not np.isfinite(vec).all():
            raise ValidationError(f"{name}: {kind} entry beyond the float32 range")
    return vec


def _check_encoded(rec: EncodedDocument | EncodedQuery, kind: str, rec_id: str) -> None:
    """The rule every encoded document and query obeys; stores its token ids
    as int32 and its vectors as float32, converting only arrays of other types."""
    check_id(kind, rec_id)
    name = f"{kind} {rec_id!r}"
    token_ids = np.asarray(rec.token_ids)
    token_vecs = np.asarray(rec.token_vecs)
    if token_ids.ndim != 1 or token_ids.dtype.kind not in "iu" or (token_ids < 0).any():
        raise ValidationError(f"{name}: token_ids must be a 1-D array of non-negative integers")
    if token_ids.dtype != np.int32:
        if token_ids.size and token_ids.max() >= 2**31:
            raise ValidationError(f"{name}: token id {token_ids.max()} does not fit in int32")
        token_ids = token_ids.astype(np.int32)
    if token_vecs.ndim != 2 or len(token_vecs) != len(token_ids):
        raise ValidationError(
            f"{name}: token_vecs shape {token_vecs.shape} does not fit "
            f"token_ids shape {token_ids.shape}"
        )
    rec.token_ids, rec.token_vecs = token_ids, _float32(name, "token vector", token_vecs)
    if rec.cls_vec is not None:
        cls_vec = np.asarray(rec.cls_vec)
        if cls_vec.ndim != 1:
            raise ValidationError(f"{name}: cls_vec shape {cls_vec.shape} is not 1-D")
        rec.cls_vec = _float32(name, "cls_vec", cls_vec)


@dataclass
class EncodedDocument:
    """A document as per-token vectors plus an optional whole-document vector.

    Construction checks the record and stores ``token_ids`` as int32 and the
    vectors as float32, the types an index holds: an array of another type
    is converted once, so a float64 vector is rounded to float32 here, and
    an id past the int32 range or a vector entry past the float32 range
    raises ValidationError.  int32 and float32 arrays are kept as given.
    """

    doc_id: str
    token_ids: np.ndarray  # (m,) int32
    token_vecs: np.ndarray  # (m, n_t) float32
    cls_vec: np.ndarray | None  # (n_c,) float32, None when n_c = 0

    def __post_init__(self) -> None:
        _check_encoded(self, "document", self.doc_id)


@dataclass
class EncodedQuery:
    """A query as :class:`EncodedDocument` holds a document, by the same rule."""

    query_id: str
    token_ids: np.ndarray  # (m,) int32
    token_vecs: np.ndarray  # (m, n_t) float32
    cls_vec: np.ndarray | None  # (n_c,) float32, None when n_c = 0

    def __post_init__(self) -> None:
        _check_encoded(self, "query", self.query_id)


def check_encoded_dims(
    name: str, rec: EncodedDocument | EncodedQuery, n_t: int, n_c: int
) -> None:
    """Raise unless ``rec`` has n_t-wide token vectors and a cls_vec of shape
    (n_c,), or no cls_vec when n_c = 0; its types were checked when it was built."""
    if rec.token_vecs.shape[1] != n_t:
        raise ValidationError(
            f"{name}: token vectors have dimension {rec.token_vecs.shape[1]}, expected n_t={n_t}"
        )
    cls_shape = None if rec.cls_vec is None else rec.cls_vec.shape
    if cls_shape != ((n_c,) if n_c else None):
        expected = f"shape ({n_c},)" if n_c else "no cls_vec"
        raise ValidationError(f"{name}: cls_vec shape {cls_shape}, n_c={n_c} requires {expected}")


class RankedList:
    """Retrieval output: a doc-id column and a float64 score column, best first.

    ``RankedList(query_id, entries)`` takes ``(doc_id, score)`` pairs and
    stores them as the two columns ``ids`` (a list) and ``scores`` (an
    array); ``entries`` builds the pairs again when asked for.  Construction
    through :meth:`from_scores` or :func:`ranked_list_from_arrays`
    guarantees the full ordering rule (score descending, ties by doc id
    ascending).  Direct construction still checks finite, non-increasing
    scores and unique doc ids, which is the most a precision-lossy source
    such as a parsed run file can promise.  The first offending entry names
    the error; within one entry a non-finite score comes before a duplicate
    id, and that before a rising score.
    """

    def __init__(self, query_id: str, entries: Iterable[tuple[str, float]] = ()) -> None:
        ids, scores = [], []
        seen: set[str] = set()
        previous = math.inf
        for doc_id, score in entries:
            if not math.isfinite(score):
                raise ValidationError(f"non-finite score for doc {doc_id!r}")
            if doc_id in seen:
                raise ValidationError(f"duplicate doc id {doc_id!r} in ranked list")
            if score > previous:
                raise ValidationError("ranked list scores must be non-increasing")
            seen.add(doc_id)
            ids.append(doc_id)
            scores.append(score)
            previous = score
        self.query_id = query_id
        self.ids: list[str] = ids
        self.scores: np.ndarray = np.array(scores, dtype=np.float64)

    @classmethod
    def from_columns(cls, query_id: str, ids: list[str], scores: np.ndarray) -> RankedList:
        """A list whose caller has already established every invariant;
        ``scores`` is a float64 array as long as ``ids``."""
        ranked = cls.__new__(cls)
        ranked.query_id, ranked.ids, ranked.scores = query_id, ids, scores
        return ranked

    @classmethod
    def from_scores(
        cls, query_id: str, pairs: Iterable[tuple[str, float]], k: int | None = None
    ) -> RankedList:
        ordered = sorted(pairs, key=lambda e: (-e[1], e[0]))
        if k is not None:
            ordered = ordered[:k]
        return cls(query_id, ordered)

    @property
    def entries(self) -> list[tuple[str, float]]:
        """The ``(doc_id, score)`` pairs, a new list on each call."""
        return list(zip(self.ids, self.scores.tolist()))

    def doc_ids(self) -> list[str]:
        return list(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and self.ids == other.ids
            and np.array_equal(self.scores, other.scores)
        )

    def __repr__(self) -> str:
        return f"RankedList(query_id={self.query_id!r}, entries={self.entries!r})"


@dataclass(frozen=True)
class DocTable:
    """The doc id of each document ordinal of an index, and the tie key of
    every ranking over them.

    ``ids`` holds the ids as a tuple; ``objects`` holds the same strings as
    an object array, from which :func:`ranked_list_from_arrays` gathers the
    ids it returns, so a ranked list holds the table's own strings, not
    copies; ``rank`` is the int32 position of each id in code-point order,
    which breaks ties between equal scores.  Construction checks that every
    id passes the id rule (:func:`check_ids`, so with :func:`check_id`'s
    message) and then that no id repeats, raising ValidationError.  Both
    arrays are read-only, so the checks hold for the table's whole life.
    Tables compare by their ids.
    """

    ids: tuple[str, ...]
    objects: np.ndarray = field(init=False, repr=False, compare=False)
    rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        check_ids("document", self.ids)
        # a 'U' array sorts by code point; the position of an id among the
        # distinct ids is its rank
        distinct, rank, counts = np.unique(
            np.array(self.ids, dtype=str), return_inverse=True, return_counts=True
        )
        if len(distinct) < len(self.ids):
            raise ValidationError(f"duplicate doc id {str(distinct[np.argmax(counts > 1)])!r}")
        object.__setattr__(self, "objects", np.array(self.ids, dtype=object))
        object.__setattr__(self, "rank", rank.astype(np.int32))
        self.objects.flags.writeable = self.rank.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, ordinal: int) -> str:
        return self.ids[ordinal]


def _descending_key(scores: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """One uint64 per float32 score whose ascending order is score descending,
    then ``ranks`` (int32, not negative) ascending.

    The high 32 bits come from ``0.0 - score``, which negates the score and
    makes both zeros +0.0, so they tie, as they compare equal.  Its bits map
    onto an unsigned integer in the order of the float: a positive value
    gets its sign bit set, and a negative value has every bit flipped.  The
    low 32 bits are the rank.
    """
    bits = (0.0 - scores).view(np.int32)
    high = (bits ^ ((bits >> 31) | -(2**31))).view(np.uint32)
    return (high.astype(np.uint64) << 32) | ranks.astype(np.uint64)


def ranked_list_from_arrays(
    query_id: str,
    table: DocTable,
    scores: np.ndarray,
    k: int | None = None,
    ordinals: np.ndarray | None = None,
) -> RankedList:
    """Rank documents of ``table`` by 64-bit scores with the global tie rule.

    ``scores[i]`` belongs to the document of ordinal ``ordinals[i]``, or of
    ordinal ``i`` when ``ordinals`` is None; so a caller that ranks some
    documents of an index passes the index's table whole, and only the
    ranked ids are gathered.  Any non-finite score raises, whether or not it
    would reach the top k.  Only the scores at or above the k-th best (every
    tie at the cut included) are sorted, so the result equals a sort of all
    of them.  Ties are broken on ``table.rank``.  The list is built from its
    columns, without :class:`RankedList`'s per-entry check: its order comes
    from the sort, and the table's doc ids are unique.  The sort is of one
    uint64 key per survivor (:func:`_descending_key`), unique because the
    ranks are, so any sort algorithm gives this order; -0.0 ties with +0.0
    in the key, but its score keeps its sign.
    """
    with np.errstate(over="ignore"):  # a score past the float32 range raises below
        reported = scores.astype(np.float32)
    at = np.arange(len(reported)) if ordinals is None else ordinals
    finite = np.isfinite(reported)
    if not finite.all():
        bad = at[np.argmin(finite)]
        raise ValidationError(f"non-finite score for doc {table[bad]!r}")
    n = len(reported)
    if k is not None and 0 < k < n:
        kth = np.partition(reported, n - k)[n - k]
        keep = np.flatnonzero(reported >= kth)
        reported, at = reported[keep], at[keep]
    order = np.argsort(_descending_key(reported, table.rank[at]))
    if k is not None:
        order = order[:k]
    return RankedList.from_columns(
        query_id, table.objects[at[order]].tolist(), reported[order].astype(np.float64)
    )


def utf8_error(where: str, exc: UnicodeDecodeError) -> FormatError:
    """The error for bytes that are not UTF-8, such as a line of a text file;
    ``where`` names them, as in ``<path>: line <n>``."""
    return FormatError(f"{where}: not UTF-8 (byte {exc.start + 1}: {exc.reason})")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of a UTF-8 text file.

    Line numbers count from 1 and include blank lines.  A line that is not
    UTF-8 raises FormatError naming the file and the line.
    """
    with open(path, "rb") as raw_lines:
        yield from decode_lines(raw_lines, path)


def decode_lines(raw_lines: Iterable[bytes], path: str | Path) -> Iterator[tuple[int, str]]:
    """:func:`read_lines` over lines of bytes already opened or read, such as
    ``io.BytesIO(data)``; ``path`` names them in errors."""
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise utf8_error(f"{path}: line {lineno}", exc) from None
        if not line.isspace():
            yield lineno, line


@contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for UTF-8 text with ``\\n`` line ends, or for bytes when
    ``binary``, all or nothing.

    The data goes to ``.<name>.tmp<pid>`` in the same directory, so that the
    replace stays on one file system, and replaces ``path`` only when the
    block ends without an exception.  Otherwise the temporary file is
    removed and ``path`` keeps its earlier contents, or stays absent.  A
    target that exists but is not a regular file, such as ``/dev/stdout`` or
    a pipe, is a stream that a replace would destroy, so it is written in
    place; this is checked before ``path`` is resolved, as ``/dev/stdout``
    on a pipe resolves to a name that does not exist.  A symlink is
    followed, so the file it points to is replaced and the link stays.
    """
    open_args = {"mode": "wb"} if binary else {"mode": "w", "encoding": "utf-8", "newline": "\n"}
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, **open_args) as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    temp = path.parent / f".{path.name}.tmp{os.getpid()}"
    try:
        with open(temp, **open_args) as fh:
            yield fh
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, value)`` for each non-blank line of a JSON-lines file."""
    for lineno, line in read_lines(path):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        yield lineno, value


def read_json(path: str | Path) -> object:
    """Parse a whole UTF-8 file as one JSON value."""
    text = "".join(line for _, line in read_lines(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def _load_id_text_records(path: str | Path, kind: str, record: type) -> list:
    records = []
    seen: set[str] = set()
    for lineno, obj in read_json_lines(path):
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise FormatError(f"{path}: line {lineno}: expected object with 'id' and 'text'")
        doc_id, text = obj["id"], obj["text"]
        if not isinstance(doc_id, str) or not isinstance(text, str):
            raise FormatError(f"{path}: line {lineno}: 'id' and 'text' must be strings")
        if doc_id in seen:
            raise FormatError(f"{path}: line {lineno}: duplicate {kind} id {doc_id!r}")
        seen.add(doc_id)
        try:
            records.append(record(doc_id, text))
        except ValidationError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    return records


def load_documents(path: str | Path) -> list[Document]:
    """Read a line-delimited corpus file of ``{"id": ..., "text": ...}`` records."""
    return _load_id_text_records(path, "document", Document)


def load_queries(path: str | Path) -> list[Query]:
    """Read a query file; same line format as the corpus file."""
    return _load_id_text_records(path, "query", Query)
