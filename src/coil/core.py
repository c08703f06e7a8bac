"""Core domain types shared by every other module.

Scores follow one convention system-wide: vectors and scores are 32-bit
floats at rest, summations accumulate in 64-bit, and the final reported
score is rounded back to 32-bit.  Ranked results are always ordered by
score descending with ties broken by doc id ascending.
"""
from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

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
    """The id rule: a non-empty string without whitespace or control characters."""
    if not isinstance(value, str):
        raise ValidationError(f"{kind} id must be a string")
    if not value:
        raise ValidationError(f"{kind} id must be non-empty")
    if value.isprintable() and " " not in value:
        return  # neither whitespace nor control characters
    if any(ch.isspace() for ch in value):
        raise ValidationError(f"{kind} id {value!r} must not contain whitespace")
    # numpy string arrays drop trailing NULs, so such ids would collide in rankings
    if any(unicodedata.category(ch) == "Cc" for ch in value):
        raise ValidationError(f"{kind} id {value!r} must not contain control characters")


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
    """Surface tokens paired position-by-position with vocabulary ids."""

    tokens: tuple[str, ...]
    token_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.token_ids):
            raise ValidationError(
                f"tokens ({len(self.tokens)}) and token_ids ({len(self.token_ids)}) "
                "must have equal length"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CoilConfig:
    """Dimension and mode settings for the encoder and index.

    n_t = 0 disables token vectors (dense/CLS-only variant) and n_c = 0
    disables the CLS vector (token-only variant); n_t = 1 gives the
    term-importance degenerate variant.  ``mode`` is the richest scoring
    mode the dims support (see :func:`derive_mode`); it is derived when
    omitted, and an explicit value must equal it.
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
    """Return ``config`` unchanged, or raise naming the first violated invariant."""
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
    """Parse and validate the JSON form of a CoilConfig (``dataclasses.asdict``)."""
    return validate_config(CoilConfig(**check_fields(obj, _CONFIG_TYPES, source)))


@dataclass
class ProjectionParams:
    """Affine maps that project contextualizer outputs down to n_t / n_c dims."""

    w_tok: np.ndarray  # (n_t, n_lm) float32
    b_tok: np.ndarray  # (n_t,) float32
    w_cls: np.ndarray  # (n_c, n_lm) float32
    b_cls: np.ndarray  # (n_c,) float32

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


def _all_finite(values: np.ndarray) -> bool:
    return values.dtype.kind in "fiu" and bool(np.isfinite(values).all())


def _check_encoded(rec: EncodedDocument | EncodedQuery, kind: str, rec_id: str) -> None:
    """The rule every encoded document and query obeys; stores its fields as arrays."""
    check_id(kind, rec_id)
    name = f"{kind} {rec_id!r}"
    rec.token_ids = token_ids = np.asarray(rec.token_ids)
    rec.token_vecs = token_vecs = np.asarray(rec.token_vecs)
    if token_ids.ndim != 1 or token_ids.dtype.kind not in "iu" or (token_ids < 0).any():
        raise ValidationError(f"{name}: token_ids must be a 1-D array of non-negative integers")
    if token_vecs.ndim != 2 or len(token_vecs) != len(token_ids):
        raise ValidationError(
            f"{name}: token_vecs shape {token_vecs.shape} does not fit "
            f"token_ids shape {token_ids.shape}"
        )
    if not _all_finite(token_vecs):
        raise ValidationError(f"{name}: non-finite token vector entry")
    if rec.cls_vec is not None:
        rec.cls_vec = cls_vec = np.asarray(rec.cls_vec)
        if cls_vec.ndim != 1:
            raise ValidationError(f"{name}: cls_vec shape {cls_vec.shape} is not 1-D")
        if not _all_finite(cls_vec):
            raise ValidationError(f"{name}: non-finite cls_vec entry")


@dataclass
class EncodedDocument:
    """A document as per-token vectors plus an optional whole-document vector."""

    doc_id: str
    token_ids: np.ndarray  # (m,) int32
    token_vecs: np.ndarray  # (m, n_t) float32
    cls_vec: np.ndarray | None  # (n_c,) float32, None when n_c = 0

    def __post_init__(self) -> None:
        _check_encoded(self, "document", self.doc_id)


@dataclass
class EncodedQuery:
    query_id: str
    token_ids: np.ndarray
    token_vecs: np.ndarray
    cls_vec: np.ndarray | None

    def __post_init__(self) -> None:
        _check_encoded(self, "query", self.query_id)


def check_encoded_dims(
    name: str, rec: EncodedDocument | EncodedQuery, n_t: int, n_c: int
) -> None:
    """Raise unless ``rec`` has n_t-wide token vectors and a cls_vec of shape
    (n_c,), or no cls_vec when n_c = 0."""
    if rec.token_vecs.shape[1] != n_t:
        raise ValidationError(
            f"{name}: token vectors have dimension {rec.token_vecs.shape[1]}, expected n_t={n_t}"
        )
    cls_shape = None if rec.cls_vec is None else rec.cls_vec.shape
    if cls_shape != ((n_c,) if n_c else None):
        expected = f"shape ({n_c},)" if n_c else "no cls_vec"
        raise ValidationError(f"{name}: cls_vec shape {cls_shape}, n_c={n_c} requires {expected}")


@dataclass
class RankedList:
    """Retrieval output: (doc_id, score) pairs, best first.

    Construction through :meth:`from_scores` or
    :func:`ranked_list_from_arrays` guarantees the full ordering rule
    (score descending, ties by doc id ascending).  Direct construction
    still checks monotone scores and uniqueness, which is the most a
    precision-lossy source such as a parsed run file can promise.
    """

    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        prev = None
        for doc_id, score in self.entries:
            if not np.isfinite(score):
                raise ValidationError(f"non-finite score for doc {doc_id!r}")
            if doc_id in seen:
                raise ValidationError(f"duplicate doc id {doc_id!r} in ranked list")
            seen.add(doc_id)
            if prev is not None and score > prev:
                raise ValidationError("ranked list scores must be non-increasing")
            prev = score

    @classmethod
    def from_scores(
        cls, query_id: str, pairs: Iterable[tuple[str, float]], k: int | None = None
    ) -> RankedList:
        ordered = sorted(pairs, key=lambda e: (-e[1], e[0]))
        if k is not None:
            ordered = ordered[:k]
        return cls(query_id, ordered)

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


def ranked_list_from_arrays(
    query_id: str, doc_ids: np.ndarray, scores: np.ndarray, k: int | None = None
) -> RankedList:
    """Rank parallel arrays of doc ids and 64-bit scores with the global tie rule."""
    reported = scores.astype(np.float32)
    order = np.lexsort((doc_ids, -reported))
    if k is not None:
        order = order[:k]
    entries = [(str(doc_ids[i]), float(reported[i])) for i in order]
    return RankedList(query_id, entries)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of a UTF-8 text file.

    Line numbers count from 1 and include blank lines.  A line that is not
    UTF-8 raises FormatError naming the file and the line.
    """
    with open(path, "rb") as raw_lines:
        for lineno, raw in enumerate(raw_lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"{path}: line {lineno}: not UTF-8 (byte {exc.start + 1}: {exc.reason})"
                ) from None
            if not line.isspace():
                yield lineno, line


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
