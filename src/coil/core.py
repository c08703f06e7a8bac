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
from typing import Iterable

import numpy as np

MODES = ("tok", "full", "cls_only")


class ValidationError(ValueError):
    """A named invariant or precondition was violated."""


class FormatError(ValueError):
    """A file or record does not match its declared format."""


def as_score(value: float) -> float:
    """Round a 64-bit accumulator value onto the 32-bit score grid."""
    return float(np.float32(value))


def _check_id(kind: str, value: str) -> None:
    if not value:
        raise ValidationError(f"{kind} id must be non-empty")
    if value.isprintable() and " " not in value:
        return  # neither whitespace nor control characters
    if any(ch.isspace() for ch in value):
        raise ValidationError(f"{kind} id {value!r} must not contain whitespace")
    # numpy string arrays drop trailing NULs, so such ids would collide in rankings
    if any(unicodedata.category(ch) == "Cc" for ch in value):
        raise ValidationError(f"{kind} id {value!r} must not contain control characters")


def check_input_id(kind: str, value: str, where: str) -> None:
    """The id rule for ids read from a file: a FormatError naming ``where``."""
    try:
        _check_id(kind, value)
    except ValidationError as exc:
        raise FormatError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class Document:
    id: str
    text: str

    def __post_init__(self) -> None:
        _check_id("document", self.id)


@dataclass(frozen=True)
class Query:
    id: str
    text: str

    def __post_init__(self) -> None:
        _check_id("query", self.id)


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


@dataclass
class EncodedDocument:
    """A document as per-token vectors plus an optional whole-document vector."""

    doc_id: str
    token_ids: np.ndarray  # (m,) int32
    token_vecs: np.ndarray  # (m, n_t) float32
    cls_vec: np.ndarray | None  # (n_c,) float32, None when n_c = 0

    def __post_init__(self) -> None:
        _check_id("document", self.doc_id)
        if len(self.token_ids) != len(self.token_vecs):
            raise ValidationError(
                f"document {self.doc_id!r}: token_ids and token_vecs lengths differ"
            )


@dataclass
class EncodedQuery:
    query_id: str
    token_ids: np.ndarray
    token_vecs: np.ndarray
    cls_vec: np.ndarray | None

    def __post_init__(self) -> None:
        _check_id("query", self.query_id)
        if len(self.token_ids) != len(self.token_vecs):
            raise ValidationError(
                f"query {self.query_id!r}: token_ids and token_vecs lengths differ"
            )


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


def _load_id_text_records(path: str | Path, kind: str, record: type) -> list:
    records = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise FormatError(
                    f"{path}: line {lineno}: expected object with 'id' and 'text'"
                )
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


def check_dims(name: str, vecs: np.ndarray, expected: int) -> None:
    """Raise unless a (m, dim) vector block matches the expected dimension."""
    if vecs.ndim != 2 or vecs.shape[1] != expected:
        raise ValidationError(
            f"{name}: expected vectors of dimension {expected}, got shape {vecs.shape}"
        )
