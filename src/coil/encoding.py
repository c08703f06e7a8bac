"""Tokenization, the deterministic reference contextualizer, and projections.

The contextualizer is a fully specified stand-in for a trained language
model: every token id maps to a fixed pseudo-random base direction, and
each position blends its base with the mean of its windowed neighbours so
that the same surface token receives different vectors in different
contexts.  Determinism is bit-exact: 64-bit FNV-1a seeds a SplitMix64
stream, both defined over little-endian 8-byte words, so the same
(seed, token sequence) pair reproduces identical vectors everywhere.

Externally produced encodings (e.g. from a real trained model) enter
through :func:`ingest_encoded`, which reads the line-delimited
``coil-enc`` record format written by :func:`write_encoded`.
"""
from __future__ import annotations

import json
import string
from contextlib import closing
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import (
    CoilConfig,
    Document,
    EncodedDocument,
    EncodedQuery,
    FormatError,
    ProjectionParams,
    Query,
    TokenSeq,
    ValidationError,
    check_encoded_dims,
    check_fields,
    config_from_meta,
    read_json_lines,
    read_lines,
    validate_config,
)

UNKNOWN_TOKEN_ID = 0

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)

_PUNCT = set(string.punctuation)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenizerConfig:
    """Lowercasing flag plus the corpus vocabulary; id 0 is reserved for unknown."""

    lowercase: bool = True
    vocab: dict[str, int] = field(default_factory=dict)


def split_text(text: str, lowercase: bool = True) -> list[str]:
    """Split on Unicode whitespace, then peel leading/trailing ASCII punctuation."""
    if lowercase:
        text = text.lower()
    out: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        while chunk and chunk[0] in _PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in _PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead)
        if chunk:
            out.append(chunk)
        out.extend(reversed(trail))
    return out


def build_vocab(texts: Iterable[str], lowercase: bool = True) -> TokenizerConfig:
    """Assign ids 1, 2, ... in first-occurrence order over one corpus pass."""
    vocab: dict[str, int] = {}
    for text in texts:
        for token in split_text(text, lowercase):
            if token not in vocab:
                vocab[token] = len(vocab) + 1
    return TokenizerConfig(lowercase=lowercase, vocab=vocab)


def tokenize(text: str, cfg: TokenizerConfig) -> TokenSeq:
    """Tokenize deterministically; tokens absent from the vocab map to id 0."""
    tokens = split_text(text, cfg.lowercase)
    ids = tuple(cfg.vocab.get(tok, UNKNOWN_TOKEN_ID) for tok in tokens)
    return TokenSeq(tuple(tokens), ids)


# ---------------------------------------------------------------------------
# Seeded pseudo-random streams
# ---------------------------------------------------------------------------


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over raw bytes."""
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & _MASK64
    return state


def hash64(seed: int, value: int) -> int:
    """FNV-1a over the seed's little-endian bytes, then the value's."""
    state = fnv1a64((seed & _MASK64).to_bytes(8, "little"))
    return fnv1a64((value & _MASK64).to_bytes(8, "little"), state)


def splitmix64_unit_floats(state: int, count: int) -> np.ndarray:
    """Expand a SplitMix64 stream to ``count`` float64 values in [-1, 1].

    The k-th internal state is ``state + k * gamma`` (mod 2**64), so the
    whole stream vectorizes as elementwise uint64 arithmetic.
    """
    steps = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(state & _MASK64) + steps * _SPLITMIX_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_M1
        z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_M2
        z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) * 2.0**-63 - 1.0


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.sqrt(np.dot(vec, vec)))
    if norm == 0.0:
        return vec
    return vec / norm


@lru_cache(maxsize=65536)
def _base_vector_cached(seed: int, token_id: int, n_lm: int) -> np.ndarray:
    vec = _unit(splitmix64_unit_floats(hash64(seed, token_id), n_lm))
    vec.flags.writeable = False
    return vec


def token_base_vector(seed: int, token_id: int, n_lm: int) -> np.ndarray:
    """Unit-norm base direction for a token id; depends only on (seed, id, n_lm)."""
    return _base_vector_cached(seed, token_id, n_lm)


# ---------------------------------------------------------------------------
# Reference contextualizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StubContextualizerConfig:
    """Settings for the deterministic reference contextualizer."""

    seed: int = 0
    window: int = 2
    mix_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValidationError("window must be >= 0")
        if not 0.0 <= self.mix_weight <= 1.0:
            raise ValidationError("mix_weight must be in [0, 1]")


def contextualize(
    seq: TokenSeq, cfg: StubContextualizerConfig, n_lm: int
) -> tuple[np.ndarray, np.ndarray]:
    """Produce one n_lm vector per position plus a CLS-slot summary vector.

    Position i blends its token's base direction with the mean of the
    base directions within ``window`` positions (self excluded), then
    renormalizes; positions with no neighbours keep their base exactly.
    The CLS slot is the normalized mean of all position outputs, or the
    zero vector for an empty sequence.
    """
    if n_lm < 1:
        raise ValidationError("n_lm must be >= 1")
    m = len(seq)
    out = np.empty((m, n_lm), dtype=np.float64)
    if m == 0:
        return out, np.zeros(n_lm, dtype=np.float64)
    bases = np.stack([token_base_vector(cfg.seed, tid, n_lm) for tid in seq.token_ids])
    w, mw = cfg.window, cfg.mix_weight
    for i in range(m):
        lo, hi = max(0, i - w), min(m - 1, i + w)
        n_nbrs = hi - lo  # window span minus self
        if n_nbrs == 0 or mw == 0.0:
            out[i] = bases[i]
            continue
        nbr_mean = (bases[lo:i].sum(axis=0) + bases[i + 1 : hi + 1].sum(axis=0)) / n_nbrs
        out[i] = _unit((1.0 - mw) * bases[i] + mw * nbr_mean)
    cls_slot = _unit(out.mean(axis=0))
    return out, cls_slot


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def _param_stream(seed: int, tag: bytes, count: int, scale: float) -> np.ndarray:
    state = fnv1a64(tag, fnv1a64((seed & _MASK64).to_bytes(8, "little")))
    return (splitmix64_unit_floats(state, count) * scale).astype(np.float32)


def seeded_projection(config: CoilConfig, seed: int) -> ProjectionParams:
    """Reproducible projection parameters, entries in [-1,1]/sqrt(n_lm)."""
    validate_config(config)
    scale = 1.0 / np.sqrt(config.n_lm)
    n_lm, n_t, n_c = config.n_lm, config.n_t, config.n_c
    return ProjectionParams(
        w_tok=_param_stream(seed, b"w_tok", n_t * n_lm, scale).reshape(n_t, n_lm),
        b_tok=_param_stream(seed, b"b_tok", n_t, scale),
        w_cls=_param_stream(seed, b"w_cls", n_c * n_lm, scale).reshape(n_c, n_lm),
        b_cls=_param_stream(seed, b"b_cls", n_c, scale),
    ).validate(config)


def project_tokens(lm_vectors: np.ndarray, params: ProjectionParams) -> np.ndarray:
    """Affine-map each n_lm row vector down to n_t dimensions."""
    lm_vectors = np.atleast_2d(np.asarray(lm_vectors, dtype=np.float64))
    if lm_vectors.shape[0] and lm_vectors.shape[1] != params.w_tok.shape[1]:
        raise ValidationError(
            f"input dimension {lm_vectors.shape[1]} != n_lm {params.w_tok.shape[1]}"
        )
    projected = lm_vectors @ params.w_tok.T.astype(np.float64) + params.b_tok.astype(
        np.float64
    )
    return projected.astype(np.float32)


def project_cls(
    lm_cls_vector: np.ndarray, params: ProjectionParams, cls_layer_norm: bool = False
) -> np.ndarray | None:
    """Affine-map the CLS-slot vector to n_c dims, optionally layer-normalized.

    Layer normalization uses the population variance and a fixed 1e-5
    epsilon, with no learned scale or shift.  Returns None when n_c = 0.
    """
    n_c = params.w_cls.shape[0]
    if n_c == 0:
        return None
    lm_cls_vector = np.asarray(lm_cls_vector, dtype=np.float64)
    if lm_cls_vector.shape != (params.w_cls.shape[1],):
        raise ValidationError(
            f"input dimension {lm_cls_vector.shape} != n_lm ({params.w_cls.shape[1]},)"
        )
    v = params.w_cls.astype(np.float64) @ lm_cls_vector + params.b_cls.astype(np.float64)
    if cls_layer_norm:
        v = (v - v.mean()) / np.sqrt(v.var() + 1e-5)
    return v.astype(np.float32)


# ---------------------------------------------------------------------------
# Encoder settings
# ---------------------------------------------------------------------------

_META_TYPES = {
    "vocab": dict,
    "lowercase": bool,
    "config": dict,
    "stub": dict,
    "projection_seed": int,
}
_STUB_TYPES = {"seed": int, "window": int, "mix_weight": float}


def vocab_from_meta(vocab: dict, source: str) -> dict[str, int]:
    """Check that a JSON vocabulary maps every token to an integer id."""
    if not all(type(i) is int for i in vocab.values()):
        raise FormatError(f"{source}: token ids must be integers")
    return vocab


@dataclass(frozen=True)
class EncoderSpec:
    """Every setting that must match between corpus and query encoding.

    Its JSON form is the ``coil encode`` sidecar and the ``encoder_meta``
    stored in an index; :meth:`to_meta` and :meth:`from_meta` are the only
    writer and reader of that layout.
    """

    tokenizer: TokenizerConfig
    stub: StubContextualizerConfig
    config: CoilConfig
    projection_seed: int

    def projection(self) -> ProjectionParams:
        """The seeded projection parameters these settings determine."""
        return seeded_projection(self.config, self.projection_seed)

    def to_meta(self) -> dict:
        """The JSON form written as the sidecar and stored as ``encoder_meta``."""
        return {
            "vocab": self.tokenizer.vocab,
            "lowercase": self.tokenizer.lowercase,
            "config": asdict(self.config),
            "stub": asdict(self.stub),
            "projection_seed": self.projection_seed,
        }

    @classmethod
    def from_meta(cls, meta: object, source: str) -> EncoderSpec:
        """Inverse of :meth:`to_meta`; a missing, unknown or ill-typed key
        raises FormatError naming ``source``."""
        check_fields(meta, _META_TYPES, source)
        stub = check_fields(meta["stub"], _STUB_TYPES, f"{source}: stub")
        vocab = vocab_from_meta(meta["vocab"], f"{source}: vocab")
        return cls(
            tokenizer=TokenizerConfig(meta["lowercase"], vocab),
            stub=StubContextualizerConfig(**stub),
            config=config_from_meta(meta["config"], f"{source}: config"),
            projection_seed=meta["projection_seed"],
        )


# ---------------------------------------------------------------------------
# Document / query encoding
# ---------------------------------------------------------------------------


def _encode(
    text: str,
    tokenizer: TokenizerConfig,
    contextualizer: StubContextualizerConfig,
    params: ProjectionParams,
    config: CoilConfig,
    max_tokens: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """tokenize -> truncate to max_tokens -> contextualize -> project.

    Returns the token ids, the token vectors and the CLS vector (None when
    n_c = 0): the fields shared by EncodedDocument and EncodedQuery.
    """
    seq = tokenize(text, tokenizer)
    if max_tokens is not None and len(seq) > max_tokens:
        seq = TokenSeq(seq.tokens[:max_tokens], seq.token_ids[:max_tokens])
    lm_vecs, cls_slot = contextualize(seq, contextualizer, config.n_lm)
    token_vecs = project_tokens(lm_vecs.reshape(len(seq), config.n_lm), params)
    cls_vec = (
        project_cls(cls_slot, params, config.cls_layer_norm) if config.n_c >= 1 else None
    )
    token_ids = np.asarray(seq.token_ids, dtype=np.int32)
    return token_ids, token_vecs.reshape(len(seq), config.n_t), cls_vec


def encode_document(
    doc: Document,
    tokenizer: TokenizerConfig,
    contextualizer: StubContextualizerConfig,
    params: ProjectionParams,
    config: CoilConfig,
) -> EncodedDocument:
    """Encode a document, truncated to config.max_doc_tokens."""
    limit = config.max_doc_tokens
    return EncodedDocument(
        doc.id, *_encode(doc.text, tokenizer, contextualizer, params, config, limit)
    )


def encode_query(
    query: Query,
    tokenizer: TokenizerConfig,
    contextualizer: StubContextualizerConfig,
    params: ProjectionParams,
    config: CoilConfig,
) -> EncodedQuery:
    """As encode_document but without truncation; queries are short."""
    return EncodedQuery(
        query.id, *_encode(query.text, tokenizer, contextualizer, params, config, None)
    )


# ---------------------------------------------------------------------------
# Encoded-record file IO
# ---------------------------------------------------------------------------

ENCODED_FORMAT = "coil-enc"
ENCODED_VERSION = 1


def write_encoded(
    docs: Iterable[EncodedDocument], path: str | Path, n_t: int, n_c: int
) -> int:
    """Write the header line plus one JSON record per document; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = {
            "format": ENCODED_FORMAT,
            "version": ENCODED_VERSION,
            "n_t": n_t,
            "n_c": n_c,
        }
        fh.write(json.dumps(header) + "\n")
        for doc in docs:
            check_encoded_dims(f"document {doc.doc_id!r}", doc, n_t, n_c)
            record: dict = {
                "id": doc.doc_id,
                # float32 -> Python float keeps the exact value; json prints
                # the shortest repr, which round-trips back to the same f32
                "token_ids": doc.token_ids.tolist(),
                "token_vecs": doc.token_vecs.tolist(),
            }
            if n_c > 0:
                record["cls_vec"] = doc.cls_vec.tolist()
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count


def read_encoded_header(path: str | Path) -> dict:
    """Parse and check line 1 of a coil-enc file."""
    with closing(read_lines(path)) as lines:
        lineno, line = next(lines, (1, ""))
    try:
        header = json.loads(line if lineno == 1 else "")  # a blank line 1 is no header
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line 1: invalid header JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != ENCODED_FORMAT:
        raise FormatError(f"{path}: line 1: not a {ENCODED_FORMAT} file")
    if header.get("version") != ENCODED_VERSION:
        raise FormatError(
            f"{path}: line 1: unsupported version {header.get('version')!r}"
        )
    n_t, n_c = header.get("n_t"), header.get("n_c")
    if not isinstance(n_t, int) or not isinstance(n_c, int) or n_t < 0 or n_c < 0:
        raise FormatError(f"{path}: line 1: header n_t/n_c must be non-negative ints")
    return header


def ingest_encoded(path: str | Path) -> Iterator[EncodedDocument]:
    """Stream EncodedDocuments from a coil-enc file, validating against its header."""
    header = read_encoded_header(path)
    n_t, n_c = header["n_t"], header["n_c"]
    records = read_json_lines(path)
    next(records)  # line 1, the header
    for lineno, obj in records:
        where = f"{path}: line {lineno}"
        try:
            doc_id, raw_ids = obj["id"], obj["token_ids"]
            # bools are ints to Python; a fractional id would be truncated
            if not all(type(t) is int and t >= 0 for t in raw_ids):
                raise ValueError("token_ids must be non-negative integers")
            token_ids = np.asarray(raw_ids, dtype=np.int32)
            token_vecs = np.asarray(obj["token_vecs"], dtype=np.float32)
            if token_vecs.shape == (0,):  # "token_vecs": [] parses without a row width
                token_vecs = token_vecs.reshape(0, n_t)
            cls_vec = None
            if "cls_vec" in obj:
                cls_vec = np.asarray(obj["cls_vec"], dtype=np.float32)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{where}: malformed record: {exc}") from exc
        try:
            doc = EncodedDocument(doc_id, token_ids, token_vecs, cls_vec)
            check_encoded_dims(f"document {doc_id!r}", doc, n_t, n_c)
        except ValidationError as exc:
            raise FormatError(f"{where}: {exc}") from exc
        yield doc
