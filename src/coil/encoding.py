"""Tokenization, the deterministic reference contextualizer, and projections.

The contextualizer is a fully specified stand-in for a trained language
model: every token id maps to a fixed pseudo-random base direction, and
each position blends its base with the mean of its windowed neighbours so
that the same surface token receives different vectors in different
contexts.  Determinism is bit-exact: 64-bit FNV-1a seeds a SplitMix64
stream, both defined over little-endian 8-byte words, so the same
(seed, token sequence) pair reproduces identical vectors everywhere.

Externally produced encodings (e.g. from a real trained model) enter
through :func:`ingest_encoded`, which reads the ``coil-enc`` format
written by :func:`write_encoded`: a JSON header line, then binary records.
"""
from __future__ import annotations

import itertools
import json
import os
import stat
import string
import struct
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

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
    atomic_writer,
    check_encoded_dims,
    check_fields,
    config_from_meta,
    utf8_error,
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
    """64-bit FNV-1a over raw bytes.

    It seeds only the stub encoder's token vectors (:func:`hash64`) and the
    projection streams; changing it would change every vector.
    """
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
    w_tok_t, b_tok = params.tok_f64
    return (lm_vectors @ w_tok_t + b_tok).astype(np.float32)


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
    w_cls, b_cls = params.cls_f64
    v = w_cls @ lm_cls_vector + b_cls
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
}
_STUB_TYPES = {"seed": int, "window": int, "mix_weight": float}


def vocab_from_meta(vocab: dict, source: str) -> dict[str, int]:
    """Check the vocabulary rule: every token maps to an int id in [1, 2**31).

    Id 0 is reserved for unknown tokens, and indexes store ids as int32.
    """
    for token, token_id in vocab.items():
        if type(token_id) is not int:
            raise FormatError(f"{source}: token ids must be integers")
        if not 1 <= token_id < 2**31:
            raise FormatError(f"{source}: token {token!r} has id {token_id}, not in [1, 2**31)")
    return vocab


@dataclass(frozen=True)
class EncoderSpec:
    """Every setting that must match between corpus and query encoding.

    Its JSON form is the ``encoder`` key of a coil-enc header and the
    ``encoder_meta`` stored in an index; :meth:`to_meta` and :meth:`from_meta`
    are the only writer and reader of that layout.
    """

    tokenizer: TokenizerConfig
    stub: StubContextualizerConfig
    config: CoilConfig

    def projection(self) -> ProjectionParams:
        """The projection parameters these settings determine, seeded by the stub seed."""
        return seeded_projection(self.config, self.stub.seed)

    def to_meta(self) -> dict:
        """The JSON form written in a coil-enc header and stored as ``encoder_meta``."""
        return {
            "vocab": self.tokenizer.vocab,
            "lowercase": self.tokenizer.lowercase,
            "config": asdict(self.config),
            "stub": asdict(self.stub),
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
ENCODED_VERSION = 2

_FRAME = struct.Struct("<II")  # id byte length, token count


def write_encoded(
    docs: Iterable[EncodedDocument],
    path: str | Path,
    n_t: int,
    n_c: int,
    encoder: EncoderSpec | None = None,
) -> int:
    """Write the header line plus one binary record per document; returns the count.

    The header holds ``encoder.to_meta()`` under ``encoder`` when one is given.
    A record is the id's UTF-8 byte length and the token count m as ``<u4``,
    then the id, m ``<i4`` token ids, m * n_t ``<f4`` token vector entries
    and, when n_c >= 1, n_c ``<f4`` cls_vec entries.  Vectors are cast to
    float32 as :func:`~coil.index.build_index` casts them.  The file is
    replaced only once every record is written.
    """
    header = {"format": ENCODED_FORMAT, "version": ENCODED_VERSION, "n_t": n_t, "n_c": n_c}
    if encoder is not None:
        if (encoder.config.n_t, encoder.config.n_c) != (n_t, n_c):
            raise ValidationError(f"encoder settings disagree with n_t={n_t}, n_c={n_c}")
        header["encoder"] = encoder.to_meta()
    count = 0
    with atomic_writer(path, binary=True) as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for doc in docs:
            check_encoded_dims(f"document {doc.doc_id!r}", doc, n_t, n_c)
            doc_id = doc.doc_id.encode("utf-8")
            fh.write(_FRAME.pack(len(doc_id), len(doc.token_ids)) + doc_id)
            fh.write(doc.token_ids.astype("<i4").tobytes())
            fh.write(doc.token_vecs.astype("<f4").tobytes())
            if n_c > 0:
                fh.write(doc.cls_vec.astype("<f4").tobytes())
            count += 1
    return count


def _parse_header(path: str | Path, fh: BinaryIO) -> dict:
    """:func:`read_encoded_header` on the first line of ``fh``, which the
    caller may go on reading.  A file that is not regular, such as a pipe,
    is refused: it cannot be read again for the records after its header,
    nor sized for their truncation check."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        raise FormatError(f"{path}: not a regular file")
    where = f"{path}: line 1"
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise utf8_error(where, exc) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid header JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != ENCODED_FORMAT:
        raise FormatError(f"{where}: not a {ENCODED_FORMAT} file")
    if header.get("version") != ENCODED_VERSION:
        raise FormatError(f"{where}: unsupported version {header.get('version')!r}")
    n_t, n_c = header.get("n_t"), header.get("n_c")
    # the CoilConfig rule; bools are ints to Python
    if type(n_t) is not int or type(n_c) is not int or min(n_t, n_c) < 0 or n_t == n_c == 0:
        raise FormatError(f"{where}: header n_t/n_c must be non-negative ints, not both 0")
    if "encoder" in header:
        spec = header["encoder"] = EncoderSpec.from_meta(header["encoder"], f"{where}: encoder")
        if (spec.config.n_t, spec.config.n_c) != (n_t, n_c):
            raise FormatError(f"{where}: encoder settings disagree with the header's n_t/n_c")
    return header


def read_encoded_header(path: str | Path) -> dict:
    """Parse and check line 1 of a coil-enc file; an ``encoder`` key comes
    back as an :class:`EncoderSpec`."""
    with open(path, "rb") as fh:
        return _parse_header(path, fh)


def ingest_encoded(path: str | Path) -> Iterator[EncodedDocument]:
    """Stream EncodedDocuments from a coil-enc file, validating against its header.

    A record whose lengths run past the end of the file raises FormatError
    before its body is read.
    """
    with open(path, "rb") as fh:
        header = _parse_header(path, fh)
        n_t, n_c = header["n_t"], header["n_c"]
        size = os.fstat(fh.fileno()).st_size
        for number in itertools.count(1):
            frame = fh.read(_FRAME.size)
            if not frame:
                return
            where = f"{path}: record {number}"
            if len(frame) < _FRAME.size:
                raise FormatError(f"{where}: truncated")
            id_len, m = _FRAME.unpack(frame)
            vecs_at = id_len + 4 * m
            cls_at = vecs_at + 4 * m * n_t
            body = cls_at + 4 * n_c
            left = size - fh.tell()
            if body > left:
                raise FormatError(f"{where}: truncated: {body} bytes declared, {left} left")
            data = bytearray(fh.read(body))  # so the record's arrays are writable
            try:
                doc = EncodedDocument(
                    data[:id_len].decode("utf-8"),
                    np.frombuffer(data, "<i4", m, id_len),
                    np.frombuffer(data, "<f4", m * n_t, vecs_at).reshape(m, n_t),
                    np.frombuffer(data, "<f4", n_c, cls_at) if n_c else None,
                )
            except UnicodeDecodeError as exc:
                raise utf8_error(f"{where}: id", exc) from None
            except ValidationError as exc:
                raise FormatError(f"{where}: {exc}") from exc
            yield doc
