from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from coil import (
    CoilConfig,
    Document,
    EncodedDocument,
    EncodedQuery,
    EncoderSpec,
    FormatError,
    ProjectionParams,
    Query,
    StubContextualizerConfig,
    TokenizerConfig,
    UNKNOWN_TOKEN_ID,
    ValidationError,
    build_index,
    build_vocab,
    contextualize,
    encode_document,
    encode_query,
    ingest_encoded,
    seeded_projection,
    tokenize,
    write_encoded,
)
from coil.core import TokenSeq
from coil.encoding import (
    fnv1a64,
    hash64,
    project_cls,
    project_tokens,
    read_encoded_header,
    split_text,
    splitmix64_unit_floats,
    token_base_vector,
)
from synth import coil_enc_bytes, coil_enc_record

MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64_reference(data: bytes, state: int = 0xCBF29CE484222325) -> int:
    for byte in data:
        state = ((state ^ byte) * 0x100000001B3) & MASK
    return state


def splitmix64_reference(state: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestHashing:
    def test_fnv_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_fnv_matches_bytewise_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            data = rng.integers(0, 256, int(rng.integers(0, 64))).astype(np.uint8)
            assert fnv1a64(data.tobytes()) == fnv1a64_reference(data.tobytes())

    def test_hash64_chains_seed_then_value(self):
        seed, value = 7, 123
        expected = fnv1a64_reference(
            value.to_bytes(8, "little"),
            fnv1a64_reference(seed.to_bytes(8, "little")),
        )
        assert hash64(seed, value) == expected

    def test_splitmix_matches_scalar_reference(self):
        for state in (0, 1, 1234567, 2**63):
            got = splitmix64_unit_floats(state, 8)
            want = [u * 2.0**-63 - 1.0 for u in splitmix64_reference(state, 8)]
            np.testing.assert_array_equal(got, np.asarray(want))

    def test_splitmix_outputs_in_unit_interval(self):
        vals = splitmix64_unit_floats(99, 4096)
        assert np.all(vals >= -1.0) and np.all(vals < 1.0)


class TestSplitText:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Cabinet is 20x60.", ["cabinet", "is", "20x60", "."]),
            ("", []),
            ("apple  apple", ["apple", "apple"]),
            ("Hello, world!", ["hello", ",", "world", "!"]),
            ("(nested) 'quotes'", ["(", "nested", ")", "'", "quotes", "'"]),
            ("a...b", ["a...b"]),
            ("...", [".", ".", "."]),
            ("tab\tand\nnewline", ["tab", "and", "newline"]),
        ],
    )
    def test_split_rule(self, text, expected):
        assert split_text(text) == expected

    def test_lowercase_can_be_disabled(self):
        assert split_text("Hello", lowercase=False) == ["Hello"]


class TestVocabulary:
    def test_first_occurrence_order_from_id_one(self):
        cfg = build_vocab(["b a", "c a"])
        assert cfg.vocab == {"b": 1, "a": 2, "c": 3}

    def test_unknown_maps_to_reserved_zero(self):
        cfg = build_vocab(["apple pie"])
        seq = tokenize("apple unseen", cfg)
        assert seq.token_ids == (cfg.vocab["apple"], UNKNOWN_TOKEN_ID)

    def test_zero_never_assigned(self):
        cfg = build_vocab([" ".join(f"t{i}" for i in range(100))])
        assert 0 not in cfg.vocab.values()
        assert sorted(cfg.vocab.values()) == list(range(1, 101))

    def test_tokenize_empty_text(self):
        assert len(tokenize("", build_vocab(["a"]))) == 0

    def test_repeated_token_gets_same_id(self):
        cfg = build_vocab(["apple apple"])
        seq = tokenize("apple  apple", cfg)
        assert seq.token_ids[0] == seq.token_ids[1]


class TestBaseVectors:
    def test_unit_norm(self):
        for tid in (1, 2, 77):
            vec = token_base_vector(0, tid, 12)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_deterministic_and_distinct(self):
        a = token_base_vector(5, 3, 16)
        b = token_base_vector(5, 3, 16)
        c = token_base_vector(5, 4, 16)
        d = token_base_vector(6, 3, 16)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_derives_from_hash_seeded_stream(self):
        tid, seed, n_lm = 9, 2, 6
        raw = np.asarray(
            [u * 2.0**-63 - 1.0 for u in splitmix64_reference(hash64(seed, tid), n_lm)]
        )
        expected = raw / np.linalg.norm(raw)
        np.testing.assert_array_equal(token_base_vector(seed, tid, n_lm), expected)


class TestContextualize:
    def _seq(self, ids):
        return TokenSeq(tuple(ids))

    def test_window_zero_gives_bases_exactly(self):
        cfg = StubContextualizerConfig(seed=1, window=0, mix_weight=0.5)
        seq = self._seq([1, 2, 3])
        out, _ = contextualize(seq, cfg, 8)
        for i, tid in enumerate(seq.token_ids):
            np.testing.assert_array_equal(out[i], token_base_vector(1, tid, 8))

    def test_mix_weight_zero_gives_bases_exactly(self):
        cfg = StubContextualizerConfig(seed=1, window=2, mix_weight=0.0)
        seq = self._seq([4, 5, 6, 7])
        out, _ = contextualize(seq, cfg, 8)
        for i, tid in enumerate(seq.token_ids):
            np.testing.assert_array_equal(out[i], token_base_vector(1, tid, 8))

    def test_single_token_has_no_neighbors(self):
        cfg = StubContextualizerConfig(seed=3, window=2, mix_weight=0.9)
        out, _ = contextualize(self._seq([5]), cfg, 8)
        np.testing.assert_array_equal(out[0], token_base_vector(3, 5, 8))

    def test_blend_matches_hand_formula(self):
        seed, n_lm, mw = 11, 6, 0.25
        cfg = StubContextualizerConfig(seed=seed, window=1, mix_weight=mw)
        seq = self._seq([1, 2, 3])
        bases = [token_base_vector(seed, t, n_lm) for t in seq.token_ids]
        out, cls_slot = contextualize(seq, cfg, n_lm)

        def unit(v):
            n = np.linalg.norm(v)
            return v / n if n else v

        np.testing.assert_array_equal(out[0], unit((1 - mw) * bases[0] + mw * bases[1]))
        np.testing.assert_array_equal(
            out[1], unit((1 - mw) * bases[1] + mw * (bases[0] + bases[2]) / 2)
        )
        np.testing.assert_array_equal(out[2], unit((1 - mw) * bases[2] + mw * bases[1]))
        np.testing.assert_array_equal(cls_slot, unit(out.mean(axis=0)))

    def test_same_token_differs_by_context(self):
        cfg = StubContextualizerConfig(seed=0, window=1, mix_weight=0.5)
        out, _ = contextualize(self._seq([9, 1, 9, 2, 9]), cfg, 8)
        assert not np.array_equal(out[0], out[2])
        assert not np.array_equal(out[2], out[4])

    def test_permuting_tokens_permutes_bases(self):
        cfg = StubContextualizerConfig(seed=4, window=0, mix_weight=0.0)
        fwd, _ = contextualize(self._seq([1, 2, 3]), cfg, 8)
        rev, _ = contextualize(self._seq([3, 2, 1]), cfg, 8)
        np.testing.assert_array_equal(fwd, rev[::-1])

    def test_empty_sequence_yields_zero_cls_slot(self):
        cfg = StubContextualizerConfig(seed=0)
        out, cls_slot = contextualize(TokenSeq(()), cfg, 8)
        assert out.shape == (0, 8)
        np.testing.assert_array_equal(cls_slot, np.zeros(8))

    def test_bitwise_reproducible(self):
        cfg = StubContextualizerConfig(seed=12345, window=3, mix_weight=0.7)
        seq = self._seq(list(range(1, 20)))
        a, ca = contextualize(seq, cfg, 16)
        b, cb = contextualize(seq, cfg, 16)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ca, cb)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window=-1),
            dict(mix_weight=-0.1),
            dict(mix_weight=1.1),
            dict(window=2.0),
            dict(window=True),
            dict(window="2"),
            dict(seed=1.5),
            dict(seed=True),
            dict(seed=None),
            dict(mix_weight=True),
            dict(mix_weight="0.5"),
            dict(mix_weight=None),
            dict(mix_weight=float("nan")),
        ],
    )
    def test_config_range_validation(self, kwargs):
        with pytest.raises(ValidationError):
            StubContextualizerConfig(**{"seed": 0, **kwargs})

    @pytest.mark.parametrize("mix_weight", [0, 1, 0.25, np.float64(0.25)])
    def test_real_mix_weights_are_accepted(self, mix_weight):
        assert StubContextualizerConfig(mix_weight=mix_weight).mix_weight == mix_weight


class TestProjections:
    def test_identity_projection_passthrough(self):
        params = ProjectionParams(
            w_tok=np.eye(3, dtype=np.float32),
            b_tok=np.zeros(3, dtype=np.float32),
            w_cls=np.zeros((0, 3), dtype=np.float32),
            b_cls=np.zeros(0, dtype=np.float32),
        )
        x = np.asarray([[0.25, -1.5, 3.0]])
        np.testing.assert_array_equal(project_tokens(x, params), x.astype(np.float32))

    def test_constant_map(self):
        params = ProjectionParams(
            w_tok=np.zeros((2, 3), dtype=np.float32),
            b_tok=np.asarray([5.0, -1.0], dtype=np.float32),
            w_cls=np.zeros((0, 3), dtype=np.float32),
            b_cls=np.zeros(0, dtype=np.float32),
        )
        out = project_tokens(np.ones((4, 3)), params)
        np.testing.assert_array_equal(out, np.tile([5.0, -1.0], (4, 1)).astype(np.float32))

    def test_hand_matrix_vector_product(self):
        params = ProjectionParams(
            w_tok=np.asarray([[1, 0, 0], [0, 1, 0]], dtype=np.float32),
            b_tok=np.asarray([1, 1], dtype=np.float32),
            w_cls=np.zeros((0, 3), dtype=np.float32),
            b_cls=np.zeros(0, dtype=np.float32),
        )
        out = project_tokens(np.asarray([[2.0, 3.0, 4.0]]), params)
        np.testing.assert_array_equal(out, np.asarray([[3.0, 4.0]], dtype=np.float32))

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(42)
        params = ProjectionParams(
            w_tok=rng.normal(size=(4, 6)).astype(np.float32),
            b_tok=np.zeros(4, dtype=np.float32),
            w_cls=np.zeros((0, 6), dtype=np.float32),
            b_cls=np.zeros(0, dtype=np.float32),
        )
        x, y = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        lhs = project_tokens(2.0 * x + 3.0 * y, params)
        rhs = 2.0 * project_tokens(x, params) + 3.0 * project_tokens(y, params)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)

    def test_dimension_mismatch(self):
        params = ProjectionParams(
            w_tok=np.zeros((2, 3), dtype=np.float32),
            b_tok=np.zeros(2, dtype=np.float32),
            w_cls=np.zeros((0, 3), dtype=np.float32),
            b_cls=np.zeros(0, dtype=np.float32),
        )
        with pytest.raises(ValidationError):
            project_tokens(np.zeros((1, 4)), params)

    def test_cls_layer_norm_hand_case(self):
        params = ProjectionParams(
            w_tok=np.zeros((0, 2), dtype=np.float32),
            b_tok=np.zeros(0, dtype=np.float32),
            w_cls=np.eye(2, dtype=np.float32),
            b_cls=np.zeros(2, dtype=np.float32),
        )
        out = project_cls(np.asarray([1.0, 3.0]), params, cls_layer_norm=True)
        expected = np.asarray([-1.0, 1.0]) / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out, expected.astype(np.float32), rtol=1e-6)

    def test_cls_layer_norm_constant_vector_is_zero(self):
        params = ProjectionParams(
            w_tok=np.zeros((0, 3), dtype=np.float32),
            b_tok=np.zeros(0, dtype=np.float32),
            w_cls=np.eye(3, dtype=np.float32),
            b_cls=np.zeros(3, dtype=np.float32),
        )
        out = project_cls(np.asarray([4.0, 4.0, 4.0]), params, cls_layer_norm=True)
        np.testing.assert_array_equal(out, np.zeros(3, dtype=np.float32))

    def test_cls_passthrough_without_layer_norm(self):
        params = ProjectionParams(
            w_tok=np.zeros((0, 2), dtype=np.float32),
            b_tok=np.zeros(0, dtype=np.float32),
            w_cls=np.eye(2, dtype=np.float32),
            b_cls=np.zeros(2, dtype=np.float32),
        )
        out = project_cls(np.asarray([1.5, -2.0]), params, cls_layer_norm=False)
        np.testing.assert_array_equal(out, np.asarray([1.5, -2.0], dtype=np.float32))

    def test_seeded_projection_shapes_and_determinism(self):
        cfg = CoilConfig(n_lm=16, n_t=4, n_c=8)
        a = seeded_projection(cfg, 7)
        b = seeded_projection(cfg, 7)
        c = seeded_projection(cfg, 8)
        assert a.w_tok.shape == (4, 16) and a.w_cls.shape == (8, 16)
        assert a.w_tok.dtype == np.float32
        np.testing.assert_array_equal(a.w_tok, b.w_tok)
        np.testing.assert_array_equal(a.b_cls, b.b_cls)
        assert not np.array_equal(a.w_tok, c.w_tok)


def _setup(n_t=4, n_c=3, max_doc_tokens=512, texts=("apple pie", "banana split")):
    docs = [Document(f"d{i}", t) for i, t in enumerate(texts)]
    cfg = CoilConfig(n_lm=8, n_t=n_t, n_c=n_c, max_doc_tokens=max_doc_tokens,
                     mode="full" if n_t and n_c else ("tok" if n_t else "cls_only"))
    tok = build_vocab((d.text for d in docs))
    stub = StubContextualizerConfig(seed=0)
    params = seeded_projection(cfg, 0)
    return docs, cfg, tok, stub, params


class TestEncode:
    def test_shapes_and_cls_presence(self):
        docs, cfg, tok, stub, params = _setup()
        enc = encode_document(docs[0], tok, stub, params, cfg)
        assert enc.token_vecs.shape == (2, 4)
        assert enc.token_vecs.dtype == np.float32
        assert enc.cls_vec.shape == (3,)

    def test_n_c_zero_drops_cls(self):
        docs, cfg, tok, stub, params = _setup(n_c=0)
        enc = encode_document(docs[0], tok, stub, params, cfg)
        assert enc.cls_vec is None

    def test_truncation_to_max_doc_tokens(self):
        long_text = " ".join(f"t{i}" for i in range(600))
        docs, cfg, tok, stub, params = _setup(max_doc_tokens=512, texts=(long_text,))
        enc = encode_document(docs[0], tok, stub, params, cfg)
        assert len(enc.token_ids) == 512
        assert enc.token_vecs.shape[0] == 512

    def test_queries_are_not_truncated(self):
        long_text = " ".join(f"t{i}" for i in range(600))
        _, cfg, tok, stub, params = _setup(max_doc_tokens=10, texts=(long_text,))
        enc = encode_query(Query("q", long_text), tok, stub, params, cfg)
        assert len(enc.token_ids) == 600

    def test_empty_document(self):
        docs, cfg, tok, stub, params = _setup(texts=("", "other words"))
        enc = encode_document(docs[0], tok, stub, params, cfg)
        assert enc.token_vecs.shape == (0, 4)
        # CLS comes from projecting the zero vector
        expected = project_cls(np.zeros(8), params, cfg.cls_layer_norm)
        np.testing.assert_array_equal(enc.cls_vec, expected)

    def test_deterministic(self):
        docs, cfg, tok, stub, params = _setup()
        a = encode_document(docs[0], tok, stub, params, cfg)
        b = encode_document(docs[0], tok, stub, params, cfg)
        np.testing.assert_array_equal(a.token_vecs, b.token_vecs)
        np.testing.assert_array_equal(a.cls_vec, b.cls_vec)

    def test_cached_float64_weights_give_the_uncached_bytes(self):
        cfg = CoilConfig(n_lm=96, n_t=32, n_c=96)
        tok = build_vocab(["apple pie with banana split", "pie"])
        stub = StubContextualizerConfig(seed=3)
        params = seeded_projection(cfg, 3)
        w_tok_t, _ = params.tok_f64
        assert w_tok_t.flags.f_contiguous and params.tok_f64[0] is w_tok_t
        for text in ("apple pie with banana split", "pie pie unknown", ""):
            lm_vecs, cls_slot = contextualize(tokenize(text, tok), stub, cfg.n_lm)
            lm_vecs = lm_vecs.reshape(-1, cfg.n_lm).astype(np.float64)
            token_vecs = (
                lm_vecs @ params.w_tok.T.astype(np.float64) + params.b_tok.astype(np.float64)
            ).astype(np.float32)
            cls_vec = (
                params.w_cls.astype(np.float64) @ cls_slot + params.b_cls.astype(np.float64)
            ).astype(np.float32)
            for enc in (
                encode_document(Document("d", text), tok, stub, params, cfg),
                encode_query(Query("q", text), tok, stub, params, cfg),
            ):
                assert enc.token_vecs.tobytes() == token_vecs.tobytes()
                assert enc.cls_vec.tobytes() == cls_vec.tobytes()


    def test_encoders_call_contextualize_through_the_module_attribute(self, monkeypatch):
        # coilbench's tracer counts encoding.contextualize_s and
        # encoding.tokens_encoded by replacing this attribute
        import coil.encoding

        lengths = []
        original = coil.encoding.contextualize

        def counting(seq, cfg, n_lm):
            lengths.append(len(seq))
            return original(seq, cfg, n_lm)

        monkeypatch.setattr(coil.encoding, "contextualize", counting)
        docs, cfg, tok, stub, params = _setup(
            max_doc_tokens=3, texts=("apple pie", "a b c d e", "")
        )
        for doc in docs:
            encode_document(doc, tok, stub, params, cfg)
        encode_query(Query("q1", "a b c d e pie"), tok, stub, params, cfg)
        encode_query(Query("q2", ""), tok, stub, params, cfg)
        assert lengths == [2, 3, 0, 6, 0]


class TestEncodedRecordIo:
    def _encode_all(self, n_t=4, n_c=3):
        docs, cfg, tok, stub, params = _setup(n_t=n_t, n_c=n_c)
        return cfg, [encode_document(d, tok, stub, params, cfg) for d in docs]

    def test_roundtrip_exact(self, tmp_path):
        cfg, encoded = self._encode_all()
        path = tmp_path / "enc.jsonl"
        assert write_encoded(encoded, path, cfg.n_t, cfg.n_c) == 2
        loaded = list(ingest_encoded(path))
        assert len(loaded) == 2
        for orig, back in zip(encoded, loaded):
            assert back.doc_id == orig.doc_id
            np.testing.assert_array_equal(back.token_ids, orig.token_ids)
            np.testing.assert_array_equal(back.token_vecs, orig.token_vecs)
            np.testing.assert_array_equal(back.cls_vec, orig.cls_vec)
            assert back.token_vecs.dtype == np.float32
            assert back.token_ids.flags.writeable and back.token_vecs.flags.writeable

    def test_record_bytes_golden(self, tmp_path):
        # -0.0, the largest float32 and the smallest subnormal keep their bits,
        # and a record without tokens is its frame, id and cls_vec alone
        docs = [
            EncodedDocument(
                "dé",
                np.array([3, 0], np.int32),
                np.array([[0.1, -0.0], [1e-7, -2.5]], np.float32),
                np.array([np.finfo(np.float32).max, 2.0**-149, 0.0], np.float32),
            ),
            EncodedDocument(
                "d2",
                np.zeros(0, np.int32),
                np.zeros((0, 2), np.float32),
                np.array([1.0, -1.0, 0.5], np.float32),
            ),
        ]
        path = tmp_path / "enc.jsonl"
        write_encoded(docs, path, 2, 3)
        header = b'{"format": "coil-enc", "version": 2, "n_t": 2, "n_c": 3}\n'
        assert path.read_bytes() == header + (
            bytes.fromhex(
                "03000000 02000000"  # id byte length 3, two tokens
                "64c3a9"  # "dé" in UTF-8
                "03000000 00000000"  # token ids 3, 0
                "cdcccc3d 00000080 95bfd633 000020c0"  # 0.1, -0.0, 1e-7, -2.5
                "ffff7f7f 01000000 00000000"  # float32 max, 2**-149, 0.0
                "02000000 00000000 6432"  # "d2", no tokens
                "0000803f 000080bf 0000003f"  # 1.0, -1.0, 0.5
            )
        )
        for doc, back in zip(docs, ingest_encoded(path), strict=True):
            assert back.doc_id == doc.doc_id
            for field in ("token_ids", "token_vecs", "cls_vec"):
                assert getattr(back, field).dtype == getattr(doc, field).dtype
                assert getattr(back, field).tobytes() == getattr(doc, field).tobytes()
            assert back.token_vecs.shape == doc.token_vecs.shape

    @pytest.mark.parametrize("n_c", [3, 0])
    def test_readme_producer_writes_what_write_encoded_writes(self, tmp_path, monkeypatch, n_c):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Encoded records") :]
        producer = section[section.index("```python\n") + 10 : section.index("```\n\n")]
        cfg, encoded = self._encode_all(n_c=n_c)
        docs = [(d.doc_id, d.token_ids, d.token_vecs, d.cls_vec) for d in encoded]
        monkeypatch.chdir(tmp_path)
        exec(producer, {"json": json, "np": np, "docs": docs, "n_t": cfg.n_t, "n_c": n_c})
        write_encoded(encoded, tmp_path / "ref.enc", cfg.n_t, n_c)
        assert (tmp_path / "corpus.enc").read_bytes() == (tmp_path / "ref.enc").read_bytes()

    def test_roundtrip_without_cls(self, tmp_path):
        cfg, encoded = self._encode_all(n_c=0)
        path = tmp_path / "enc.jsonl"
        write_encoded(encoded, path, cfg.n_t, 0)
        header = {"format": "coil-enc", "version": 2, "n_t": cfg.n_t, "n_c": 0}
        records = [coil_enc_record(d.doc_id, d.token_ids, d.token_vecs) for d in encoded]
        assert path.read_bytes() == coil_enc_bytes(header, *records)
        assert all(d.cls_vec is None for d in ingest_encoded(path))

    def test_header_contents(self, tmp_path):
        cfg, encoded = self._encode_all()
        path = tmp_path / "enc.jsonl"
        write_encoded(encoded, path, cfg.n_t, cfg.n_c)
        header = read_encoded_header(path)
        assert header["format"] == "coil-enc"
        assert header["version"] == 2
        assert (header["n_t"], header["n_c"]) == (4, 3)

    def test_empty_corpus_header_only(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        assert write_encoded([], path, 4, 3) == 0
        assert len(path.read_text().splitlines()) == 1
        assert list(ingest_encoded(path)) == []

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text('{"format":"other","version":2,"n_t":4,"n_c":3}\n')
        with pytest.raises(FormatError, match="not a coil-enc file"):
            list(ingest_encoded(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text('{"format":"coil-enc","version":1,"n_t":4,"n_c":3}\n')
        with pytest.raises(FormatError, match="line 1: unsupported version 1$"):
            list(ingest_encoded(path))

    def _write(self, path, n_c, *records):
        header = {"format": "coil-enc", "version": 2, "n_t": 2, "n_c": n_c}
        path.write_bytes(coil_enc_bytes(header, *records))

    # a record written for other dims shifts every frame after it, so it
    # reads as a truncated record, never as a document with the wrong shape
    def test_dimension_mismatch_names_record(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        self._write(path, 0, coil_enc_record("d0", [1], [[0.5, 0.5, 0.5]]))
        with pytest.raises(FormatError, match="enc.jsonl: record 2: truncated"):
            list(ingest_encoded(path))

    def test_token_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        self._write(path, 0, coil_enc_record("d0", [1, 2], [[0.5, 0.5]]))
        with pytest.raises(FormatError, match="record 1: truncated"):
            list(ingest_encoded(path))

    def test_unexpected_cls_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        self._write(path, 0, coil_enc_record("d0", [1], [[0.5, 0.5]], [1.0]))
        with pytest.raises(FormatError, match="record 2: truncated"):
            list(ingest_encoded(path))

    def test_missing_cls_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        self._write(path, 2, coil_enc_record("d0", [1], [[0.5, 0.5]]))
        with pytest.raises(FormatError, match="record 1: truncated"):
            list(ingest_encoded(path))

    @pytest.mark.parametrize(
        "record, message",
        [
            (coil_enc_record("", [1], [[0.5, 0.5]]), "non-empty"),
            (coil_enc_record("d 0", [1], [[0.5, 0.5]]), "whitespace"),
            (coil_enc_record("d\x00", [1], [[0.5, 0.5]]), "control characters"),
            (coil_enc_record(b"d\xff", [1], [[0.5, 0.5]]), r"id: not UTF-8 \(byte 2: invalid start byte\)"),
            (coil_enc_record("d0", [1], [[np.nan, 0.5]]), "non-finite token"),
            (coil_enc_record("d0", [-3], [[0.5, 0.5]]), "non-negative integers"),
            (np.array([2**32 - 1, 0], "<u4").tobytes() + b"d", "truncated"),
            (np.array([1, 2**32 - 1], "<u4").tobytes() + b"d", "truncated"),
            (coil_enc_record("d0", [1], [[0.5, 0.5]])[:-1], "truncated"),
            (b"\x02\x00\x00\x00\x01", "truncated"),
        ],
        ids=[
            "empty-id",
            "whitespace-id",
            "nul-id",
            "non-utf8-id",
            "nan-token-vector",
            "negative-token-id",
            "id-length-past-the-end",
            "token-count-past-the-end",
            "body-cut-short",
            "frame-cut-short",
        ],
    )
    def test_bad_record_rejected_with_number(self, tmp_path, record, message):
        path = tmp_path / "enc.jsonl"
        good = coil_enc_record("a", [1], [[0.5, 0.5]])
        self._write(path, 0, good, record)
        with pytest.raises(FormatError, match=f"enc.jsonl: record 2: .*{message}"):
            list(ingest_encoded(path))

    def test_non_finite_cls_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        self._write(path, 2, coil_enc_record("d0", [1], [[0.5, 0.5]], [np.inf, 0.0]))
        with pytest.raises(FormatError, match="record 1: document 'd0': non-finite cls_vec"):
            list(ingest_encoded(path))

    @pytest.mark.parametrize(
        "text", ["", '\n{"format":"coil-enc","version":2,"n_t":2,"n_c":0}\n', "not json\n"]
    )
    def test_header_must_be_line_1(self, tmp_path, text):
        path = tmp_path / "enc.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError, match="line 1: invalid header JSON"):
            list(ingest_encoded(path))

    def test_non_utf8_header_names_line_1(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_bytes(b'{"format":"coil-enc","\xff":1}\n')
        message = f"{re.escape(str(path))}: line 1: not UTF-8 \\(byte 23: invalid start byte\\)"
        for read in (read_encoded_header, lambda p: list(ingest_encoded(p))):
            with pytest.raises(FormatError, match=message):
                read(path)

    @pytest.mark.parametrize(
        "edit, n_c",
        [
            ({"token_vecs": [[float("nan"), 0.5]]}, 0),
            ({"cls_vec": [float("inf"), 0.0]}, 2),
            ({"token_ids": [-3]}, 0),
            ({"cls_vec": [1.0, 0.0]}, 0),
        ],
        ids=["nan-token-vector", "inf-cls-entry", "negative-token-id", "cls-vec-with-n_c-0"],
    )
    def test_library_and_file_routes_agree(self, tmp_path, edit, n_c):
        fields = {"token_ids": [1], "token_vecs": [[0.5, 0.5]]}
        if n_c:
            fields["cls_vec"] = [0.5, 0.5]
        fields.update(edit)

        def record():
            return EncodedDocument(
                "d0",
                np.asarray(fields["token_ids"], np.int32),
                np.asarray(fields["token_vecs"], np.float32),
                np.asarray(fields["cls_vec"], np.float32) if "cls_vec" in fields else None,
            )

        config = CoilConfig(n_lm=4, n_t=2, n_c=n_c)
        with pytest.raises(ValidationError, match="document 'd0'"):
            build_index([record()], config)
        with pytest.raises(ValidationError, match="document 'd0'"):
            write_encoded([record()], tmp_path / "out.jsonl", 2, n_c)
        path = tmp_path / "enc.jsonl"
        self._write(path, n_c, coil_enc_record("d0", *fields.values()))
        with pytest.raises(FormatError, match=r"enc.jsonl: record \d: "):
            list(ingest_encoded(path))

    @pytest.mark.parametrize(
        "token_ids, token_vecs, cls_vec, message",
        [
            ([1], [[1e39, 0.5]], None, "token vector entry beyond the float32 range"),
            ([1], [[0.5, 0.5]], [-1e39, 0.0], "cls_vec entry beyond the float32 range"),
            ([2**31], [[0.5, 0.5]], None, "token id 2147483648 does not fit in int32"),
        ],
        ids=["float64-token-vector", "float64-cls-entry", "token-id-2**31"],
    )
    @pytest.mark.parametrize(
        "kind, record", [("document", EncodedDocument), ("query", EncodedQuery)]
    )
    def test_values_past_the_stored_types_rejected(
        self, kind, record, token_ids, token_vecs, cls_vec, message
    ):
        """Values that the float32 / int32 cast of a record would turn into
        inf or wrap raise ValidationError when the record is built, and no
        numpy warning; so no writer or index ever sees them."""
        with pytest.raises(ValidationError, match=f"^{kind} 'd0': {message}$"):
            record(
                "d0",
                np.asarray(token_ids, np.int64),
                np.asarray(token_vecs, np.float64),
                None if cls_vec is None else np.asarray(cls_vec, np.float64),
            )

    def test_records_hold_the_stored_types(self, tmp_path):
        """A record stores float64 vectors as their float32 cast and int64 ids
        as int32, and keeps float32 and int32 arrays as given, uncopied."""
        vecs = np.asarray([[0.1, 1 / 3]])
        wide = EncodedDocument("d0", np.asarray([7], np.int64), vecs, vecs[0])
        assert wide.token_ids.dtype == np.int32 and wide.token_ids.tolist() == [7]
        for stored in (wide.token_vecs, wide.cls_vec):
            assert stored.dtype == np.float32
            assert stored.tobytes() == vecs.astype(np.float32).tobytes()
        ids, narrow = np.asarray([7], np.int32), vecs.astype(np.float32)
        query = EncodedQuery("q0", ids, narrow, narrow[0])
        assert query.token_ids is ids and query.token_vecs is narrow
        assert query.cls_vec is not None and np.shares_memory(query.cls_vec, narrow)
        # the coil-enc file holds the float32 values the record holds
        write_encoded([wide], tmp_path / "out.enc", 2, 2)
        (read,) = ingest_encoded(tmp_path / "out.enc")
        assert read.token_vecs.tobytes() == wide.token_vecs.tobytes()
        assert read.cls_vec.tobytes() == wide.cls_vec.tobytes()


class TestEncoderSpec:
    def _spec(self):
        return EncoderSpec(
            tokenizer=build_vocab(["apple pie"]),
            stub=StubContextualizerConfig(seed=4, window=1),
            config=CoilConfig(n_lm=8, n_t=4, n_c=0),
        )

    def test_meta_roundtrip(self):
        spec = self._spec()
        meta = json.loads(json.dumps(spec.to_meta()))
        assert meta["config"]["mode"] == "tok"
        assert EncoderSpec.from_meta(meta, "meta") == spec
        assert EncoderSpec.from_meta(meta, "meta").to_meta() == meta

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("stub"), "missing key 'stub'"),
            (lambda m: m.update(extra=1), "unknown key 'extra'"),
            (lambda m: m["config"].pop("n_lm"), "config: missing key 'n_lm'"),
            (lambda m: m["config"].update(n_t=True), "config: 'n_t' has the wrong type"),
            (lambda m: m["stub"].update(window="2"), "stub: 'window' has the wrong type"),
            (lambda m: m.update(projection_seed=4), "unknown key 'projection_seed'"),
            (lambda m: m["vocab"].update(pie="2"), "vocab: token ids must be integers"),
            (lambda m: m.update(lowercase=1), "'lowercase' has the wrong type"),
            (lambda m: m["config"].update(n_lm=2), "config: n_t must be <= n_lm"),
            (lambda m: m["config"].update(n_c=9, mode="full"), "config: n_c must be <= n_lm"),
            (lambda m: m["config"].update(n_t=0), "config: n_t and n_c cannot both be 0"),
            (lambda m: m["config"].update(mode="full"), "config: mode='full' disagrees"),
            (lambda m: m["config"].update(max_doc_tokens=0), "config: max_doc_tokens must be"),
            (lambda m: m["stub"].update(window=-1), "stub: window must be >= 0"),
            (lambda m: m["stub"].update(mix_weight=1.5), r"stub: mix_weight must be in \[0, 1\]"),
        ],
    )
    def test_from_meta_rejects_malformed(self, edit, message):
        meta = json.loads(json.dumps(self._spec().to_meta()))
        edit(meta)
        with pytest.raises(FormatError, match=f"^sidecar: {message}"):
            EncoderSpec.from_meta(meta, "sidecar")

    def test_from_meta_rejects_non_object(self):
        with pytest.raises(FormatError, match="expected a JSON object"):
            EncoderSpec.from_meta([], "sidecar")

    def test_coil_enc_header_carries_the_spec(self, tmp_path):
        spec, path = self._spec(), tmp_path / "enc.jsonl"
        assert write_encoded([], path, 4, 0, spec) == 0
        assert read_encoded_header(path)["encoder"] == spec
        with pytest.raises(ValidationError, match="disagree with n_t=4, n_c=2"):
            write_encoded([], path, 4, 2, spec)
        assert read_encoded_header(path)["encoder"] == spec

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h["encoder"].pop("stub"), "encoder: missing key 'stub'"),
            (lambda h: h["encoder"].update(vocab=[]), "encoder: 'vocab' has the wrong type"),
            (lambda h: h.update(n_t=2), "encoder settings disagree with the header's n_t/n_c"),
            (lambda h: h.update(n_t=True), "header n_t/n_c must be non-negative ints"),
            (lambda h: h.update(n_t=0), "header n_t/n_c must be .*not both 0"),
        ],
    )
    def test_bad_coil_enc_header_names_line_1(self, tmp_path, edit, message):
        path = tmp_path / "enc.jsonl"
        header = {"format": "coil-enc", "version": 2, "n_t": 4, "n_c": 0}
        header["encoder"] = self._spec().to_meta()
        edit(header)
        path.write_text(json.dumps(header) + "\n")
        for read in (read_encoded_header, lambda p: list(ingest_encoded(p))):
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 1: {message}"):
                read(path)
