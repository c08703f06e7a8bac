from __future__ import annotations

import json

import numpy as np
import pytest

from coil import (
    CoilConfig,
    Document,
    EncodedDocument,
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
        assert seq.tokens == ("apple", "unseen")
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
        return TokenSeq(tuple(f"t{i}" for i in ids), tuple(ids))

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
        out, cls_slot = contextualize(TokenSeq((), ()), cfg, 8)
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
        "kwargs", [dict(window=-1), dict(mix_weight=-0.1), dict(mix_weight=1.1)]
    )
    def test_config_range_validation(self, kwargs):
        with pytest.raises(ValidationError):
            StubContextualizerConfig(seed=0, **kwargs)


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

    def test_roundtrip_without_cls(self, tmp_path):
        cfg, encoded = self._encode_all(n_c=0)
        path = tmp_path / "enc.jsonl"
        write_encoded(encoded, path, cfg.n_t, 0)
        record = json.loads(path.read_text().splitlines()[1])
        assert "cls_vec" not in record
        assert all(d.cls_vec is None for d in ingest_encoded(path))

    def test_header_contents(self, tmp_path):
        cfg, encoded = self._encode_all()
        path = tmp_path / "enc.jsonl"
        write_encoded(encoded, path, cfg.n_t, cfg.n_c)
        header = read_encoded_header(path)
        assert header["format"] == "coil-enc"
        assert header["version"] == 1
        assert (header["n_t"], header["n_c"]) == (4, 3)

    def test_empty_corpus_header_only(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        assert write_encoded([], path, 4, 3) == 0
        assert len(path.read_text().splitlines()) == 1
        assert list(ingest_encoded(path)) == []

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text('{"format":"other","version":1,"n_t":4,"n_c":3}\n')
        with pytest.raises(FormatError, match="not a coil-enc file"):
            list(ingest_encoded(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text('{"format":"coil-enc","version":2,"n_t":4,"n_c":3}\n')
        with pytest.raises(FormatError, match="unsupported version"):
            list(ingest_encoded(path))

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text(
            '{"format":"coil-enc","version":1,"n_t":2,"n_c":0}\n'
            '{"id":"d0","token_ids":[1],"token_vecs":[[0.5,0.5,0.5]]}\n'
        )
        with pytest.raises(FormatError, match="line 2"):
            list(ingest_encoded(path))

    def test_token_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text(
            '{"format":"coil-enc","version":1,"n_t":2,"n_c":0}\n'
            '{"id":"d0","token_ids":[1,2],"token_vecs":[[0.5,0.5]]}\n'
        )
        with pytest.raises(FormatError, match="line 2"):
            list(ingest_encoded(path))

    def test_unexpected_cls_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text(
            '{"format":"coil-enc","version":1,"n_t":2,"n_c":0}\n'
            '{"id":"d0","token_ids":[1],"token_vecs":[[0.5,0.5]],"cls_vec":[1.0]}\n'
        )
        with pytest.raises(FormatError, match="line 2"):
            list(ingest_encoded(path))

    def test_missing_cls_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text(
            '{"format":"coil-enc","version":1,"n_t":2,"n_c":2}\n'
            '{"id":"d0","token_ids":[1],"token_vecs":[[0.5,0.5]]}\n'
        )
        with pytest.raises(FormatError, match="line 2"):
            list(ingest_encoded(path))

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id":5,"token_ids":[1],"token_vecs":[[0.5,0.5]]}', "id must be a string"),
            ('{"id":"","token_ids":[1],"token_vecs":[[0.5,0.5]]}', "non-empty"),
            ('{"id":"d 0","token_ids":[1],"token_vecs":[[0.5,0.5]]}', "whitespace"),
            ('{"id":"d0","token_ids":[1],"token_vecs":[[NaN,0.5]]}', "non-finite"),
            ('{"id":"d0","token_ids":[1],"token_vecs":[["x",0.5]]}', "malformed"),
            ('{"id":"d0","token_ids":[-3],"token_vecs":[[0.5,0.5]]}', "non-negative integers"),
            ('{"id":"d0","token_ids":[1.7],"token_vecs":[[0.5,0.5]]}', "non-negative integers"),
            ('{"id":"d0","token_ids":[true],"token_vecs":[[0.5,0.5]]}', "non-negative integers"),
            ('{"id":"d0","token_ids":1,"token_vecs":[[0.5,0.5]]}', "malformed"),
        ],
    )
    def test_bad_record_rejected_with_line(self, tmp_path, record, message):
        path = tmp_path / "enc.jsonl"
        path.write_text('{"format":"coil-enc","version":1,"n_t":2,"n_c":0}\n' + record + "\n")
        with pytest.raises(FormatError, match=f"line 2: .*{message}"):
            list(ingest_encoded(path))

    def test_non_finite_cls_rejected(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text(
            '{"format":"coil-enc","version":1,"n_t":2,"n_c":2}\n'
            '{"id":"d0","token_ids":[1],"token_vecs":[[0.5,0.5]],"cls_vec":[Infinity,0]}\n'
        )
        with pytest.raises(FormatError, match="line 2: document 'd0': non-finite cls_vec"):
            list(ingest_encoded(path))

    @pytest.mark.parametrize(
        "text", ["", '\n{"format":"coil-enc","version":1,"n_t":2,"n_c":0}\n', "not json\n"]
    )
    def test_header_must_be_line_1(self, tmp_path, text):
        path = tmp_path / "enc.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError, match="line 1: invalid header JSON"):
            list(ingest_encoded(path))

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
        header = {"format": "coil-enc", "version": 1, "n_t": 2, "n_c": n_c}
        path.write_text(json.dumps(header) + "\n" + json.dumps({"id": "d0", **fields}) + "\n")
        with pytest.raises(FormatError, match="enc.jsonl: line 2: "):
            list(ingest_encoded(path))

    def test_invalid_json_record_names_line(self, tmp_path):
        path = tmp_path / "enc.jsonl"
        path.write_text(
            '{"format":"coil-enc","version":1,"n_t":2,"n_c":0}\nnot json\n'
        )
        with pytest.raises(FormatError, match="line 2.*invalid JSON"):
            list(ingest_encoded(path))


class TestEncoderSpec:
    def _spec(self):
        return EncoderSpec(
            tokenizer=build_vocab(["apple pie"]),
            stub=StubContextualizerConfig(seed=4, window=1),
            config=CoilConfig(n_lm=8, n_t=4, n_c=0),
            projection_seed=9,
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
            (lambda m: m.update(projection_seed=1.0), "'projection_seed' has the wrong type"),
            (lambda m: m["vocab"].update(pie="2"), "vocab: token ids must be integers"),
            (lambda m: m.update(lowercase=1), "'lowercase' has the wrong type"),
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
