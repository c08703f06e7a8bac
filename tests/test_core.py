from __future__ import annotations

import json

import numpy as np
import pytest

from coil import (
    CoilConfig,
    Document,
    EncodedDocument,
    EncodedQuery,
    Query,
    RankedList,
    TokenSeq,
    ValidationError,
    FormatError,
    as_score,
    load_documents,
    load_queries,
    validate_config,
)
from coil.core import ranked_list_from_arrays, read_json, read_json_lines, read_lines


class TestConfigValidation:
    def test_valid_defaults(self):
        cfg = CoilConfig(n_lm=768)
        assert validate_config(cfg) is cfg

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_lm=0), "n_lm must be >= 1"),
            (dict(n_lm=8, n_t=-1), "n_t must be >= 0"),
            (dict(n_lm=8, n_c=-2), "n_c must be >= 0"),
            (dict(n_lm=8, max_doc_tokens=0), "max_doc_tokens must be >= 1"),
            (dict(n_lm=8, mode="dense"), "mode='dense' disagrees with n_t=32, n_c=768"),
            (dict(n_lm=8, n_t=0, n_c=8, mode="tok"), "mode='tok' disagrees with n_t=0, n_c=8"),
            (
                dict(n_lm=8, n_t=8, n_c=0, mode="cls_only"),
                "mode='cls_only' disagrees with n_t=8, n_c=0",
            ),
            (dict(n_lm=8, n_t=0, n_c=8, mode="full"), "mode='full' disagrees with n_t=0, n_c=8"),
            (dict(n_lm=8, n_t=8, n_c=0, mode="full"), "mode='full' disagrees with n_t=8, n_c=0"),
            (dict(n_lm=8, n_t=9, n_c=8), "n_t must be <= n_lm"),
            (dict(n_lm=8, n_t=8, n_c=9), "n_c must be <= n_lm"),
        ],
    )
    def test_rejects_each_invariant(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            validate_config(CoilConfig(**kwargs))

    @pytest.mark.parametrize("mode", ["tok", "cls_only"])
    def test_explicit_mode_must_equal_derived_mode(self, mode):
        # both dims present give full; a narrower explicit mode is refused
        with pytest.raises(ValidationError, match="give mode 'full'"):
            validate_config(CoilConfig(n_lm=8, n_t=8, n_c=8, mode=mode))

    def test_cls_only_allows_zero_token_dim(self):
        validate_config(CoilConfig(n_lm=8, n_t=0, n_c=8, mode="cls_only"))

    def test_tok_allows_zero_cls_dim(self):
        validate_config(CoilConfig(n_lm=8, n_t=8, n_c=0, mode="tok"))

    @pytest.mark.parametrize(
        "n_t, n_c, mode", [(8, 8, "full"), (8, 0, "tok"), (0, 8, "cls_only"), (1, 0, "tok")]
    )
    def test_default_mode_derived_from_dims(self, n_t, n_c, mode):
        assert CoilConfig(n_lm=8, n_t=n_t, n_c=n_c).mode == mode

    def test_no_mode_for_zero_dims(self):
        with pytest.raises(ValidationError, match="cannot both be 0"):
            CoilConfig(n_lm=8, n_t=0, n_c=0)

    def test_single_dim_token_vectors_allowed(self):
        # n_t = 1 is the term-importance degenerate variant, not an error
        validate_config(CoilConfig(n_lm=8, n_t=1, n_c=0, mode="tok"))


class TestAsScore:
    def test_rounds_to_float32_grid(self):
        x = 0.1 + 1e-12
        assert as_score(x) == float(np.float32(x))

    def test_idempotent(self):
        for v in (0.0, -1.5, 3.337777, 1e-20):
            assert as_score(as_score(v)) == as_score(v)


class TestIds:
    def test_document_requires_nonempty_id(self):
        with pytest.raises(ValidationError, match="non-empty"):
            Document("", "text")

    @pytest.mark.parametrize("bad", ["a b", "a\tb", "a\n"])
    def test_rejects_whitespace_ids(self, bad):
        with pytest.raises(ValidationError, match="whitespace"):
            Query(bad, "text")

    @pytest.mark.parametrize("bad", ["d\x00", "\x00", "a\x7fb", "x\x1b"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda i: Document(i, "text"),
            lambda i: Query(i, "text"),
            lambda i: EncodedDocument(i, np.zeros(0, np.int32), np.zeros((0, 2), np.float32), None),
            lambda i: EncodedQuery(i, np.zeros(0, np.int32), np.zeros((0, 2), np.float32), None),
        ],
        ids=["document", "query", "encoded-document", "encoded-query"],
    )
    def test_rejects_control_characters(self, make, bad):
        with pytest.raises(ValidationError, match="control characters"):
            make(bad)

    def test_plain_ids_accepted(self):
        Document("doc-1_x.2", "text")
        Document("d\u00e9\u200b", "text")  # non-ASCII, format character
        Query("q1", "")

    @pytest.mark.parametrize("load", [load_documents, load_queries])
    @pytest.mark.parametrize("bad", ["", "a b", "d\x00"])
    def test_file_boundary_names_line(self, tmp_path, load, bad):
        path = tmp_path / "records.jsonl"
        records = [{"id": "ok", "text": "a"}, {"id": bad, "text": "b"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(FormatError, match="line 2"):
            load(path)


BAD_IDS = "token_ids must be a 1-D array of non-negative integers"
BAD_ROWS = "token_vecs shape .* does not fit token_ids"


class TestEncodedRecordRule:
    RECORDS = [EncodedDocument, EncodedQuery]

    @staticmethod
    def _fields(**edit):
        fields = {
            "token_ids": np.array([1, 2], np.int32),
            "token_vecs": np.zeros((2, 3), np.float32),
            "cls_vec": np.zeros(4, np.float32),
        }
        fields.update(edit)
        return fields

    @pytest.mark.parametrize("record", RECORDS)
    def test_fields_stored_as_arrays_with_their_dtype(self, record):
        rec = record("r", [1, 2], [[0.5, 1.0], [2.0, 3.0]], [1.0])
        assert isinstance(rec.token_ids, np.ndarray) and rec.token_ids.dtype.kind == "i"
        assert rec.token_vecs.shape == (2, 2) and rec.cls_vec.shape == (1,)
        vecs = np.ones((2, 3), np.float32)
        assert record("r", np.array([1, 2], np.int32), vecs, None).token_vecs is vecs

    @pytest.mark.parametrize("record", RECORDS)
    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"token_ids": np.array([[1, 2]], np.int32)}, BAD_IDS),
            ({"token_ids": np.array([1.0, 2.0])}, BAD_IDS),
            ({"token_ids": np.array([1, -3], np.int32)}, BAD_IDS),
            ({"token_vecs": np.zeros(2, np.float32)}, BAD_ROWS),
            ({"token_vecs": np.zeros((3, 3), np.float32)}, BAD_ROWS),
            ({"token_vecs": np.full((2, 3), np.nan, np.float32)}, "non-finite token vector"),
            ({"token_vecs": np.full((2, 3), "x")}, "non-finite token vector"),
            ({"cls_vec": np.zeros((1, 4), np.float32)}, "cls_vec shape \\(1, 4\\) is not 1-D"),
            ({"cls_vec": np.array([0.0, np.inf, 0.0, 0.0], np.float32)}, "non-finite cls_vec"),
        ],
    )
    def test_rejects_each_violation(self, record, edit, message):
        with pytest.raises(ValidationError, match=f"'r': {message}"):
            record("r", **self._fields(**edit))

    @pytest.mark.parametrize("record", RECORDS)
    def test_id_must_be_a_string(self, record):
        with pytest.raises(ValidationError, match="id must be a string"):
            record(5, **self._fields())


class TestLineReader:
    def test_numbers_lines_and_skips_blank_ones(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a b\n\n \t\nc\r\nd")
        assert list(read_lines(path)) == [(1, "a b\n"), (4, "c\r\n"), (5, "d")]

    @pytest.mark.parametrize(
        "read",
        [lambda p: list(read_lines(p)), lambda p: list(read_json_lines(p)), read_json],
        ids=["read_lines", "read_json_lines", "read_json"],
    )
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, read):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"b": "\xff\xfe"}\n')
        with pytest.raises(FormatError, match=r"f.jsonl: line 3: not UTF-8 \(byte 8: invalid"):
            read(path)

    def test_json_lines_name_the_bad_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\n[2]\n{oops\n')
        records = read_json_lines(path)
        assert [next(records), next(records)] == [(1, {"a": 1}), (3, [2])]
        with pytest.raises(FormatError, match="f.jsonl: line 4: invalid JSON"):
            next(records)

    def test_whole_file_json(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"a":\n\n [1, 2]}\n')
        assert read_json(path) == {"a": [1, 2]}
        path.write_text("")
        with pytest.raises(FormatError, match="f.json: invalid JSON"):
            read_json(path)


class TestTokenSeq:
    def test_parallel_lengths_enforced(self):
        with pytest.raises(ValidationError, match="equal length"):
            TokenSeq(("a", "b"), (1,))

    def test_len(self):
        assert len(TokenSeq(("a", "b"), (1, 2))) == 2
        assert len(TokenSeq((), ())) == 0


class TestRankedList:
    def test_from_scores_orders_by_score_then_doc_id(self):
        ranked = RankedList.from_scores(
            "q", [("b", 1.0), ("a", 1.0), ("c", 2.0), ("d", 0.5)]
        )
        assert ranked.doc_ids() == ["c", "a", "b", "d"]

    def test_from_scores_truncates_to_k(self):
        ranked = RankedList.from_scores("q", [("a", 1.0), ("b", 2.0), ("c", 3.0)], k=2)
        assert ranked.doc_ids() == ["c", "b"]

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            RankedList("q", [("a", 2.0), ("a", 1.0)])

    def test_scores_must_be_non_increasing(self):
        with pytest.raises(ValidationError, match="non-increasing"):
            RankedList("q", [("a", 1.0), ("b", 2.0)])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            RankedList("q", [("a", float("nan"))])

    def test_empty_list_valid(self):
        assert RankedList("q", []).doc_ids() == []

    def test_array_construction_matches_pairwise_sort(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            doc_ids = np.array([f"d{i}" for i in rng.permutation(n)])
            # coarse grid forces plenty of exact ties
            scores = rng.integers(0, 4, n).astype(np.float64) / 3.0
            k = int(rng.integers(1, n + 1))
            fast = ranked_list_from_arrays("q", doc_ids, scores, k)
            slow = RankedList.from_scores(
                "q", [(str(d), as_score(s)) for d, s in zip(doc_ids, scores)], k
            )
            assert fast.entries == slow.entries


class TestCorpusIo:
    def _write(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_document_roundtrip(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        self._write(path, [{"id": "d1", "text": "hello"}, {"id": "d2", "text": ""}])
        docs = load_documents(path)
        assert [(d.id, d.text) for d in docs] == [("d1", "hello"), ("d2", "")]

    def test_queries_share_format(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self._write(path, [{"id": "q1", "text": "what is"}])
        assert load_queries(path)[0].id == "q1"

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        self._write(path, [{"id": "d1", "text": "a"}, {"id": "d1", "text": "b"}])
        with pytest.raises(FormatError, match="line 2.*duplicate"):
            load_documents(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\nnot json\n')
        with pytest.raises(FormatError, match="line 2.*invalid JSON"):
            load_documents(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        self._write(path, [{"id": "d1"}])
        with pytest.raises(FormatError, match="'id' and 'text'"):
            load_documents(path)

    def test_non_string_fields_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        self._write(path, [{"id": 3, "text": "a"}])
        with pytest.raises(FormatError, match="must be strings"):
            load_documents(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n\n{"id": "d2", "text": "b"}\n')
        assert len(load_documents(path)) == 2

    def test_empty_file_yields_empty_corpus(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("")
        assert load_documents(path) == []
