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
from coil.core import ranked_list_from_arrays


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
