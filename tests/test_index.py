from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pytest

import coil.core
from coil import (
    ChecksumError,
    CoilConfig,
    CoilIndex,
    EncodedDocument,
    FormatError,
    ValidationError,
    build_index,
    index_stats,
    load_index,
    save_index,
)
from coil.core import DocTable
from coil.index import InvertedList, file_checksum, run_bounds
from synth import make_instance


def _docs_by_hand(n_t=2, n_c=2):
    def doc(doc_id, token_ids, vecs, cls):
        return EncodedDocument(
            doc_id=doc_id,
            token_ids=np.asarray(token_ids, dtype=np.int32),
            token_vecs=np.asarray(vecs, dtype=np.float32).reshape(len(token_ids), n_t),
            cls_vec=None if cls is None else np.asarray(cls, dtype=np.float32),
        )

    return doc


def _no_rows(cfg):
    """The token id, doc ordinal and vector columns of an index without postings."""
    return np.empty(0, np.int32), np.empty(0, np.int32), np.empty((0, cfg.n_t), np.float32)


class TestBuild:
    def test_single_doc_two_lists(self):
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        index = build_index(
            [doc("d0", [1, 2], [[1, 0], [0, 1]], [0.5, 0.5])], cfg
        )
        assert sorted(index.lists) == [1, 2]
        assert all(len(lst) == 1 for lst in index.lists.values())
        assert index.cls_matrix.shape == (1, 2)
        assert index.doc_table.ids == ("d0",)

    def test_repeated_token_shares_one_list(self):
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        index = build_index(
            [doc("d0", [3, 3], [[1, 0], [0, 1]], [0.5, 0.5])], cfg
        )
        lst = index.lists[3]
        assert len(lst) == 2
        np.testing.assert_array_equal(lst.doc_refs, [0, 0])
        np.testing.assert_array_equal(lst.vectors, [[1, 0], [0, 1]])

    def test_occurrences_keep_doc_then_position_order(self):
        inst = make_instance(seed=5, num_docs=30, vocab_size=10, max_doc_len=12)
        for tid, lst in inst.index.lists.items():
            assert np.all(np.diff(lst.doc_refs) >= 0)
            # naive rebuild: scan every document in order
            rows, refs = [], []
            for ordinal, doc in enumerate(inst.enc_docs):
                for pos, doc_tid in enumerate(doc.token_ids):
                    if doc_tid == tid:
                        rows.append(doc.token_vecs[pos])
                        refs.append(ordinal)
            np.testing.assert_array_equal(lst.vectors, np.asarray(rows))
            np.testing.assert_array_equal(lst.doc_refs, np.asarray(refs))

    def test_every_occurrence_in_exactly_one_list(self):
        inst = make_instance(seed=6, num_docs=25, vocab_size=15)
        total_tokens = sum(len(d.token_ids) for d in inst.enc_docs)
        assert sum(len(lst) for lst in inst.index.lists.values()) == total_tokens

    def test_empty_doc_still_occupies_ordinal(self):
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        index = build_index(
            [
                doc("empty", [], [], [0.1, 0.2]),
                doc("d1", [1], [[1, 0]], [0.3, 0.4]),
            ],
            cfg,
        )
        assert index.doc_table.ids == ("empty", "d1")
        np.testing.assert_array_equal(index.lists[1].doc_refs, [1])
        np.testing.assert_allclose(index.cls_matrix[0], [0.1, 0.2], rtol=1e-6)

    def test_duplicate_doc_id_rejected(self):
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        with pytest.raises(ValidationError, match="duplicate doc id"):
            build_index(
                [
                    doc("d0", [1], [[1, 0]], [0, 0]),
                    doc("d0", [2], [[0, 1]], [0, 0]),
                ],
                cfg,
            )

    @pytest.mark.parametrize(
        "tids, refs, message",
        [
            ([1, 2, 1], [0, 0, 1], "token ids decrease"),
            ([1, 1, 2], [1, 0, 0], "doc ordinals decrease in list 1"),
            ([1, 1, 2], [0, 1, 2], "doc ordinal out of range in list 2"),
            ([1, 1, 2], [-1, 0, 0], "doc ordinal out of range in list 1"),
        ],
        ids=["tids-decrease", "refs-decrease", "ref-is-num-docs", "negative-ref"],
    )
    def test_direct_construction_rejects_rows_out_of_order(self, tids, refs, message):
        # lists built from such rows would drop or misplace a row, and
        # save_index would write a postings.bin that load_index refuses
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=0)
        tids, refs = np.array(tids, np.int32), np.array(refs, np.int32)
        vecs = np.zeros((3, 2), np.float32)
        with pytest.raises(ValidationError, match=message):
            CoilIndex(cfg, tids, refs, vecs, None, DocTable(["a", "b"]), corpus_checksum=0)

    @pytest.mark.parametrize(
        "n_c, refs, vec_rows, cls_rows, message",
        [
            (0, 2, 3, None, r"^vectors shape \(3, 2\), expected \(2, 2\)$"),
            (0, 3, 2, None, r"^doc_refs shape \(3,\), expected \(2,\)$"),
            (2, 2, 2, 3, r"^cls_matrix shape \(3, 2\), expected \(2, 2\)$"),
            (2, 2, 2, None, r"^cls_matrix shape None, expected \(2, 2\)$"),
            (0, 2, 2, 2, r"^cls_matrix shape \(2, 2\), expected None$"),
        ],
        ids=["vector-rows", "ref-rows", "cls-rows", "cls-missing", "cls-without-n_c"],
    )
    def test_direct_construction_rejects_columns_of_the_wrong_shape(
        self, n_c, refs, vec_rows, cls_rows, message
    ):
        # search and save_index would take such columns, and load_index would
        # refuse the files they make
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=n_c)
        tids, refs = np.array([1, 2], np.int32), np.zeros(refs, np.int32)
        vecs = np.zeros((vec_rows, 2), np.float32)
        cls = None if cls_rows is None else np.zeros((cls_rows, 2), np.float32)
        with pytest.raises(ValidationError, match=message):
            CoilIndex(cfg, tids, refs, vecs, cls, DocTable(["a", "b"]), corpus_checksum=0)

    @pytest.mark.parametrize(
        "column, dtype",
        [
            ("token_ids", np.int64),
            ("token_ids", np.uint32),
            ("doc_refs", np.int16),
            ("vectors", np.float64),
            ("cls_matrix", np.float16),
            ("cls_matrix", np.int32),
        ],
    )
    def test_direct_construction_rejects_columns_of_the_wrong_type(self, column, dtype):
        # the CLS scan's error bound assumes float32 rows
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2)
        columns = {
            "token_ids": np.array([1, 2], np.int32),
            "doc_refs": np.zeros(2, np.int32),
            "vectors": np.zeros((2, 2), np.float32),
            "cls_matrix": np.zeros((2, 2), np.float32),
        }
        columns[column] = columns[column].astype(dtype)
        expected = "int32" if column in ("token_ids", "doc_refs") else "float32"
        message = f"^{column} dtype {np.dtype(dtype)}, expected {expected}$"
        with pytest.raises(ValidationError, match=message):
            CoilIndex(cfg, **columns, doc_table=DocTable(["a", "b"]), corpus_checksum=0)

    @pytest.mark.parametrize(
        "field, dtype, message",
        [
            ("token_ids", np.int64, "token_ids dtype int64, expected int32"),
            ("token_vecs", np.float64, "vectors dtype float64, expected float32"),
            ("cls_vec", np.float64, "cls_matrix dtype float64, expected float32"),
        ],
    )
    def test_record_array_reassigned_after_construction_rejected(self, field, dtype, message):
        # a record checks its types when it is built; the index checks its columns
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        rec = doc("d0", [1, 2], [[1, 0], [0, 1]], [0.5, 0.5])
        setattr(rec, field, getattr(rec, field).astype(dtype))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build_index([rec], cfg)

    def test_dimension_mismatch_rejected(self):
        doc = _docs_by_hand(n_t=3)
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        with pytest.raises(ValidationError, match="dimension"):
            build_index([doc("d0", [1], [[1, 0, 0]], [0, 0])], cfg)

    def test_missing_cls_rejected_when_required(self):
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        with pytest.raises(ValidationError, match="cls"):
            build_index([doc("d0", [1], [[1, 0]], None)], cfg)

    def test_token_id_beyond_int32_rejected(self):
        # the record refuses it when it is built, before any index sees it
        with pytest.raises(ValidationError, match="int32"):
            EncodedDocument(
                "d0", np.asarray([1, 2**31], dtype=np.int64), np.zeros((2, 2), np.float32), None
            )

    def test_empty_corpus(self):
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        index = build_index([], cfg)
        assert index.num_docs == 0
        assert index.lists == {}
        assert index.cls_matrix.shape == (0, 2)

    def test_vocab_keyword_must_equal_encoder_meta_vocab(self):
        # a compatibility keyword that is never stored; the benchmark harness
        # passes the vocabulary that its encoder_meta also holds
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        docs = [doc("d0", [1], [[1, 0]], [0.5, 0.5])]
        meta = {"vocab": {"a": 1}, "lowercase": True, "projection_seed": 0}
        index = build_index(docs, cfg, vocab={"a": 1}, encoder_meta=meta)
        assert index.encoder_meta is meta
        with pytest.raises(ValidationError, match=r"^vocab differs from encoder_meta\['vocab'\]$"):
            build_index(docs, cfg, vocab={"a": 2}, encoder_meta=meta)


def _corpus():
    """Two documents by hand: ids, token ids per document, the token vectors of
    the whole corpus in document order, and one CLS row per document."""
    return {
        "ids": ["d0", "d1"],
        "tids": [[1, 2], [3]],
        "vecs": np.asarray([[0.5, -1.0], [2.0, 0.25], [-3.0, 1.5]], dtype=np.float32),
        "cls": np.asarray([[0.125, 4.0], [-0.75, 1.0]], dtype=np.float32),
    }


def _build(corpus):
    doc = _docs_by_hand()
    docs, start = [], 0
    for doc_id, tids, cls in zip(corpus["ids"], corpus["tids"], corpus["cls"]):
        docs.append(doc(doc_id, tids, corpus["vecs"][start : start + len(tids)], cls))
        start += len(tids)
    return build_index(docs, CoilConfig(n_lm=4, n_t=2, n_c=2))


def _flip_low_bit(array, flat_index):
    out = array.copy()
    out.reshape(-1).view(np.uint32)[flat_index] ^= 1
    return out


class TestCorpusChecksum:
    def test_is_crc32_of_the_documented_bytes(self, tmp_path):
        index = _build(_corpus())
        corpus = _corpus()
        blob = b"".join(
            (
                b"coil-corpus",
                b"d0\nd1",
                np.asarray([2, 1], dtype="<i4").tobytes(),  # token counts
                np.asarray([1, 2, 3], dtype="<i4").tobytes(),
                corpus["vecs"].astype("<f4").tobytes(),
                corpus["cls"].astype("<f4").tobytes(),
            )
        )
        assert index.corpus_checksum == zlib.crc32(blob)
        save_index(index, tmp_path / "idx")
        meta = json.loads((tmp_path / "idx" / "meta.json").read_text())
        assert meta["corpus_checksum"] == f"{zlib.crc32(blob):08x}"
        assert load_index(tmp_path / "idx").corpus_checksum == zlib.crc32(blob)

    def test_equal_corpora_give_equal_checksums(self):
        assert _build(_corpus()).corpus_checksum == _build(_corpus()).corpus_checksum

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["ids"].__setitem__(1, "d2"),
            lambda c: c["tids"].__setitem__(0, [1, 4]),
            lambda c: c.update(vecs=_flip_low_bit(c["vecs"], 3)),
            lambda c: c.update(cls=_flip_low_bit(c["cls"], 2)),
            # token ids, vectors and CLS rows stay as they are; only counts change
            lambda c: c.update(tids=[[1], [2, 3]]),
        ],
        ids=["doc-id", "token-id", "token-vector-bit", "cls-bit", "token-to-next-doc"],
    )
    def test_any_one_covered_input_changes_it(self, edit):
        corpus = _corpus()
        edit(corpus)
        assert _build(corpus).corpus_checksum != _build(_corpus()).corpus_checksum


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        inst = make_instance(seed=7, num_docs=100, vocab_size=30)
        save_index(inst.index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.config == inst.config
        assert loaded.doc_table == inst.index.doc_table
        assert loaded.corpus_checksum == inst.index.corpus_checksum
        assert sorted(loaded.lists) == sorted(inst.index.lists)
        for tid, lst in inst.index.lists.items():
            np.testing.assert_array_equal(loaded.lists[tid].vectors, lst.vectors)
            np.testing.assert_array_equal(loaded.lists[tid].doc_refs, lst.doc_refs)
        np.testing.assert_array_equal(loaded.cls_matrix, inst.index.cls_matrix)

    def test_roundtrip_without_cls(self, tmp_path):
        inst = make_instance(seed=8, n_c=0, num_docs=20)
        save_index(inst.index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.cls_matrix is None
        assert not (tmp_path / "idx" / "cls.bin").exists()

    def test_encoder_meta_preserved(self, tmp_path):
        inst = make_instance(seed=9, num_docs=5)
        inst.index.encoder_meta = {"lowercase": True, "vocab": inst.tokenizer.vocab}
        save_index(inst.index, tmp_path / "idx")
        assert load_index(tmp_path / "idx").encoder_meta == inst.index.encoder_meta

    def test_empty_index_roundtrip(self, tmp_path):
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        save_index(build_index([], cfg), tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.num_docs == 0 and loaded.lists == {}

    def _corrupt(self, path, offset=0):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_corrupted_postings_raise_checksum_error(self, tmp_path):
        inst = make_instance(seed=10, num_docs=10)
        save_index(inst.index, tmp_path / "idx")
        self._corrupt(tmp_path / "idx" / "postings.bin", offset=5)
        with pytest.raises(ChecksumError, match="postings.bin"):
            load_index(tmp_path / "idx")

    def test_corrupted_cls_raises_checksum_error(self, tmp_path):
        inst = make_instance(seed=11, num_docs=10)
        save_index(inst.index, tmp_path / "idx")
        self._corrupt(tmp_path / "idx" / "cls.bin", offset=3)
        with pytest.raises(ChecksumError, match="cls.bin"):
            load_index(tmp_path / "idx")

    def test_truncated_postings_rejected(self, tmp_path):
        inst = make_instance(seed=12, num_docs=10)
        save_index(inst.index, tmp_path / "idx")
        blob = (tmp_path / "idx" / "postings.bin").read_bytes()
        (tmp_path / "idx" / "postings.bin").write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="size"):
            load_index(tmp_path / "idx")

    def test_meta_n_t_mismatch_is_structural_error(self, tmp_path):
        inst = make_instance(seed=13, num_docs=10, n_t=6)
        save_index(inst.index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config"]["n_t"] = 5
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="n_t"):
            load_index(tmp_path / "idx")

    def test_bad_meta_json_rejected(self, tmp_path):
        inst = make_instance(seed=14, num_docs=5)
        save_index(inst.index, tmp_path / "idx")
        (tmp_path / "idx" / "meta.json").write_text("{broken")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_index(tmp_path / "idx")

    def test_version_1_rejected(self, tmp_path):
        inst = make_instance(seed=15, num_docs=5)
        save_index(inst.index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="unsupported version 1"):
            load_index(tmp_path / "idx")

    def test_version_3_rejected(self, tmp_path):
        inst = make_instance(seed=15, num_docs=5)
        save_index(inst.index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 3
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="unsupported version 3"):
            load_index(tmp_path / "idx")

    def test_version_4_rejected(self, tmp_path):
        # version 4 also stored the vocabulary as a top-level key
        inst = make_instance(seed=15, num_docs=5)
        save_index(inst.index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta.update(version=4, vocab=inst.tokenizer.vocab)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="unsupported version 4"):
            load_index(tmp_path / "idx")

    def test_tok_index_saved_over_full_index_leaves_no_cls(self, tmp_path):
        idx = tmp_path / "idx"
        save_index(make_instance(seed=20, num_docs=10).index, idx)
        tok = make_instance(seed=21, num_docs=10, n_c=0).index
        save_index(tok, idx)
        assert not (idx / "cls.bin").exists()
        on_disk = sum(path.stat().st_size for path in idx.glob("*.bin"))
        assert index_stats(tok).bytes_on_disk == on_disk
        assert load_index(idx).cls_matrix is None

    def test_checksums_are_crc32_of_each_file(self, tmp_path):
        save_index(make_instance(seed=23, num_docs=10).index, tmp_path / "idx")
        meta = json.loads((tmp_path / "idx" / "meta.json").read_text())
        assert meta["checksums"] == {
            name: f"crc32:{zlib.crc32((tmp_path / 'idx' / name).read_bytes()):08x}"
            for name in ("postings.bin", "cls.bin")
        }

    @pytest.mark.parametrize(
        "n_c, failing_call",
        [(4, 0), (4, 1), (4, 2), (0, 0), (0, 1)],
        ids=["full-postings", "full-cls", "full-meta", "tok-postings", "tok-meta"],
    )
    def test_interrupted_save_never_mixes_indexes(self, tmp_path, monkeypatch, n_c, failing_call):
        """A save of a second index that fails at one of its os.replace calls
        leaves the first index or a checksum failure, never a mix of both."""
        idx = tmp_path / "idx"
        old = make_instance(seed=24, num_docs=10).index
        save_index(old, idx)
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) > failing_call:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(coil.core.os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            save_index(make_instance(seed=25, num_docs=10, n_c=n_c).index, idx)
        monkeypatch.undo()
        assert sorted(p.name for p in idx.iterdir()) == ["cls.bin", "meta.json", "postings.bin"]
        if failing_call:  # new binaries sit beside the old meta.json
            with pytest.raises(ChecksumError):
                load_index(idx)
            return
        loaded = load_index(idx)
        assert loaded.doc_table == old.doc_table
        assert loaded.lists.keys() == old.lists.keys()
        for tid, lst in old.lists.items():
            assert loaded.lists[tid].vectors.tobytes() == lst.vectors.tobytes()
            assert loaded.lists[tid].doc_refs.tobytes() == lst.doc_refs.tobytes()
        assert loaded.cls_matrix.tobytes() == old.cls_matrix.tobytes()

    def test_every_token_id_byte_is_checksummed(self, tmp_path):
        inst = make_instance(seed=22, num_docs=4, vocab_size=6, max_doc_len=4, n_c=0)
        save_index(inst.index, tmp_path / "idx")
        rows = sum(len(lst) for lst in inst.index.lists.values())
        for offset in range(4 * rows):  # the leading int32 token-id column
            self._corrupt(tmp_path / "idx" / "postings.bin", offset)
            with pytest.raises(ChecksumError):
                load_index(tmp_path / "idx")
            self._corrupt(tmp_path / "idx" / "postings.bin", offset)  # undo
        assert load_index(tmp_path / "idx").lists.keys() == inst.index.lists.keys()

    @staticmethod
    def _write_rows(idx, tids, refs, extra=b""):
        """Replace postings.bin by hand-made v3 columns (n_t = 2, zero vectors)
        and store their checksum, so only the row checks can reject them."""
        blob = b"".join(
            (
                np.asarray(tids, dtype="<i4").tobytes(),
                np.asarray(refs, dtype="<i4").tobytes(),
                np.zeros((len(tids), 2), dtype="<f4").tobytes(),
                extra,
            )
        )
        (idx / "postings.bin").write_bytes(blob)
        meta = json.loads((idx / "meta.json").read_text())
        meta["checksums"]["postings.bin"] = file_checksum(blob)
        (idx / "meta.json").write_text(json.dumps(meta))

    @pytest.mark.parametrize(
        "tids, refs, extra, message",
        [
            ([2, 1, 1], [0, 0, 1], b"", "token ids decrease"),
            ([1, 1, 2], [1, 0, 0], b"", "doc ordinals decrease in list 1"),
            ([1, 1, 2], [0, 1, 3], b"", "doc ordinal out of range in list 2"),
            ([1, 1, 2], [-1, 0, 0], b"", "doc ordinal out of range in list 1"),
            ([1, 1, 2], [0, 1, 2], b"\0" * 4, "size 52 does not fit whole 16-byte rows"),
        ],
        ids=["tids-decrease", "refs-decrease", "ref-is-num-docs", "negative-ref", "partial-row"],
    )
    def test_hand_made_rows_rejected(self, tmp_path, tids, refs, extra, message):
        doc = _docs_by_hand(n_c=0)
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=0, mode="tok")
        docs = [doc(f"d{i}", [1], [[1, 0]], None) for i in range(3)]
        save_index(build_index(docs, cfg), tmp_path / "idx")
        self._write_rows(tmp_path / "idx", [1, 1, 2], [0, 2, 1])  # valid rows
        loaded = load_index(tmp_path / "idx")
        np.testing.assert_array_equal(loaded.lists[1].doc_refs, [0, 2])
        np.testing.assert_array_equal(loaded.lists[2].doc_refs, [1])
        self._write_rows(tmp_path / "idx", tids, refs, extra)
        with pytest.raises(FormatError, match=message):
            load_index(tmp_path / "idx")

    def test_version_mismatch_rejected(self, tmp_path):
        inst = make_instance(seed=15, num_docs=5)
        save_index(inst.index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="version"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.update(lists=[]), "unknown key 'lists'"),
            (lambda m: m.pop("doc_table"), "missing key 'doc_table'"),
            (lambda m: m.pop("checksums"), "missing key 'checksums'"),
            (lambda m: m.update(config=[]), "'config' has the wrong type"),
            (lambda m: m["config"].update(n_x=1), "config: unknown key 'n_x'"),
            (lambda m: m.update(vocab={"a": 1}), "unknown key 'vocab'"),
            (lambda m: m.update(corpus_checksum=7), "'corpus_checksum' has the wrong type"),
            (lambda m: m.update(corpus_checksum="xyz"), "not hexadecimal"),
            (lambda m: m.update(num_docs=5), "unknown key 'num_docs'"),
            (lambda m: m["doc_table"].__setitem__(0, 3), "doc_table entries"),
            (
                lambda m: m["doc_table"].__setitem__(1, m["doc_table"][0]),
                r"meta\.json: doc_table entries: duplicate doc id 'd00000'$",
            ),
            (lambda m: m["config"].update(n_lm=4), "config: n_t must be <= n_lm"),
            (lambda m: m["config"].update(mode="tok"), "config: mode='tok' disagrees"),
            (lambda m: m["config"].update(max_doc_tokens=0), "config: max_doc_tokens must be"),
        ],
    )
    def test_malformed_meta_rejected(self, tmp_path, edit, message):
        inst = make_instance(seed=16, num_docs=5)
        save_index(inst.index, tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=message):
            load_index(tmp_path / "idx")

    def test_decreasing_doc_refs_rejected(self, tmp_path):
        inst = make_instance(seed=17, num_docs=20)
        tid, lst = next(
            (t, l) for t, l in inst.index.lists.items() if l.doc_refs[0] < l.doc_refs[-1]
        )
        lst.doc_refs[:] = lst.doc_refs[::-1].copy()  # a view of the rows save_index writes
        save_index(inst.index, tmp_path / "idx")
        with pytest.raises(FormatError, match=f"decrease in list {tid}"):
            load_index(tmp_path / "idx")

    def test_truncated_cls_rejected_by_size(self, tmp_path):
        inst = make_instance(seed=18, num_docs=10)
        save_index(inst.index, tmp_path / "idx")
        blob = (tmp_path / "idx" / "cls.bin").read_bytes()
        (tmp_path / "idx" / "cls.bin").write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="size .* n_c=4"):
            load_index(tmp_path / "idx")

    def test_missing_meta_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_index(tmp_path / "nowhere")


class TestStats:
    def test_counts_on_known_corpus(self):
        doc = _docs_by_hand()
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        index = build_index(
            [
                doc("d0", [1, 2, 1], [[1, 0], [0, 1], [1, 1]], [0, 0]),
                doc("d1", [2], [[2, 2]], [0, 0]),
            ],
            cfg,
        )
        stats = index_stats(index)
        assert stats.num_docs == 2
        assert stats.num_lists == 2
        assert stats.total_postings == 4
        assert stats.list_size_histogram == {2: 2}

    def test_histogram_sums_to_num_lists(self):
        inst = make_instance(seed=16, num_docs=40, vocab_size=25)
        stats = index_stats(inst.index)
        assert sum(stats.list_size_histogram.values()) == stats.num_lists

    def test_bytes_on_disk_matches_files(self, tmp_path):
        inst = make_instance(seed=17, num_docs=60, vocab_size=20)
        save_index(inst.index, tmp_path / "idx")
        stats = index_stats(inst.index)
        on_disk = os.path.getsize(tmp_path / "idx" / "postings.bin") + os.path.getsize(
            tmp_path / "idx" / "cls.bin"
        )
        assert stats.bytes_on_disk == on_disk

    def test_empty_index_all_zeros(self):
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=0, mode="tok")
        stats = index_stats(build_index([], cfg))
        assert (stats.num_docs, stats.num_lists, stats.total_postings) == (0, 0, 0)
        assert stats.bytes_on_disk == 0
        assert stats.list_size_histogram == {}


def _segments(lst: InvertedList) -> tuple[np.ndarray, np.ndarray]:
    """A list's run starts and ordinals, with every row a run when ``starts`` is None."""
    assert lst.ordinals.dtype == np.intp
    if lst.starts is None:
        np.testing.assert_array_equal(lst.ordinals, lst.doc_refs)
        return np.arange(len(lst)), lst.ordinals
    assert len(lst.starts) < len(lst)  # some document holds the token twice
    return lst.starts, lst.ordinals


class TestSegments:
    def test_matches_naive_grouping(self):
        inst = make_instance(seed=18, num_docs=50, vocab_size=12)
        for lst in inst.index.lists.values():
            naive_starts, naive_ords, prev = [], [], None
            for row, ref in enumerate(lst.doc_refs.tolist()):
                if ref != prev:
                    naive_starts.append(row)
                    naive_ords.append(ref)
                    prev = ref
            starts, ordinals = _segments(lst)
            np.testing.assert_array_equal(starts, naive_starts)
            np.testing.assert_array_equal(ordinals, naive_ords)

    @pytest.mark.parametrize("n_c", [0, 3])
    def test_equal_run_bounds_after_build_and_load(self, tmp_path, n_c):
        # every list gets its segments when the index is made, not on first use
        inst = make_instance(seed=19, num_docs=80, vocab_size=200, max_doc_len=8, n_c=n_c)
        save_index(inst.index, tmp_path / "idx")
        for index in (inst.index, load_index(tmp_path / "idx")):
            repeated = [lst for lst in index.lists.values() if lst.starts is not None]
            assert 0 < len(repeated) < len(index.lists)  # both kinds of list occur
            for lst in index.lists.values():
                run_starts, _ = run_bounds(lst.doc_refs)
                starts, ordinals = _segments(lst)
                np.testing.assert_array_equal(starts, run_starts)
                np.testing.assert_array_equal(ordinals, lst.doc_refs[run_starts])
                # every row that does not begin a run, and the run it belongs to
                later = np.setdiff1d(np.arange(len(lst)), run_starts)
                if lst.starts is None:
                    assert lst.later_rows is None and lst.later_runs is None
                    assert len(later) == 0
                    continue
                for column in (lst.starts, lst.later_rows, lst.later_runs):
                    assert column.dtype == np.intp
                np.testing.assert_array_equal(lst.later_rows, later)
                np.testing.assert_array_equal(
                    lst.later_runs, np.searchsorted(run_starts, later, side="right") - 1
                )
