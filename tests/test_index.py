from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from coil import (
    ChecksumError,
    CoilConfig,
    EncodedDocument,
    FormatError,
    ValidationError,
    build_index,
    index_stats,
    load_index,
    save_index,
)
from coil.index import InvertedList
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
        assert index.doc_table == ["d0"]

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
        assert index.doc_table == ["empty", "d1"]
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

    def test_empty_corpus(self):
        cfg = CoilConfig(n_lm=4, n_t=2, n_c=2, mode="full")
        index = build_index([], cfg)
        assert index.num_docs == 0
        assert index.lists == {}
        assert index.cls_matrix.shape == (0, 2)


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        inst = make_instance(seed=7, num_docs=100, vocab_size=30)
        save_index(inst.index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.config == inst.config
        assert loaded.doc_table == inst.index.doc_table
        assert loaded.vocab == inst.index.vocab
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
        inst.index.encoder_meta = {"projection_seed": 9, "vocab": inst.index.vocab}
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
            (lambda m: m.pop("lists"), "missing key 'lists'"),
            (lambda m: m.pop("doc_table"), "missing key 'doc_table'"),
            (lambda m: m.pop("checksums"), "missing key 'checksums'"),
            (lambda m: m.update(config=[]), "'config' has the wrong type"),
            (lambda m: m["config"].update(n_x=1), "config: unknown key 'n_x'"),
            (lambda m: m.update(vocab={"a": "1"}), "token ids must be integers"),
            (lambda m: m.update(corpus_checksum=7), "'corpus_checksum' has the wrong type"),
            (lambda m: m.update(corpus_checksum="xyz"), "not hexadecimal"),
            (lambda m: m["lists"].__setitem__(0, [1, "2"]), "pairs"),
            (lambda m: m["doc_table"].__setitem__(0, 3), "doc_table entries"),
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
        lst.doc_refs = lst.doc_refs[::-1].copy()
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


class TestSegments:
    def test_matches_naive_grouping(self):
        inst = make_instance(seed=18, num_docs=50, vocab_size=12)
        for lst in inst.index.lists.values():
            starts, ordinals = lst.segments()
            naive_starts, naive_ords, prev = [], [], None
            for row, ref in enumerate(lst.doc_refs.tolist()):
                if ref != prev:
                    naive_starts.append(row)
                    naive_ords.append(ref)
                    prev = ref
            np.testing.assert_array_equal(starts, naive_starts)
            np.testing.assert_array_equal(ordinals, naive_ords)

    def test_concurrent_first_calls_get_the_whole_pair(self):
        # search_many's threads may all reach a list's first segments() call;
        # a thread switch inside the lazy fill must not expose half a cache
        rng = np.random.default_rng(19)
        refs = np.sort(rng.integers(0, 1000, 5000)).astype(np.int32)
        vecs = np.zeros((len(refs), 2), dtype=np.float32)
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2000):
                lst = InvertedList(1, vecs, refs)
                results = []
                workers = [
                    threading.Thread(target=lambda: results.append(lst.segments()))
                    for _ in range(4)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=10)
                    assert not worker.is_alive()
                assert len(results) == 4
                assert all(ordinals is not None for _, ordinals in results)
        finally:
            sys.setswitchinterval(saved)
