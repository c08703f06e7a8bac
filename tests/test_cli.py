from __future__ import annotations

import json

import pytest

from coil import (
    EncoderSpec,
    Query,
    brute_force_search,
    encode_query,
    ingest_encoded,
    read_run,
)
from coil.cli import main
from coil.core import EncodedQuery
import numpy as np

CORPUS = [
    {"id": "d0", "text": "the quick brown fox jumps over the lazy dog"},
    {"id": "d1", "text": "a bank by the river bank"},
    {"id": "d2", "text": "quick quick slow"},
    {"id": "d3", "text": "apple orchard near the river"},
    {"id": "d4", "text": "dogs chase the fox across the field"},
]
QUERIES = [
    {"id": "q0", "text": "quick fox"},
    {"id": "q1", "text": "river bank"},
    {"id": "q2", "text": "unseen words only"},
]
QRELS = ["q0 0 d0 1", "q0 0 d2 1", "q1 0 d1 2", "q1 0 d3 1", "q2 0 d4 1"]

ENCODE_FLAGS = ["--n-lm", "24", "--n-t", "8", "--n-c", "6", "--stub-seed", "3"]


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in CORPUS)
    )
    (tmp_path / "queries.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in QUERIES)
    )
    (tmp_path / "qrels.txt").write_text("".join(l + "\n" for l in QRELS))
    return tmp_path


def _encode_and_build(workdir, extra=()):
    enc = workdir / "enc.jsonl"
    idx = workdir / "idx"
    assert main(["encode", str(workdir / "corpus.jsonl"), str(enc), *ENCODE_FLAGS, *extra]) == 0
    assert main(["build", str(enc), str(idx)]) == 0
    return enc, idx


class TestPipeline:
    @pytest.mark.parametrize("mode", ["tok", "full", "cls_only"])
    def test_run_file_matches_brute_force_oracle(self, workdir, mode, capsys):
        enc, idx = _encode_and_build(workdir)
        run_path = workdir / f"run_{mode}.txt"
        code = main(
            [
                "search", str(idx), str(workdir / "queries.jsonl"), str(run_path),
                "--k", "5", "--mode", mode,
            ]
        )
        assert code == 0
        run = read_run(run_path)
        docs = list(ingest_encoded(enc))
        # encode queries exactly as the CLI does, via the sidecar settings
        sidecar = workdir / "enc.jsonl.meta.json"
        spec = EncoderSpec.from_meta(json.loads(sidecar.read_text()), str(sidecar))
        params = spec.projection()
        for q in QUERIES:
            enc_q = encode_query(
                Query(q["id"], q["text"]), spec.tokenizer, spec.stub, params, spec.config
            )
            want = brute_force_search(docs, enc_q, k=5, mode=mode)
            got = run.get(q["id"])
            if want.entries == []:
                assert got is None  # empty ranking writes no lines
            else:
                assert got.doc_ids() == want.doc_ids()
                for (_, gs), (_, ws) in zip(got.entries, want.entries):
                    assert gs == pytest.approx(ws, rel=1e-5)

    def test_sidecar_roundtrips_through_encoder_spec(self, workdir):
        enc = workdir / "enc.jsonl"
        flags = [*ENCODE_FLAGS, "--layer-norm", "--max-doc-tokens", "4"]
        assert main(["encode", str(workdir / "corpus.jsonl"), str(enc), *flags]) == 0
        sidecar = workdir / "enc.jsonl.meta.json"
        meta = json.loads(sidecar.read_text())
        spec = EncoderSpec.from_meta(meta, str(sidecar))
        assert spec.config.mode == "full" and spec.config.cls_layer_norm
        assert spec.to_meta() == meta
        assert json.dumps(spec.to_meta(), sort_keys=True) + "\n" == sidecar.read_text()

    def test_encode_deterministic_and_idempotent(self, workdir):
        enc_a = workdir / "a.jsonl"
        enc_b = workdir / "b.jsonl"
        for out in (enc_a, enc_b):
            assert main(["encode", str(workdir / "corpus.jsonl"), str(out), *ENCODE_FLAGS]) == 0
        assert enc_a.read_bytes() == enc_b.read_bytes()

    def test_search_reruns_byte_identical(self, workdir):
        _, idx = _encode_and_build(workdir)
        runs = []
        for name in ("r1.txt", "r2.txt"):
            assert main(
                ["search", str(idx), str(workdir / "queries.jsonl"), str(workdir / name)]
            ) == 0
            runs.append((workdir / name).read_bytes())
        assert runs[0] == runs[1]

    def test_threads_do_not_change_output(self, workdir):
        _, idx = _encode_and_build(workdir)
        outs = []
        for threads in ("1", "8"):
            out = workdir / f"run_t{threads}.txt"
            assert main(
                [
                    "search", str(idx), str(workdir / "queries.jsonl"), str(out),
                    "--threads", threads, "--mode", "full",
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_instrument_emits_json_lines(self, workdir, capsys):
        _, idx = _encode_and_build(workdir)
        assert main(
            [
                "search", str(idx), str(workdir / "queries.jsonl"),
                str(workdir / "run.txt"), "--mode", "tok", "--instrument",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        counters = [json.loads(l) for l in lines if l.startswith("{")]
        assert [c["qid"] for c in counters] == ["q0", "q1", "q2"]
        assert counters[2]["lists_touched"] == 0  # all-unseen query
        assert all(
            set(c) == {"qid", "lists_touched", "postings_scanned", "candidates"}
            for c in counters
        )

    def test_encode_record_count_printed(self, workdir, capsys):
        assert main(["encode", str(workdir / "corpus.jsonl"), str(workdir / "e.jsonl"), *ENCODE_FLAGS]) == 0
        assert "encoded 5 documents" in capsys.readouterr().out

    def test_n_c_zero_records_lack_cls(self, workdir):
        enc = workdir / "enc0.jsonl"
        assert main(
            [
                "encode", str(workdir / "corpus.jsonl"), str(enc),
                "--n-lm", "24", "--n-t", "8", "--n-c", "0",
            ]
        ) == 0
        record = json.loads(enc.read_text().splitlines()[1])
        assert "cls_vec" not in record

    def test_full_mode_on_token_only_index_exits_1(self, workdir, capsys):
        enc = workdir / "enc0.jsonl"
        idx = workdir / "idx0"
        main(["encode", str(workdir / "corpus.jsonl"), str(enc), "--n-lm", "24", "--n-t", "8", "--n-c", "0"])
        main(["build", str(enc), str(idx)])
        code = main(
            ["search", str(idx), str(workdir / "queries.jsonl"), str(workdir / "r.txt"), "--mode", "full"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims, mode", [(["--n-t", "8", "--n-c", "0"], "tok"), (["--n-t", "0", "--n-c", "6"], "cls_only")]
    )
    def test_search_mode_defaults_to_index_mode(self, workdir, capsys, dims, mode):
        enc, idx = workdir / "enc.jsonl", workdir / "idx"
        assert main(["encode", str(workdir / "corpus.jsonl"), str(enc), "--n-lm", "24", *dims]) == 0
        assert main(["build", str(enc), str(idx)]) == 0
        queries = str(workdir / "queries.jsonl")
        default, explicit = workdir / "default.txt", workdir / "explicit.txt"
        assert main(["search", str(idx), queries, str(default)]) == 0
        assert f"(mode={mode})" in capsys.readouterr().out
        assert main(["search", str(idx), queries, str(explicit), "--mode", mode]) == 0
        lines = default.read_text().splitlines()
        assert lines and all(line.endswith(f" {mode}") for line in lines)
        assert default.read_bytes() == explicit.read_bytes()

    def test_empty_corpus_gives_header_only_file(self, workdir):
        empty = workdir / "empty.jsonl"
        empty.write_text("")
        enc = workdir / "enc_empty.jsonl"
        assert main(["encode", str(empty), str(enc), *ENCODE_FLAGS]) == 0
        assert len(enc.read_text().splitlines()) == 1

    def test_build_without_sidecar_still_works(self, workdir):
        enc, _ = _encode_and_build(workdir)
        (workdir / "enc.jsonl.meta.json").unlink()
        idx2 = workdir / "idx2"
        assert main(["build", str(enc), str(idx2)]) == 0
        # but searching raw text queries now has no encoder settings
        code = main(
            ["search", str(idx2), str(workdir / "queries.jsonl"), str(workdir / "r.txt")]
        )
        assert code == 1

    def test_stats_reports_real_sizes(self, workdir, capsys):
        _, idx = _encode_and_build(workdir)
        capsys.readouterr()
        assert main(["stats", str(idx)]) == 0
        stats = json.loads(capsys.readouterr().out)
        actual = (idx / "postings.bin").stat().st_size + (idx / "cls.bin").stat().st_size
        assert stats["bytes_on_disk"] == actual
        assert stats["num_docs"] == 5
        assert sum(stats["list_size_histogram"].values()) == stats["num_lists"]


class TestBm25Cli:
    def test_run_and_eval(self, workdir, capsys):
        out = workdir / "bm25.txt"
        assert main(
            ["bm25", str(workdir / "corpus.jsonl"), str(workdir / "queries.jsonl"), str(out), "--k", "5"]
        ) == 0
        run = read_run(out)
        assert run["q0"].doc_ids()[0] in {"d0", "d2"}
        capsys.readouterr()
        assert main(["eval", str(out), str(workdir / "qrels.txt"), "--metrics", "mrr@10"]) == 0
        line = capsys.readouterr().out.strip()
        name, value = line.split("\t")
        assert name == "mrr@10"
        assert 0.0 <= float(value) <= 1.0

    def test_params_change_scores(self, workdir):
        a, b = workdir / "a.txt", workdir / "b.txt"
        base = ["bm25", str(workdir / "corpus.jsonl"), str(workdir / "queries.jsonl")]
        assert main([*base, str(a)]) == 0
        assert main([*base, str(b), "--k1", "0.1", "--b", "0.0"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_params_exit_1(self, workdir):
        code = main(
            [
                "bm25", str(workdir / "corpus.jsonl"), str(workdir / "queries.jsonl"),
                str(workdir / "x.txt"), "--b", "2.0",
            ]
        )
        assert code == 1


class TestEvalCli:
    def test_hand_mrr(self, workdir, capsys):
        run_path = workdir / "hand_run.txt"
        run_path.write_text("q0 Q0 d2 1 2.0 t\nq0 Q0 d0 2 1.0 t\nq1 Q0 d9 1 1.0 t\n")
        qrels_path = workdir / "hand_qrels.txt"
        qrels_path.write_text("q0 0 d0 1\nq1 0 d1 1\n")
        assert main(["eval", str(run_path), str(qrels_path), "--metrics", "mrr@10"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == f"mrr@10\t{(0.5 + 0.0) / 2:.6f}"

    def test_bad_metric_spec_exits_1(self, workdir):
        run_path = workdir / "r.txt"
        run_path.write_text("q0 Q0 d0 1 1.0 t\n")
        assert main(["eval", str(run_path), str(workdir / "qrels.txt"), "--metrics", "map@10"]) == 1

    def test_malformed_run_exits_2(self, workdir):
        bad = workdir / "bad_run.txt"
        bad.write_text("q0 d0 1\n")
        assert main(["eval", str(bad), str(workdir / "qrels.txt")]) == 2


class TestSampleNegsCli:
    def test_deterministic_and_excludes_positives(self, workdir):
        outs = []
        for name in ("n1.jsonl", "n2.jsonl"):
            assert main(
                [
                    "sample-negs", str(workdir / "corpus.jsonl"),
                    str(workdir / "queries.jsonl"), str(workdir / "qrels.txt"),
                    str(workdir / name), "--depth", "5", "--count", "2", "--seed", "11",
                ]
            ) == 0
            outs.append((workdir / name).read_bytes())
        assert outs[0] == outs[1]
        for line in outs[0].decode().splitlines():
            record = json.loads(line)
            assert record["pos"] not in record["negs"]


class TestExitCodes:
    def test_missing_file_exits_2(self, workdir):
        assert main(["encode", str(workdir / "nope.jsonl"), str(workdir / "o.jsonl")]) == 2

    def test_malformed_corpus_exits_2(self, workdir):
        bad = workdir / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["encode", str(bad), str(workdir / "o.jsonl")]) == 2

    def test_corrupt_index_exits_2(self, workdir):
        _, idx = _encode_and_build(workdir)
        blob = bytearray((idx / "postings.bin").read_bytes())
        blob[0] ^= 0xFF
        (idx / "postings.bin").write_bytes(bytes(blob))
        code = main(
            ["search", str(idx), str(workdir / "queries.jsonl"), str(workdir / "r.txt")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, name, edit",
        [
            ("build", "enc.jsonl.meta.json", lambda m: m.pop("stub")),
            ("build", "enc.jsonl.meta.json", lambda m: m["config"].update(n_x=1)),
            ("search", "idx/meta.json", lambda m: m.pop("lists")),
            ("build", "enc.jsonl", lambda r: r.update(id="d 0")),
            ("build", "enc.jsonl", lambda r: r["token_vecs"][0].__setitem__(0, float("nan"))),
            ("build", "enc.jsonl", lambda r: r.update(id="d0\x00")),
            ("encode", "corpus.jsonl", lambda r: r.update(id="d 0")),
            ("bm25", "corpus.jsonl", lambda r: r.update(id="d\x00")),
            ("search", "queries.jsonl", lambda r: r.update(id="q\x00")),
            ("search", "idx/meta.json", lambda m: m["doc_table"].__setitem__(0, "")),
            ("search", "idx/meta.json", lambda m: m["doc_table"].__setitem__(0, " ")),
            ("search", "idx/meta.json", lambda m: m["doc_table"].__setitem__(0, "d1")),
        ],
        ids=[
            "sidecar-missing-stub",
            "sidecar-unknown-config-key",
            "meta-missing-lists",
            "whitespace-id",
            "nan-vector",
            "nul-id",
            "corpus-whitespace-id",
            "corpus-nul-id",
            "query-nul-id",
            "meta-empty-doc-id",
            "meta-whitespace-doc-id",
            "meta-duplicate-doc-id",
        ],
    )
    def test_malformed_input_exits_2(self, workdir, capsys, command, name, edit):
        enc, idx = _encode_and_build(workdir)
        path = workdir / name
        lines = path.read_text().splitlines()
        row = 1 if name == "enc.jsonl" else 0  # the first coil-enc record
        obj = json.loads(lines[row])
        edit(obj)
        lines[row] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        if command == "build":
            argv = ["build", str(enc), str(workdir / "idx2")]
        elif command == "encode":
            argv = ["encode", str(path), str(workdir / "enc2.jsonl"), *ENCODE_FLAGS]
        elif command == "bm25":
            argv = ["bm25", str(path), str(workdir / "queries.jsonl"), str(workdir / "r.txt")]
        else:
            argv = ["search", str(idx), str(workdir / "queries.jsonl"), str(workdir / "r.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_k_exits_1(self, workdir):
        _, idx = _encode_and_build(workdir)
        code = main(
            ["search", str(idx), str(workdir / "queries.jsonl"), str(workdir / "r.txt"), "--k", "0"]
        )
        assert code == 1

    def test_invalid_dims_exit_1(self, workdir):
        code = main(
            [
                "encode", str(workdir / "corpus.jsonl"), str(workdir / "o.jsonl"),
                "--n-lm", "4", "--n-t", "8", "--n-c", "0",
            ]
        )
        assert code == 1
