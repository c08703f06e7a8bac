from __future__ import annotations

import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import coil
from coil import (
    EncodedDocument,
    Query,
    RankedList,
    TrainingExample,
    ValidationError,
    brute_force_search,
    encode_document,
    encode_query,
    ingest_encoded,
    load_index,
    read_run,
    read_training_examples,
    write_encoded,
    write_run,
    write_training_examples,
)
from coil.cli import main
from coil.core import EncodedQuery, atomic_writer
from coil.encoding import read_encoded_header
import numpy as np
from streams import fed_stream, returns_within
from synth import coil_enc_bytes, coil_enc_record

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


def _without_encoder(**fields):
    """A coil-enc header edit that drops the encoder settings and sets ``fields``."""

    def edit(header):
        del header["encoder"]
        header.update(fields)

    return edit


def _split_header(enc):
    """A coil-enc file's header as a dict, and its record bytes."""
    line, records = enc.read_bytes().split(b"\n", 1)
    return json.loads(line), records


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
        # encode queries exactly as the CLI does, via the header's encoder settings
        spec = read_encoded_header(enc)["encoder"]
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
                assert got.ids == want.ids
                for (_, gs), (_, ws) in zip(got.entries, want.entries):
                    assert gs == pytest.approx(ws, rel=1e-5)

    @pytest.mark.parametrize("command", ["search", "bm25"])
    def test_run_on_stdout_pipes_into_eval(self, workdir, capsys, command):
        _, idx = _encode_and_build(workdir)
        source = str(idx) if command == "search" else str(workdir / "corpus.jsonl")
        queries, qrels = str(workdir / "queries.jsonl"), str(workdir / "qrels.txt")
        assert main([command, source, queries, str(workdir / "run.txt")]) == 0
        capsys.readouterr()
        assert main(["eval", str(workdir / "run.txt"), qrels]) == 0
        want = capsys.readouterr().out
        env = {**os.environ, "PYTHONPATH": str(Path(coil.__file__).parent.parent)}
        coil_cli = [sys.executable, "-m", "coil"]
        producer = subprocess.Popen(
            [*coil_cli, command, source, queries, "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        consumer = subprocess.run(
            [*coil_cli, "eval", "/dev/stdin", qrels],
            stdin=producer.stdout, capture_output=True, text=True, env=env, timeout=120,
        )
        producer.stdout.close()
        _, producer_err = producer.communicate(timeout=120)
        assert producer.returncode == 0 and consumer.returncode == 0, consumer.stderr
        assert consumer.stdout == want
        assert producer_err.decode().startswith(("searched 3 queries", "ranked 3 queries"))

    def test_header_roundtrips_through_encoder_spec(self, workdir):
        enc = workdir / "enc.jsonl"
        flags = [*ENCODE_FLAGS, "--layer-norm", "--max-doc-tokens", "4"]
        assert main(["encode", str(workdir / "corpus.jsonl"), str(enc), *flags]) == 0
        line = enc.read_bytes().split(b"\n", 1)[0].decode()
        spec = read_encoded_header(enc)["encoder"]
        assert spec.config.mode == "full" and spec.config.cls_layer_norm
        header = {"format": "coil-enc", "version": 2, "n_t": 8, "n_c": 6}
        assert json.dumps({**header, "encoder": spec.to_meta()}) == line

    def test_encode_writes_one_file(self, workdir):
        out = workdir / "out"
        out.mkdir()
        argv = ["encode", str(workdir / "corpus.jsonl"), str(out / "enc.jsonl"), *ENCODE_FLAGS]
        assert main(argv) == 0
        assert [p.name for p in out.iterdir()] == ["enc.jsonl"]

    def test_leftover_sidecar_is_never_read(self, workdir):
        stale = workdir / "enc.jsonl.meta.json"
        stale.write_text("not json\n")
        enc, idx = _encode_and_build(workdir)
        assert stale.read_text() == "not json\n"
        meta = json.loads((idx / "meta.json").read_text())
        assert meta["encoder_meta"] == read_encoded_header(enc)["encoder"].to_meta()
        queries = str(workdir / "queries.jsonl")
        assert main(["search", str(idx), queries, str(workdir / "r.txt")]) == 0

    def test_build_stores_the_vocabulary_only_in_the_encoder_settings(self, workdir):
        enc, idx = _encode_and_build(workdir)
        meta = json.loads((idx / "meta.json").read_text())
        assert meta["version"] == 5 and "vocab" not in meta
        assert meta["encoder_meta"] == read_encoded_header(enc)["encoder"].to_meta()

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
        capsys.readouterr()
        assert main(
            [
                "search", str(idx), str(workdir / "queries.jsonl"),
                str(workdir / "run.txt"), "--mode", "tok", "--instrument",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        *counter_lines, summary = captured.err.splitlines()
        assert summary == f"searched 3 queries (mode=tok) -> {workdir / 'run.txt'}"
        counters = [json.loads(l) for l in counter_lines]
        assert [c["qid"] for c in counters] == ["q0", "q1", "q2"]
        assert counters[2]["lists_touched"] == 0  # all-unseen query
        assert all(
            set(c)
            == {"qid", "lists_touched", "postings_scanned", "candidates", "cls_scored"}
            for c in counters
        )
        assert all(c["cls_scored"] == 0 for c in counters)  # tok mode scores no CLS dot

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
        header, _ = _split_header(enc)
        assert header["n_c"] == 0
        records = [
            coil_enc_record(d.doc_id, d.token_ids, d.token_vecs) for d in ingest_encoded(enc)
        ]
        assert enc.read_bytes() == coil_enc_bytes(header, *records)

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
        assert f"(mode={mode})" in capsys.readouterr().err
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

    def test_build_without_encoder_settings_still_works(self, workdir):
        enc, _ = _encode_and_build(workdir)
        header, records = _split_header(enc)
        del header["encoder"]
        enc.write_bytes(coil_enc_bytes(header, records))
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
        assert run["q0"].ids[0] in {"d0", "d2"}
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

    @pytest.mark.parametrize(
        "rows",
        [
            ["q0 Q0 d1 1 2.0 t", "q0 Q0 d1 2 1.0 t"],
            ["q0 Q0 d0 1 1.0 t", "q0 Q0 d1 2 2.0 t"],
            ["q0 Q0 d1 1 nan t"],
            ["q0 Q0 d1 1 inf t"],
        ],
        ids=["duplicate-doc-id", "rising-scores", "nan-score", "inf-score"],
    )
    def test_malformed_ranked_list_exits_2_naming_the_file(self, workdir, capsys, rows):
        run = workdir / "run.txt"
        run.write_text("".join(row + "\n" for row in rows))
        capsys.readouterr()
        assert main(["eval", str(run), str(workdir / "qrels.txt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {run}: query 'q0': ")

    def test_empty_qrels_exits_2_naming_the_file(self, workdir, capsys):
        run, qrels = workdir / "run.txt", workdir / "empty_qrels.txt"
        run.write_text("q0 Q0 d0 1 1.0 t\n")
        qrels.write_text("")
        capsys.readouterr()
        assert main(["eval", str(run), str(qrels)]) == 2
        assert capsys.readouterr().err == f"error: {qrels}: no judgments\n"

    @pytest.mark.parametrize("grade", [1023, 1024, 10**6])
    def test_large_grades_exit_0(self, workdir, capsys, grade):
        run, qrels = workdir / "run.txt", workdir / "graded_qrels.txt"
        run.write_text("q1 Q0 d1 1 1.0 t\n")
        qrels.write_text(f"q1 0 d1 {grade}\n")
        capsys.readouterr()
        assert main(["eval", str(run), str(qrels), "--metrics", "ndcg@10"]) == 0
        assert capsys.readouterr().out == "ndcg@10\t1.000000\n"

    @pytest.mark.parametrize("stream", ["fifo", "pipe"])
    def test_run_from_a_stream_error_names_the_line(self, workdir, capsys, stream):
        data = b"q0 Q0 d0 1 2.0 t\nq0 Q0 d\x002 2 1.0 t\n"
        qrels = str(workdir / "qrels.txt")
        capsys.readouterr()
        with fed_stream(stream, workdir, data) as run:
            code = returns_within(lambda: main(["eval", run, qrels]))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {run}: line 2: document id ")


EVAL_RUN = "".join(
    f"{qid} Q0 {doc} {rank} {score} t\n"
    for qid, ranked in {
        "q0": [("d2", "3.5"), ("d0", "3.5"), ("d4", "1.25"), ("d1", "-0.5")],
        "q1": [("d1", "12"), ("d3", "7.0625"), ("d0", "0"), ("d2", "-0")],
        "q2": [("d4", "0.001"), ("d3", "1e-07")],
    }.items()
    for rank, (doc, score) in enumerate(ranked, start=1)
)
EVAL_QRELS = "q0 0 d0 1\nq0 0 d2 0\nq1 0 d1 12\nq1 0 d3 3\nq2 0 d4 1\nq3 0 d0 2\n"


def _mutations(data: bytes, count: int, seed: int):
    """Yield ``(name, bytes)`` for ``count`` mutations of ``data``.  The first
    cut it at each line start and duplicate each field in place; the rest are
    seeded, in turn a bit flip, a truncation, and a span of 1-16 bytes
    deleted, inserted (copied from another offset) or duplicated in place."""
    cuts = [0, *(m.end() for m in re.finditer(rb"\n", data[:-1]))]
    fields = list(re.finditer(rb"\S+", data))
    for at in cuts:
        yield f"cut-at-{at}", data[:at]
    for field in fields:
        yield f"field-at-{field.start()}", data[: field.end()] + field[0] + data[field.end() :]
    rng = random.Random(seed)
    kinds = ("flip", "truncate", "delete", "insert", "duplicate")
    for i in range(count - len(cuts) - len(fields)):
        kind, at, span = kinds[i % len(kinds)], rng.randrange(len(data)), rng.randint(1, 16)
        if kind == "flip":
            mutated = bytearray(data)
            mutated[at] ^= 1 << rng.randrange(8)
        elif kind == "truncate":
            mutated = data[:at]
        elif kind == "delete":
            mutated = data[:at] + data[at + span :]
        elif kind == "insert":
            source = rng.randrange(len(data))
            mutated = data[:at] + data[source : source + span] + data[at:]
        else:
            mutated = data[:at] + data[at : at + span] + data[at:]
        yield f"{kind}-{i}-at-{at}", bytes(mutated)


class TestEvalInputMutations:
    """`coil eval` under seeded damage to a valid run or qrels file: no exception
    escapes, the exit code is 0 or 2, and an exit-2 message names the file."""

    @pytest.mark.parametrize("target, seed", [("run.txt", 1), ("qrels.txt", 2)])
    def test_exits_0_or_2_naming_the_mutated_file(self, tmp_path, capsys, target, seed):
        run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run.write_text(EVAL_RUN)
        qrels.write_text(EVAL_QRELS)
        assert main(["eval", str(run), str(qrels)]) == 0
        path = tmp_path / target
        codes = Counter()
        for variant, data in _mutations(path.read_bytes(), 300, seed):
            path.write_bytes(data)
            capsys.readouterr()
            try:
                code = main(["eval", str(run), str(qrels)])
            except Exception as exc:
                pytest.fail(f"{variant}: {exc!r} escaped main")
            err = capsys.readouterr().err
            assert code in (0, 2), (variant, err)
            if code == 2:
                assert err.startswith(f"error: {path}: "), (variant, err)
            codes[code] += 1
        assert sum(codes.values()) == 300 and codes[0] and codes[2], codes


class TestTextInputMutations:
    """`coil encode` under seeded damage to its corpus, and `coil search` to
    its queries: no exception escapes, the exit code is 0 or 2, an exit-2
    message names the file, no temporary file is left, and the output is
    absent or a whole file."""

    @pytest.mark.parametrize("target, seed", [("corpus.jsonl", 3), ("queries.jsonl", 4)])
    def test_exits_0_or_2_and_leaves_no_partial_output(self, workdir, capsys, target, seed):
        _, idx = _encode_and_build(workdir)
        path = workdir / target
        if target == "corpus.jsonl":
            out, read_whole = workdir / "out.jsonl", lambda p: list(ingest_encoded(p))
            argv = ["encode", str(path), str(out), *ENCODE_FLAGS]
        else:
            out, read_whole = workdir / "run.txt", read_run
            argv = ["search", str(idx), str(path), str(out)]
        codes = Counter()
        for variant, data in _mutations(path.read_bytes(), 300, seed):
            path.write_bytes(data)
            out.unlink(missing_ok=True)
            capsys.readouterr()
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{variant}: {exc!r} escaped main")
            err = capsys.readouterr().err
            assert code in (0, 2), (variant, err)
            if code == 2:
                assert err.startswith(f"error: {path}: "), (variant, err)
            assert not list(workdir.glob(".*.tmp*")), variant
            if code == 0 or out.exists():
                read_whole(out)
            codes[code] += 1
        assert sum(codes.values()) == 300 and codes[0] and codes[2], codes


class TestIndexInputMutations:
    """`coil build` under seeded damage to its coil-enc file, and `coil search`
    to each file of its index: no exception escapes, the exit code is 0 or 2,
    an exit-2 message starts with the coil-enc path or the index directory,
    no temporary file is left, and the output is absent or a whole file."""

    @pytest.mark.parametrize(
        "target, seed",
        [("enc.jsonl", 5), ("idx/meta.json", 6), ("idx/postings.bin", 7), ("idx/cls.bin", 8)],
    )
    def test_exits_0_or_2_and_leaves_no_partial_output(self, workdir, capsys, target, seed):
        enc, idx = _encode_and_build(workdir)
        path = workdir / target
        if target == "enc.jsonl":
            named, out, read_whole = enc, workdir / "idx2", load_index
            argv = ["build", str(enc), str(out)]
        else:
            named, out, read_whole = idx, workdir / "run.txt", read_run
            argv = ["search", str(idx), str(workdir / "queries.jsonl"), str(out)]
        codes = Counter()
        for variant, data in _mutations(path.read_bytes(), 300, seed):
            path.write_bytes(data)
            if out.is_dir():
                shutil.rmtree(out)
            out.unlink(missing_ok=True)
            capsys.readouterr()
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{variant}: {exc!r} escaped main")
            err = capsys.readouterr().err
            assert code in (0, 2), (variant, err)
            if code == 2:
                assert err.startswith(f"error: {named}"), (variant, err)
            assert not list(workdir.glob("**/.*.tmp*")), variant
            if code == 0 or out.exists():
                read_whole(out)
            codes[code] += 1
        assert sum(codes.values()) == 300 and codes[2], codes


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

    def test_examples_on_stdout_are_the_whole_stream(self, workdir):
        inputs = [str(workdir / n) for n in ("corpus.jsonl", "queries.jsonl", "qrels.txt")]
        flags = ["--depth", "5", "--count", "2"]
        assert main(["sample-negs", *inputs, str(workdir / "negs.jsonl"), *flags]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(coil.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-m", "coil", "sample-negs", *inputs, "/dev/stdout", *flags],
            capture_output=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        (workdir / "stdout.jsonl").write_bytes(done.stdout)
        examples = read_training_examples(workdir / "stdout.jsonl")
        assert len(examples) == len(done.stdout.splitlines()) == 5
        assert done.stdout == (workdir / "negs.jsonl").read_bytes()
        assert done.stderr.decode() == "wrote 5 training examples -> /dev/stdout\n"


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
            ("build", "enc.jsonl:line 1", lambda h: h["encoder"].pop("stub")),
            ("build", "enc.jsonl:line 1", lambda h: h["encoder"]["config"].update(n_x=1)),
            ("search", "idx/meta.json", lambda m: m.pop("checksums")),
            ("search", "idx/meta.json", lambda m: m.update(version=1)),
            ("search", "idx/meta.json", lambda m: m.update(version=2)),
            ("search", "idx/meta.json", lambda m: m.update(version=3)),
            ("search", "idx/meta.json", lambda m: m.update(version=4)),
            (
                "search",
                "idx/meta.json",
                lambda m: m["checksums"].update(
                    {"postings.bin": m["checksums"]["postings.bin"].removeprefix("crc32:")}
                ),
            ),
            ("build", "enc.jsonl:line 1", lambda h: h["encoder"].update(projection_seed=0)),
            ("build", "enc.jsonl:line 1", lambda h: h["encoder"]["config"].update(n_t=4)),
            ("build", "enc.jsonl:line 1", _without_encoder(n_t=True, n_c=False)),
            ("build", "enc.jsonl:line 1", _without_encoder(n_t=0, n_c=0)),
            ("build", "enc.jsonl:line 1", lambda h: h.update(encodr=h.pop("encoder"))),
            ("build", "enc.jsonl:record 1", lambda r: r.update(id="d 0")),
            ("build", "enc.jsonl:record 1", lambda r: r["token_vecs"][0].__setitem__(0, float("nan"))),
            ("build", "enc.jsonl:record 1", lambda r: r.update(id="d0\x00")),
            ("encode", "corpus.jsonl", lambda r: r.update(id="d 0")),
            ("bm25", "corpus.jsonl", lambda r: r.update(id="d\x00")),
            ("bm25", "corpus.jsonl", lambda r: r.update(id="d\ud800")),
            ("search", "queries.jsonl", lambda r: r.update(id="q\x00")),
            ("search", "idx/meta.json", lambda m: m["doc_table"].__setitem__(0, "")),
            ("search", "idx/meta.json", lambda m: m["doc_table"].__setitem__(0, " ")),
            ("search", "idx/meta.json", lambda m: m["doc_table"].__setitem__(0, "d1")),
            ("build", "enc.jsonl:line 1", lambda h: h["encoder"]["vocab"].update(apple=-5)),
            ("build", "enc.jsonl:line 1", lambda h: h["encoder"]["vocab"].update(apple=0)),
            ("build", "enc.jsonl:line 1", lambda h: h["encoder"]["vocab"].update(apple=2**31)),
        ],
        ids=[
            "header-encoder-missing-stub",
            "header-encoder-unknown-config-key",
            "meta-missing-checksums",
            "meta-version-1",
            "meta-version-2",
            "meta-version-3",
            "meta-version-4",
            "meta-checksum-without-crc32-prefix",
            "header-encoder-projection-seed",
            "header-encoder-disagrees-with-n_t",
            "header-bool-dims",
            "header-zero-dims",
            "header-unknown-key",
            "whitespace-id",
            "nan-vector",
            "nul-id",
            "corpus-whitespace-id",
            "corpus-nul-id",
            "corpus-surrogate-id",
            "query-nul-id",
            "meta-empty-doc-id",
            "meta-whitespace-doc-id",
            "meta-duplicate-doc-id",
            "header-negative-token-id",
            "header-zero-token-id",
            "header-token-id-past-int32",
        ],
    )
    def test_malformed_input_exits_2(self, workdir, capsys, command, name, edit):
        enc, idx = _encode_and_build(workdir)
        name, _, where = name.partition(":")  # in a coil-enc file, "line 1" or "record 1"
        path = workdir / name
        if where == "record 1":
            first, *rest = ingest_encoded(path)
            obj = {k: getattr(first, k).tolist() for k in ("token_ids", "token_vecs", "cls_vec")}
            obj["id"] = first.doc_id
            edit(obj)
            header, _ = _split_header(path)
            records = [
                coil_enc_record(obj["id"], obj["token_ids"], obj["token_vecs"], obj["cls_vec"])
            ] + [coil_enc_record(d.doc_id, d.token_ids, d.token_vecs, d.cls_vec) for d in rest]
            path.write_bytes(coil_enc_bytes(header, *records))
        elif where == "line 1":
            header, records = _split_header(path)
            edit(header)
            path.write_bytes(coil_enc_bytes(header, records))
        else:
            lines = path.read_text().splitlines()
            obj = json.loads(lines[0])
            edit(obj)
            lines[0] = json.dumps(obj)
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
        if where:
            assert f"{path}: {where}:" in err

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("search", lambda m: m["config"].update(n_lm=4), "config: n_t must be <= n_lm"),
            ("stats", lambda m: m["config"].update(n_lm=4), "config: n_t must be <= n_lm"),
            (
                "search",
                lambda m: m["encoder_meta"]["stub"].update(window=-1),
                "encoder_meta: stub: window must be >= 0",
            ),
            (
                "search",
                lambda m: m["encoder_meta"]["vocab"].update(apple=-5),
                "encoder_meta: vocab: token 'apple' has id -5, not in [1, 2**31)",
            ),
            (
                "search",
                lambda m: m["encoder_meta"]["config"].update(cls_layer_norm=True),
                "encoder_meta: config disagrees with the index's config",
            ),
            (
                "build",
                lambda h: h["encoder"]["config"].update(n_lm=4),
                "line 1: encoder: config: n_t must be <= n_lm",
            ),
        ],
        ids=["meta-n_t-above-n_lm", "stats-n_t-above-n_lm", "meta-negative-window",
             "meta-negative-token-id", "meta-configs-disagree", "header-n_t-above-n_lm"],
    )
    def test_stored_settings_breaking_a_rule_exit_2_naming_the_file(
        self, workdir, capsys, command, edit, message
    ):
        enc, idx = _encode_and_build(workdir)
        if command == "build":
            path = enc
            header, records = _split_header(path)
            edit(header)
            path.write_bytes(coil_enc_bytes(header, records))
            argv = ["build", str(enc), str(workdir / "idx2")]
        else:
            path = idx / "meta.json"
            meta = json.loads(path.read_text())
            edit(meta)
            path.write_text(json.dumps(meta))
            argv = [command, str(idx)]
            if command == "search":
                argv += [str(workdir / "queries.jsonl"), str(workdir / "r.txt")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_version_1_coil_enc_exits_2(self, workdir, capsys):
        """A file in the earlier text form is rejected at its header, not read."""
        enc = workdir / "enc.jsonl"
        enc.write_text(
            '{"format": "coil-enc", "version": 1, "n_t": 2, "n_c": 0}\n'
            '{"id": "d0", "token_ids": [1], "token_vecs": [[0.5,0.25]]}\n'
        )
        assert main(["build", str(enc), str(workdir / "idx")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {enc}: line 1: unsupported version 1\n"
        assert not (workdir / "idx").exists()

    def test_run_tag_with_whitespace_exits_1(self, workdir, capsys):
        _, idx = _encode_and_build(workdir)
        run = workdir / "r.txt"
        argv = ["search", str(idx), str(workdir / "queries.jsonl"), str(run), "--tag", "my run"]
        capsys.readouterr()
        assert main(argv) == 1
        assert "run tag id 'my run' must not contain whitespace" in capsys.readouterr().err
        assert not run.exists()

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


def _raise_after_two(items):
    for i, item in enumerate(items):
        if i == 2:
            raise ValidationError("stopped after two items")
        yield item


class _RaisingRun(dict):
    def items(self):
        return _raise_after_two(super().items())


def _encoded_doc(i, n_t=2):
    return EncodedDocument(
        f"d{i}", np.array([1], np.int32), np.full((1, n_t), 0.5, np.float32), None
    )


_FAILING_WRITES = {
    "write_encoded": lambda path: write_encoded(
        _raise_after_two(_encoded_doc(i) for i in range(3)), path, 2, 0
    ),
    # the third record fails check_encoded_dims: a truncated corpus must not land
    "write_encoded-bad-dims": lambda path: write_encoded(
        [_encoded_doc(0), _encoded_doc(1), _encoded_doc(2, n_t=3)], path, 2, 0
    ),
    "write_run": lambda path: write_run(
        _RaisingRun({f"q{i}": RankedList(f"q{i}", [("d0", 1.0)]) for i in range(3)}), path
    ),
    "write_training_examples": lambda path: write_training_examples(
        _raise_after_two(TrainingExample(f"q{i}", "d0", ("d1",)) for i in range(3)), path
    ),
}


class TestInterruptedWrites:
    """A writer that fails part-way leaves the earlier file, or none, and no temp file."""

    @pytest.mark.parametrize("case", sorted(_FAILING_WRITES))
    @pytest.mark.parametrize("earlier", [None, "earlier contents\n"])
    def test_writer_failing_part_way(self, tmp_path, case, earlier):
        path = tmp_path / "out.txt"
        if earlier is not None:
            path.write_text(earlier)
        with pytest.raises(ValidationError):
            _FAILING_WRITES[case](path)
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["out.txt"])
        if earlier is not None:
            assert path.read_text() == earlier

    def test_failed_replace_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("earlier\n")

        def failing_replace(src, dst):
            raise OSError("no space left")

        monkeypatch.setattr("coil.core.os.replace", failing_replace)
        with pytest.raises(OSError, match="no space left"):
            with atomic_writer(path) as fh:
                fh.write("new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "earlier\n"

    def test_pipe_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "run.pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        write_run({"q0": RankedList("q0", [("d0", 0.5)])}, fifo, tag="t")
        reader.join(timeout=10)
        assert not reader.is_alive() and got == ["q0 Q0 d0 1 0.5 t\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_dev_fd_of_a_pipe_is_written_in_place(self):
        # /dev/fd/<n> of a pipe resolves to "pipe:[<inode>]", which is no file name
        read_fd, write_fd = os.pipe()
        try:
            target = f"/dev/fd/{write_fd}"
            returns_within(
                lambda: write_run({"q0": RankedList("q0", [("d0", 0.5)])}, target, tag="t")
            )
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            assert fh.read() == b"q0 Q0 d0 1 0.5 t\n"

    def test_encode_failing_part_way_keeps_the_earlier_file(self, workdir, monkeypatch):
        enc, _ = _encode_and_build(workdir)
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        calls = []

        def encode_two(doc, *args):
            calls.append(doc.id)
            if len(calls) > 2:
                raise ValidationError("encoder stopped")
            return encode_document(doc, *args)

        monkeypatch.setattr("coil.cli.encode_document", encode_two)
        argv = ["encode", str(workdir / "corpus.jsonl"), str(enc), *ENCODE_FLAGS, "--n-c", "0"]
        assert main(argv) == 1
        after = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        assert after == before and enc.name in after

    def test_encode_through_a_symlink_keeps_the_link(self, workdir):
        enc, _ = _encode_and_build(workdir)
        link = workdir / "link.jsonl"
        link.symlink_to(enc.name)
        argv = ["encode", str(workdir / "corpus.jsonl"), str(link), *ENCODE_FLAGS, "--n-c", "0"]
        assert main(argv) == 0
        assert link.is_symlink() and link.read_bytes() == enc.read_bytes()
        assert read_encoded_header(enc)["n_c"] == 0
        assert not [p for p in workdir.iterdir() if ".tmp" in p.name]


def _damaged_variants(data: bytes) -> dict[str, bytes]:
    """Empty, cut in half, a non-UTF-8 byte pair inserted, and single-bit flips
    (XOR 0x01 and 0x20) at 8 evenly spaced offsets."""
    half = len(data) // 2
    variants = {
        "empty": b"",
        "half": data[:half],
        "ff-fe": data[:half] + b"\xff\xfe" + data[half:],
    }
    for i in range(1, 9):
        offset = len(data) * i // 9
        for mask in (0x01, 0x20):
            flipped = bytearray(data)
            flipped[offset] ^= mask
            variants[f"xor-{mask:#04x}-at-{offset}"] = bytes(flipped)
    return variants


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


class TestCorruptedInputs:
    """The exit-code contract under byte-level damage to every file the CLI reads."""

    @pytest.mark.parametrize(
        "name, command",
        [
            ("corpus.jsonl", "encode"),
            ("queries.jsonl", "search"),
            ("enc.jsonl", "build"),
            ("idx/meta.json", "search"),
            ("idx/postings.bin", "search"),
            ("idx/cls.bin", "search"),
            ("run.txt", "eval"),
            ("qrels.txt", "eval"),
        ],
    )
    def test_exit_0_1_or_2_and_non_utf8_exits_2(self, workdir, capsys, name, command):
        enc, idx = _encode_and_build(workdir)
        run = workdir / "run.txt"
        queries = str(workdir / "queries.jsonl")
        argvs = {
            "encode": ["encode", str(workdir / "corpus.jsonl"), str(workdir / "e2"), *ENCODE_FLAGS],
            "build": ["build", str(enc), str(workdir / "idx2")],
            "search": ["search", str(idx), queries, str(workdir / "r2")],
            "eval": ["eval", str(run), str(workdir / "qrels.txt")],
        }
        assert main(["search", str(idx), queries, str(run)]) == 0
        path = workdir / name
        original = path.read_bytes()
        for variant, data in _damaged_variants(original).items():
            path.write_bytes(data)
            capsys.readouterr()
            code = main(argvs[command])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), variant
            if code:
                assert err.startswith("error:") and "Traceback" not in err, variant
            # past its header line a coil-enc file is binary, like the .bin files
            text = data.split(b"\n", 1)[0] if name == "enc.jsonl" else data
            if not name.endswith(".bin") and not _is_utf8(text):
                assert code == 2 and str(path) in err, variant

    @pytest.mark.parametrize("stream", ["fifo", "pipe"])
    def test_coil_enc_from_a_stream_exits_2(self, workdir, capsys, stream):
        enc, _ = _encode_and_build(workdir)
        data = enc.read_bytes()
        idx = str(workdir / "idx2")
        capsys.readouterr()
        with fed_stream(stream, workdir, data) as source:
            code = returns_within(lambda: main(["build", source, idx]))
        assert code == 2
        assert capsys.readouterr().err == f"error: {source}: not a regular file\n"

    def test_non_utf8_coil_enc_header_exits_2(self, workdir, capsys):
        enc, _ = _encode_and_build(workdir)
        data = enc.read_bytes()
        enc.write_bytes(data[:1] + b"\xff" + data[1:])
        capsys.readouterr()
        assert main(["build", str(enc), str(workdir / "idx2")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {enc}: line 1: not UTF-8 (byte 2: invalid start byte)")

    @pytest.mark.parametrize("char", ["\x00", "\x7f"])
    @pytest.mark.parametrize("field", [0, 2], ids=["query-id", "doc-id"])
    def test_control_character_in_run_id_exits_2(self, workdir, capsys, char, field):
        _, idx = _encode_and_build(workdir)
        run = workdir / "run.txt"
        assert main(["search", str(idx), str(workdir / "queries.jsonl"), str(run)]) == 0
        lines = run.read_text().splitlines()
        fields = lines[1].split(" ")
        fields[field] += char
        lines[1] = " ".join(fields)
        run.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", str(run), str(workdir / "qrels.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run}: line 2: ") and "control characters" in err
