"""Tests of the benchmark harness at smoke size (seconds per run)."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coilbench import harness, workloads
from coilbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "coilbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload: str, trace: int, work_dir: Path) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--work-dir", str(work_dir)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    return proc.stdout, json.loads(proc.stdout.strip().split("\n")[-1])


def assert_metrics(stdout: str, result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    lines = stdout.split("\n")
    for m in declared:
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines
        ), f"{m['name']} is not printed with unit {m['unit']}"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload, tmp_path):
    stdout, result = smoke_run(workload, 0, tmp_path)
    assert_metrics(stdout, result, SPEC["end_to_end"])
    assert "failed_frac" in stdout


def test_smoke_trace_prints_every_layer_metric_and_phases_add_up(tmp_path):
    stdout, result = smoke_run("query-full", 1, tmp_path)
    assert_metrics(stdout, result, SPEC["per_layer"])
    record = json.loads((tmp_path / "results" / "query-full-seed5-trace1.json").read_text())
    assert set(record["phases"]) == {
        "phase.setup", "phase.ingest", "phase.search", "phase.batch", "phase.bm25", "phase.eval"
    }
    for row in record["phases"].values():
        parts = row["library_s"] + row["workers_s"] + row["gap_s"]
        assert parts == pytest.approx(row["wall_s"], abs=1e-6)
    assert (tmp_path / "results" / "query-full-seed5-trace1.spans.jsonl").stat().st_size > 0


def test_perturbed_ranked_list_is_caught(tmp_path):
    spec = workloads.get_workload("query-full", smoke=True)
    run = harness.WorkloadRun(spec, 7, tmp_path, smoke=True)
    try:
        st = run.setup()
        out = harness.Samples()
        run.round(st, 0, out)
        run.check(st, out)
        assert out.failed == 0 and not out.check_failures
        query, ranked = run.check_sample[0]
        (a, sa), (b, sb) = ranked.entries[0], ranked.entries[1]
        nudged = float(np.nextafter(np.float32(sa), np.float32(np.inf)))
        perturbations = [
            [(b, sa), (a, sb)] + ranked.entries[2:],  # two documents swapped
            [(a, nudged)] + ranked.entries[1:],  # one score off by one float32 ulp
            ranked.entries[:-1],  # last entry dropped
        ]
        for entries in perturbations:
            run.check_sample = [(query, harness.core.RankedList(ranked.query_id, entries))]
            out = harness.Samples()
            run.check(st, out)
            assert out.failed == 1
            assert out.check_failures == [f"search != brute_force_search for {query.id}"]
    finally:
        run.close()


def test_index_differences_sees_one_changed_value(tmp_path):
    spec = workloads.get_workload("query-full", smoke=True)
    run = harness.WorkloadRun(spec, 8, tmp_path, smoke=True)
    try:
        st = run.setup()
        encoded = [st.enc.doc(d) for d in st.docs[:30]]
        built = harness.ingest(encoded, st.enc, tmp_path / "x.enc", tmp_path / "idx")
        loaded = harness.index.load_index(tmp_path / "idx")
        assert harness.index_differences(built, loaded) == []
        loaded.cls_matrix = loaded.cls_matrix.copy()
        loaded.cls_matrix[3, 5] = np.nextafter(loaded.cls_matrix[3, 5], np.float32(np.inf))
        tid = next(iter(loaded.lists))
        loaded.lists[tid].vectors = loaded.lists[tid].vectors.copy()
        loaded.lists[tid].vectors[0, 0] += 1
        assert harness.index_differences(built, loaded) == [f"list {tid}", "cls matrix"]
    finally:
        run.close()


def test_generator_is_seeded_and_queries_come_from_their_target():
    def make(seed):
        rng = np.random.default_rng(seed)
        docs = workloads.make_corpus(rng, 500, 1.0)
        return docs, workloads.make_queries(rng, docs, 400)

    docs, queries = make(3)
    assert (docs, queries) == make(3)
    assert make(4)[0] != docs
    texts = dict(docs)
    lengths = [len(t.split()) for t in texts.values()]
    assert min(lengths) >= 4 and max(lengths) <= 24
    oov = 0
    for _, text, target in queries:
        tokens = text.split()
        if tokens[-1].startswith("zz"):
            oov += 1
            tokens = tokens[:-1]
        assert 2 <= len(tokens) <= 6
        assert set(tokens) <= set(texts[target].split())
    assert 0.04 < oov / len(queries) < 0.16
    counts = {}
    for text in texts.values():
        for word in text.split():
            counts[word] = counts.get(word, 0) + 1
    assert counts["w0000"] > 10 * counts.get("w0100", 1)  # Zipf head dominates


def test_self_time_subtracts_children_once():
    tracer = Tracer()
    outer = tracer.begin("outer")
    first = tracer.begin("child")
    tracer.end(first)
    second = tracer.begin("child")
    tracer.end(second)
    tracer.end(outer)
    spans = {s[0]: s for s in tracer.spans}
    selfs = tracer.self_times()
    duration = {sid: s[4] - s[3] for sid, s in spans.items()}
    assert selfs[first[0]] == duration[first[0]]
    assert selfs[outer[0]] == duration[outer[0]] - duration[first[0]] - duration[second[0]]
    row = tracer.phase_table()["outer"]
    assert row["library_s"] + row["gap_s"] == pytest.approx(row["wall_s"], abs=1e-9)
