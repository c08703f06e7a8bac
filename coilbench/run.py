"""Run the coil benchmark.

    python3 coilbench/run.py --workload all
    python3 coilbench/run.py --workload query-full --seed 3 --seconds 55 --trace 0

Run from a checkout of the repository; the program under test is the
checkout's own ``src/coil``.  Each workload runs in its own process with one
client in a closed loop.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs untraced and traced passes of identical work
and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
files, the per-checkout corpus cache, results and span files go under
``.coilbench/`` in the checkout.
"""
from __future__ import annotations

import os

# BLAS may not add threads of its own: search_many already uses one thread
# per core.  This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import coil from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import coil
    except ImportError as exc:
        sys.exit(f"coilbench: cannot import coil from {src}: {exc}")
    if not Path(coil.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"coilbench: coil was imported from {coil.__file__}, not from {src}")


def _parse(argv):
    from coilbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    p.add_argument("--work-dir", type=Path, default=ROOT / ".coilbench")
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _format(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.6g}"


def run_workload(args) -> int:
    from coilbench import harness
    from coilbench.workloads import get_workload

    spec = get_workload(args.workload, args.smoke)
    work_dir = args.work_dir.resolve()
    if args.prepare:
        harness.build_cache(spec, harness.cache_dir(work_dir, spec))
        return 0

    started = time.perf_counter()
    env = harness.environment()
    print(
        f"coilbench workload={spec.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print(f"env {json.dumps(env, sort_keys=True)}")
    run = harness.WorkloadRun(spec, args.seed, work_dir, args.smoke)
    try:
        if args.trace:
            metrics, out, tracer = run.trace(args.seconds)
            print("  phase (last traced pass)   wall_s  library_s  workers_s     gap_s")
            phases = tracer.phase_table()
            for phase, row in phases.items():
                print(
                    f"  {phase:<24} {row['wall_s']:8.4f} {row['library_s']:10.4f} "
                    f"{row['workers_s']:10.4f} {row['gap_s']:9.4f}"
                )
        else:
            metrics, out = run.measure(args.seconds)
            phases = {}
    finally:
        run.close()

    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {_format(value):>14} {unit}")
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'failed_frac':<34} {_format(failed_frac):>14} ratio "
          f"({out.failed} failed of {out.attempted} attempted)")
    for failure in out.check_failures:
        print(f"  check failed: {failure}")
    # The first min_rounds run files are the same for every run with one seed.
    fixed = out.run_sha256[: spec.min_rounds]
    run_digest = hashlib.sha256("".join(fixed).encode()).hexdigest()
    print(f"  run files: {len(out.run_sha256)}, sha256 of the first {len(fixed)}: {run_digest}")
    correct = out.failed == 0 and not out.check_failures

    results = work_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(results / f"{stem}.spans.jsonl")
    record = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "check_failures": out.check_failures,
        "run_sha256": out.run_sha256,
        "phases": phases,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "wall_s": time.perf_counter() - started,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from coilbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", str(args.work_dir),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1800)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            print(f"coilbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    _import_program()
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
