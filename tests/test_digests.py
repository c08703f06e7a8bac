"""`tests/digests.py`, the byte-identity check of every CLI output, runs as a
script and prints the same digests twice."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import coil

SCRIPT = Path(__file__).with_name("digests.py")


def test_two_runs_print_equal_digests(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(coil.__file__).parent.parent)}
    printed = [
        subprocess.run(
            [sys.executable, str(SCRIPT), str(tmp_path / name), "--docs", "20"],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        ).stdout
        for name in ("a", "b")
    ]
    assert printed[0] == printed[1]
    paths = [line.split("  ", 1)[1] for line in printed[0].splitlines()]
    assert paths == sorted(paths)
    for path in (
        "full/enc.coil", "full/idx/postings.bin", "full/stats.json",
        "full/run-cls_only-t2.txt", "full/eval-run-tok-t1.txt", "cls-only/idx/cls.bin",
        "layer-norm/counters-run-full-t1-k5.jsonl",
        "tok/counters-run-tok-t2.jsonl",
        "bm25/eval-run-k7-b0.3-k2-1.txt", "negs-depth50-count3-seed9.jsonl",
    ):
        assert path in paths
