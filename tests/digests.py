"""SHA-256 digests of every CLI output over one seeded corpus.

Usage::

    PYTHONPATH=src python tests/digests.py OUT_DIR [--docs N]

Drives ``coil.cli.main`` in-process over a corpus made by ``synth`` (plus a
one-token document, a repeated-token document, one with punctuation and
non-ASCII text, and ids holding ``%``) and writes under OUT_DIR: the
coil-enc file, the index and ``stats`` of five shapes; ``search`` in every
mode each index serves, at 1 and 2 threads and, in full and cls_only modes,
at the default k and at ``--k 5``, with the per-query counters its
``--instrument`` prints to stderr; ``eval`` of every run; ``bm25`` at three
settings; and ``sample-negs`` at two.  It then prints one
``sha256  relative/path`` line per file, sorted by path.  Output of two
source trees compares with ``diff``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from coil.cli import main
from synth import random_texts

ENCODE_FLAGS = ["--n-lm", "64", "--stub-seed", "7"]
# name -> (n_t, n_c, extra encode flags)
SHAPES = {
    "full": (32, 64, []),
    "tok": (32, 0, []),
    "unicoil": (1, 0, ["--max-doc-tokens", "8"]),  # truncates most documents
    "layer-norm": (32, 64, ["--layer-norm"]),
    "cls-only": (0, 64, []),
}
BM25_SETTINGS = {
    "default": [],
    "k7-b0.3-k2-1": ["--k", "7", "--b", "0.3", "--k2", "1"],
    "k1-0.9-b0.4-k2-2-max8": ["--k1", "0.9", "--b", "0.4", "--k2", "2", "--max-doc-tokens", "8"],
}
NEG_SETTINGS = {
    "default": [],
    "depth50-count3-seed9": ["--depth", "50", "--count", "3", "--seed", "9"],
}
SPECIAL_DOCS = {
    "one%token": "w1",
    "repeated": "w2 w2 w3 w2 w2",
    "d%s%%": "Ünïcode, café! (naïve) — w4... ẞtraße w5?",
}


def _cli(argv: list[str], stdout: Path | None = None) -> str:
    """Run one command and return its stderr; its stdout goes to ``stdout``
    when given.  A command that does not exit 0 stops the script with its
    error message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"coil {' '.join(argv)}: exit {code}: {err.getvalue()}")
    if stdout is not None:
        stdout.write_text(out.getvalue(), encoding="utf-8")
    return err.getvalue()


def _write_inputs(out: Path, num_docs: int) -> tuple[Path, Path, Path]:
    rng = np.random.default_rng(24)
    docs = {f"d{i:05d}": text for i, text in enumerate(random_texts(rng, num_docs, 150, 20))}
    docs.update(SPECIAL_DOCS)
    texts = random_texts(rng, max(num_docs // 10, 3), 150, 5)
    queries = {f"q{i:03d}": text for i, text in enumerate(texts)}
    queries["q%d"] = "w2 café unseen"
    ids = list(docs)
    qrels = []
    for qid in queries:
        for doc in rng.choice(len(ids), size=3, replace=False).tolist():
            qrels.append(f"{qid} 0 {ids[doc]} {int(rng.integers(0, 4))}\n")
    qrels.append("q%d 0 d%s%% 2\n")
    paths = out / "corpus.jsonl", out / "queries.jsonl", out / "qrels.txt"
    for path, records in zip(paths[:2], (docs, queries)):
        path.write_text(
            "".join(
                json.dumps({"id": k, "text": v}, ensure_ascii=False) + "\n"
                for k, v in records.items()
            ),
            encoding="utf-8",
        )
    paths[2].write_text("".join(qrels))
    return paths


def write_outputs(out: Path, num_docs: int) -> None:
    """Write the inputs and every output described in the module docstring."""
    out.mkdir(parents=True, exist_ok=True)
    corpus, queries, qrels = map(str, _write_inputs(out, num_docs))
    runs = []
    for name, (n_t, n_c, extra) in SHAPES.items():
        shape = out / name
        shape.mkdir(exist_ok=True)
        enc, idx = shape / "enc.coil", shape / "idx"
        dims = ["--n-t", str(n_t), "--n-c", str(n_c)]
        _cli(["encode", corpus, str(enc), *ENCODE_FLAGS, *dims, *extra])
        _cli(["build", str(enc), str(idx)])
        _cli(["stats", str(idx)], shape / "stats.json")
        modes = ["tok", "full", "cls_only"] if n_t and n_c else ["tok" if n_t else "cls_only"]
        for mode in modes:
            # the default k keeps every CLS row of a corpus of up to 1000
            # documents; k = 5 prunes them
            ks = [""] if mode == "tok" else ["", "5"]
            for threads, k in itertools.product(("1", "2"), ks):
                run = shape / f"run-{mode}-t{threads}{k and '-k' + k}.txt"
                argv = ["search", str(idx), queries, str(run), "--mode", mode]
                argv += ["--threads", threads, *(["--k", k] if k else [])]
                err = _cli([*argv, "--tag", "x%s%%", "--instrument"])
                # the counter lines; the status line names the run's path
                counters = [line + "\n" for line in err.splitlines() if line.startswith("{")]
                run.with_name(f"counters-{run.stem}.jsonl").write_text("".join(counters))
                runs.append(run)
    (out / "bm25").mkdir(exist_ok=True)
    for name, flags in BM25_SETTINGS.items():
        run = out / "bm25" / f"run-{name}.txt"
        _cli(["bm25", corpus, queries, str(run), *flags])
        runs.append(run)
    for run in runs:
        _cli(["eval", str(run), qrels], run.with_name(f"eval-{run.stem}.txt"))
    for name, flags in NEG_SETTINGS.items():
        _cli(["sample-negs", corpus, queries, qrels, str(out / f"negs-{name}.jsonl"), *flags])


def digest_lines(out: Path) -> list[str]:
    """One ``sha256  relative/path`` line per file under ``out``, sorted by path."""
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / p).read_bytes()).hexdigest()}  {p}" for p in files]


def _main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory for the inputs and outputs")
    parser.add_argument("--docs", type=int, default=1000, help="random documents (default 1000)")
    args = parser.parse_args()
    write_outputs(args.out, args.docs)
    sys.stdout.write("".join(line + "\n" for line in digest_lines(args.out)))


if __name__ == "__main__":
    _main()
