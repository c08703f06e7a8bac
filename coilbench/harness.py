"""One workload run: preparation, repeated setup, closed-loop rounds, checks.

Every workload runs the same round, one client in a closed loop: an
ingest stage (the library calls of ``coil encode`` + ``coil build``) on a
seeded slice of the corpus, then four query phases over one batch of queries:

* search: ``encode_query`` + ``search``, one query at a time;
* bm25:   ``tokenize`` + ``bm25_search``, one query at a time, each right
  after that query's search;
* batch:  ``load_queries`` + encode all + ``search_many(threads=nproc)`` +
  ``write_run``, what ``coil search`` does after loading the index;
* eval:   ``read_run`` + ``read_qrels`` + ``evaluate`` on the batch run file.

The workloads differ in corpus and index, so each stresses different layers
(see ``workloads.py``).  Each round takes a fresh batch of queries and a fresh
slice of documents, so a longer run measures more distinct inputs.  Library
calls go through module attributes (``encoding.encode_query``), so a
:class:`Tracer` can time them.
"""
from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from coil import bm25, core, encoding, evaluation, index, retrieval
from coil.core import CoilConfig, Document, EncodedDocument, Query

from . import workloads as wl
from .tracing import Tracer, dir_bytes

SETUP_REPEATS = 3
WARMUP_QUERIES = 5
CHECK_QUERIES = 3
# More batches than a run gets through, so no query is measured twice.
QUERY_BATCHES = 160
SRC = Path(__file__).resolve().parent.parent / "src" / "coil"

# coil reports bad input and violated invariants as ValueError subclasses.
OP_ERRORS = (ValueError, OSError)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Encoder set-up, mirroring the CLI
# ---------------------------------------------------------------------------


@dataclass
class Encoder:
    tokenizer: encoding.TokenizerConfig
    stub: encoding.StubContextualizerConfig
    params: core.ProjectionParams
    config: CoilConfig
    meta: dict

    def doc(self, d: Document) -> EncodedDocument:
        return encoding.encode_document(d, self.tokenizer, self.stub, self.params, self.config)

    def query(self, q: Query) -> core.EncodedQuery:
        return encoding.encode_query(q, self.tokenizer, self.stub, self.params, self.config)


def encoder_for_corpus(docs: list[Document], n_c: int) -> Encoder:
    """Vocabulary and projection as ``coil encode`` derives them."""
    config = core.validate_config(
        CoilConfig(n_lm=wl.N_LM, n_t=wl.N_T, n_c=n_c, mode="full" if n_c else "tok")
    )
    tokenizer = encoding.build_vocab(d.text for d in docs)
    stub = encoding.StubContextualizerConfig(seed=wl.STUB_SEED)
    params = encoding.seeded_projection(config, wl.STUB_SEED)
    meta = {
        "vocab": tokenizer.vocab,
        "lowercase": tokenizer.lowercase,
        "config": {
            "n_lm": config.n_lm,
            "n_t": config.n_t,
            "n_c": config.n_c,
            "max_doc_tokens": config.max_doc_tokens,
            "cls_layer_norm": config.cls_layer_norm,
            "mode": config.mode,
        },
        "stub": {"seed": stub.seed, "window": stub.window, "mix_weight": stub.mix_weight},
        "projection_seed": wl.STUB_SEED,
    }
    return Encoder(tokenizer, stub, params, config, meta)


def encoder_from_meta(meta: dict) -> Encoder:
    """The query encoder ``coil search`` rebuilds from an index's encoder_meta."""
    tokenizer = encoding.TokenizerConfig(
        lowercase=bool(meta["lowercase"]),
        vocab={str(t): int(i) for t, i in meta["vocab"].items()},
    )
    config = core.validate_config(CoilConfig(**meta["config"]))
    stub = encoding.StubContextualizerConfig(**meta["stub"])
    params = encoding.seeded_projection(config, int(meta["projection_seed"]))
    return Encoder(tokenizer, stub, params, config, meta)


def ingest(
    encoded: Iterable[EncodedDocument], enc: Encoder, enc_path: Path, index_dir: Path
):
    """write coil-enc -> ingest -> build -> save; returns the built index.

    ``encoded`` may be a generator, so encoding happens inside write_encoded
    as it does in ``coil encode``.
    """
    encoding.write_encoded(encoded, enc_path, enc.config.n_t, enc.config.n_c)
    built = index.build_index(
        encoding.ingest_encoded(enc_path),
        enc.config,
        vocab=enc.tokenizer.vocab,
        encoder_meta=enc.meta,
    )
    index.save_index(built, index_dir)
    return built


# ---------------------------------------------------------------------------
# Fixed-corpus cache for the query workloads
# ---------------------------------------------------------------------------


def cache_dir(work_dir: Path, spec: wl.Workload) -> Path:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update(
        repr(
            (spec.n_c, spec.zipf_s, spec.corpus_docs, wl.CORPUS_SEED, wl.N_LM, wl.N_T,
             wl.STUB_SEED, wl.VOCAB_SIZE, wl.DOC_TOKENS)
        ).encode()
    )
    return work_dir / "cache" / f"{spec.name}-{h.hexdigest()[:16]}"


def build_cache(spec: wl.Workload, dest: Path) -> None:
    """Write corpus, index and oracle vectors for a fixed-corpus workload."""
    tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rng = np.random.default_rng([wl.CORPUS_SEED, spec.corpus_docs])
    wl.write_jsonl(tmp / "corpus.jsonl", wl.make_corpus(rng, spec.corpus_docs, spec.zipf_s))
    docs = core.load_documents(tmp / "corpus.jsonl")
    enc = encoder_for_corpus(docs, spec.n_c)
    enc_docs = [enc.doc(d) for d in docs]
    ingest(enc_docs, enc, tmp / "corpus.enc", tmp / "index")
    (tmp / "corpus.enc").unlink()
    save_oracle(tmp / "oracle.npz", enc_docs)
    try:
        os.replace(tmp, dest)
    except OSError:  # another run finished the same cache first
        shutil.rmtree(tmp, ignore_errors=True)
        if not dest.is_dir():
            raise


def ensure_cache(spec: wl.Workload, work_dir: Path, smoke: bool) -> Path:
    """Build the cache in a child process, so its memory stays out of peak RSS."""
    dest = cache_dir(work_dir, spec)
    if not dest.is_dir():
        cmd = [
            sys.executable,
            str(Path(__file__).resolve().parent / "run.py"),
            "--prepare",
            "--workload",
            spec.name,
            "--work-dir",
            str(work_dir),
        ] + (["--smoke"] if smoke else [])
        subprocess.run(cmd, check=True, timeout=900, stdout=subprocess.DEVNULL)
    return dest


def save_oracle(path: Path, docs: list[EncodedDocument]) -> None:
    np.savez(
        path,
        ids=np.asarray([d.doc_id for d in docs]),
        lengths=np.asarray([len(d.token_ids) for d in docs], dtype=np.int64),
        token_ids=np.concatenate([d.token_ids for d in docs]).astype(np.int32),
        token_vecs=np.concatenate([d.token_vecs for d in docs]).astype(np.float32),
        cls=np.stack([d.cls_vec for d in docs]) if docs[0].cls_vec is not None
        else np.empty((0, 0), np.float32),
    )


def load_oracle(path: Path) -> list[EncodedDocument]:
    with np.load(path) as data:
        ids, lengths, cls = data["ids"], data["lengths"], data["cls"]
        token_ids, token_vecs = data["token_ids"], data["token_vecs"]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return [
        EncodedDocument(
            str(doc_id), token_ids[s:e], token_vecs[s:e], cls[i] if len(cls) else None
        )
        for i, (doc_id, s, e) in enumerate(zip(ids.tolist(), starts.tolist(), ends.tolist()))
    ]


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def ranked_equal(a: core.RankedList, b: core.RankedList) -> bool:
    """Entry-for-entry equality: same ids, same order, bitwise-equal scores."""
    return a.query_id == b.query_id and a.entries == b.entries


def index_differences(a: index.CoilIndex, b: index.CoilIndex) -> list[str]:
    """What differs between two indexes' doc tables, lists and CLS matrices."""
    diffs = []
    if a.doc_table != b.doc_table:
        diffs.append("doc_table")
    if sorted(a.lists) != sorted(b.lists):
        diffs.append("list token ids")
    else:
        for tid, lst in a.lists.items():
            other = b.lists[tid]
            if (
                lst.doc_refs.astype("<i4").tobytes() != other.doc_refs.astype("<i4").tobytes()
                or lst.vectors.astype("<f4").tobytes() != other.vectors.astype("<f4").tobytes()
            ):
                diffs.append(f"list {tid}")
                break
    if (a.cls_matrix is None) != (b.cls_matrix is None) or (
        a.cls_matrix is not None
        and a.cls_matrix.astype("<f4").tobytes() != b.cls_matrix.astype("<f4").tobytes()
    ):
        diffs.append("cls matrix")
    return diffs


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    queries: list[Query]
    queries_path: Path
    qrels_path: Path


@dataclass
class State:
    """Everything set-up produces; the rounds only read it."""

    enc: Encoder
    search_index: index.CoilIndex
    bm25_tokenizer: encoding.TokenizerConfig
    bm25_index: bm25.Bm25Index
    docs: list[Document]


@dataclass
class Samples:
    query_ms: list[float] = field(default_factory=list)
    bm25_ms: list[float] = field(default_factory=list)
    batch_queries: int = 0
    batch_s: float = 0.0
    eval_s: list[float] = field(default_factory=list)
    mrr: list[float] = field(default_factory=list)
    ingest_s: float = 0.0
    docs_ingested: int = 0
    enc_bytes: int = 0
    index_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)
    run_sha256: list[str] = field(default_factory=list)


class WorkloadRun:
    def __init__(self, spec: wl.Workload, seed: int, work_dir: Path, smoke: bool = False):
        self.spec = spec
        self.seed = seed
        self.threads = nproc()
        self.dir = work_dir / "runs" / f"{spec.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.tracer: Tracer | None = None
        self.last_built: index.CoilIndex | None = None
        self.check_sample: list[tuple[Query, core.RankedList]] = []
        self._prepare(work_dir, smoke)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- untimed preparation --------------------------------------------------

    def _prepare(self, work_dir: Path, smoke: bool) -> None:
        spec = self.spec
        rng = np.random.default_rng([*spec.name.encode(), self.seed % 2**63])
        self.cache = ensure_cache(spec, work_dir, smoke)
        self.corpus_path = self.cache / "corpus.jsonl"
        corpus = wl.read_jsonl(self.corpus_path)
        self.ingest_starts = rng.integers(
            0, len(corpus) - spec.ingest_docs + 1, QUERY_BATCHES
        ).tolist()
        per_batch = spec.batch_queries
        pool = wl.make_queries(rng, corpus, QUERY_BATCHES * per_batch)
        self.batches = []
        for b in range(QUERY_BATCHES):
            chunk = pool[b * per_batch : (b + 1) * per_batch]
            queries_path = self.dir / f"queries{b}.jsonl"
            qrels_path = self.dir / f"qrels{b}.txt"
            wl.write_jsonl(queries_path, [(qid, text) for qid, text, _ in chunk])
            wl.write_qrels(qrels_path, chunk)
            self.batches.append(
                Batch([Query(qid, text) for qid, text, _ in chunk], queries_path, qrels_path)
            )
        self.check_ids = {
            self.batches[0].queries[int(i)].id
            for i in rng.choice(per_batch, size=min(CHECK_QUERIES, per_batch), replace=False)
        }

    # -- timed pieces -----------------------------------------------------------

    def _begin(self, name: str):
        return self.tracer.begin(name) if self.tracer else None

    def _end(self, token) -> None:
        if token is not None:
            self.tracer.end(token)

    def setup(self) -> State:
        """Work before the first operation (``setup_s``)."""
        token = self._begin("phase.setup")
        try:
            search_index = index.load_index(self.cache / "index")
            enc = encoder_from_meta(search_index.encoder_meta)
            docs = core.load_documents(self.corpus_path)
            bm25_tokenizer = encoding.build_vocab(d.text for d in docs)
            bm25_index = bm25.build_bm25_index(docs, bm25_tokenizer)
        finally:
            self._end(token)
        return State(enc, search_index, bm25_tokenizer, bm25_index, docs)

    def round(self, st: State, r: int, out: Samples, limit: int | None = None) -> None:
        """One ingest stage plus the four query phases over batch ``r``."""
        spec = self.spec
        first = self.ingest_starts[r % len(self.ingest_starts)]
        docs = st.docs[first : first + spec.ingest_docs]
        index_dir = self.dir / "index"
        token = self._begin("phase.ingest")
        start = time.perf_counter()
        out.attempted += len(docs)
        try:
            built = ingest(
                (st.enc.doc(d) for d in docs), st.enc, self.dir / "corpus.enc", index_dir
            )
        except OP_ERRORS as exc:
            out.failed += len(docs)
            out.check_failures.append(f"ingest: {exc}")
            return
        finally:
            self._end(token)
        elapsed = time.perf_counter() - start
        self.last_built = built
        out.ingest_s += elapsed
        out.docs_ingested += len(docs)
        out.enc_bytes += os.path.getsize(self.dir / "corpus.enc")
        out.index_bytes += dir_bytes(index_dir)

        idx = st.search_index
        batch = self.batches[r % len(self.batches)]
        queries = batch.queries[:limit]
        enc = st.enc

        # Each query's search is followed by its BM25 search, so both
        # samples are spread over the same stretch of the round: the host's
        # speed changes within a fraction of a second, and a phase of short
        # BM25 calls run back to back would see only one of its states.
        singles = {}
        for q in queries:
            out.attempted += 2
            token = self._begin("phase.search")
            start = time.perf_counter()
            try:
                ranked, _ = retrieval.search(idx, enc.query(q), k=wl.K, mode=spec.mode)
            except OP_ERRORS:
                out.failed += 1
            else:
                out.query_ms.append((time.perf_counter() - start) * 1e3)
                singles[q.id] = ranked
            finally:
                self._end(token)
            token = self._begin("phase.bm25")
            start = time.perf_counter()
            try:
                bm25.bm25_search(
                    st.bm25_index,
                    encoding.tokenize(q.text, st.bm25_tokenizer),
                    wl.K,
                    query_id=q.id,
                )
            except OP_ERRORS:
                out.failed += 1
            else:
                out.bm25_ms.append((time.perf_counter() - start) * 1e3)
            finally:
                self._end(token)
        if r == 0 and limit is None:
            self.check_sample = [
                (q, singles[q.id]) for q in queries
                if q.id in self.check_ids and q.id in singles
            ]

        run_path = self.dir / "run.txt"
        token = self._begin("phase.batch")
        out.attempted += len(queries)
        start = time.perf_counter()
        try:
            loaded = core.load_queries(batch.queries_path)[:limit]
            encoded = [enc.query(q) for q in loaded]
            results = retrieval.search_many(
                idx, encoded, k=wl.K, mode=spec.mode, threads=self.threads
            )
            evaluation.write_run({rk.query_id: rk for rk, _ in results}, run_path, tag=spec.mode)
        except OP_ERRORS:
            out.failed += len(queries)
            results = None
        finally:
            self._end(token)
        elapsed = time.perf_counter() - start
        if results is not None:
            out.batch_queries += len(loaded)
            out.batch_s += elapsed
            mismatched = [
                rk.query_id for rk, _ in results
                if rk.query_id not in singles or not ranked_equal(rk, singles[rk.query_id])
            ]
            if mismatched:
                out.failed += len(mismatched)
                out.check_failures.append(
                    f"round {r}: search_many differs from search for {mismatched[:3]}"
                )
            out.run_sha256.append(hashlib.sha256(run_path.read_bytes()).hexdigest())

        if results is None:
            return
        token = self._begin("phase.eval")
        out.attempted += 1
        start = time.perf_counter()
        try:
            report = evaluation.evaluate(
                evaluation.read_run(run_path),
                evaluation.read_qrels(batch.qrels_path),
                wl.EVAL_SPECS,
            )
        except OP_ERRORS:
            out.failed += 1
            return
        finally:
            self._end(token)
        out.eval_s.append(time.perf_counter() - start)
        if limit is None and r < spec.min_rounds:
            out.mrr.append(report["mrr@10"])

    # -- checks -----------------------------------------------------------------

    def check(self, st: State, out: Samples) -> None:
        """Untimed correctness checks; each failure counts as a failed op."""
        oracle_docs = load_oracle(self.cache / "oracle.npz")
        for q, ranked in self.check_sample:
            out.attempted += 1
            expected = retrieval.brute_force_search(
                oracle_docs, st.enc.query(q), k=wl.K, mode=self.spec.mode
            )
            if not ranked_equal(ranked, expected):
                out.failed += 1
                out.check_failures.append(f"search != brute_force_search for {q.id}")
        if not self.check_sample:
            out.failed += 1
            out.check_failures.append("no oracle queries were checked")
        out.attempted += 1
        diffs = ["no index was built"]
        if self.last_built is not None:
            diffs = index_differences(self.last_built, index.load_index(self.dir / "index"))
        if diffs:
            out.failed += 1
            out.check_failures.append(f"load_index(save_index(x)) differs: {diffs}")

    # -- whole runs -------------------------------------------------------------

    def timed_setup(self) -> tuple[State, float]:
        """Set-up on a collected heap, then its objects are frozen.

        Each CLI stage runs in a process of its own, without the corpus, the
        BM25 index and the query pools this process holds, so a collection in
        a timed phase should not traverse them: ``gc.freeze`` moves them out
        of the collector's generations.
        """
        gc.unfreeze()
        gc.collect()
        start = time.perf_counter()
        st = self.setup()
        elapsed = time.perf_counter() - start
        gc.freeze()
        return st, elapsed

    def measure(self, seconds: float) -> tuple[dict, Samples]:
        """Untraced run: end-to-end metrics.

        The run lasts about ``seconds``, set-ups included.  It is cut into
        SETUP_REPEATS equal segments, each a set-up followed by rounds, so
        that every metric samples the whole run.
        """
        setups = []
        out = Samples()
        r = 0
        st = None
        begin = time.perf_counter()
        for segment in range(1, SETUP_REPEATS + 1):
            st = None
            st, elapsed = self.timed_setup()
            setups.append(elapsed)
            if segment == 1:
                self.round(st, 0, Samples(), limit=WARMUP_QUERIES)
            share = segment / SETUP_REPEATS
            while (
                r < self.spec.min_rounds * share
                or time.perf_counter() - begin < seconds * share
            ):
                self.round(st, r, out)
                r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check(st, out)
        metrics = {
            "setup_s": (float(np.median(setups)), "s"),
            "query_p50_ms": (_pct(out.query_ms, 50), "ms"),
            "query_p95_ms": (_pct(out.query_ms, 95), "ms"),
            "search_batch_qps": (_ratio(out.batch_queries, out.batch_s), "1/s"),
            "bm25_p50_ms": (_pct(out.bm25_ms, 50), "ms"),
            "bm25_p95_ms": (_pct(out.bm25_ms, 95), "ms"),
            "eval_s": (_ratio(sum(out.eval_s), len(out.eval_s)), "s"),
            "mrr_at_10": (float(np.mean(out.mrr)) if out.mrr else float("nan"), "ratio"),
            "ingest_docs_per_s": (_ratio(out.docs_ingested, out.ingest_s), "1/s"),
            "enc_bytes_per_doc": (out.enc_bytes / max(out.docs_ingested, 1), "B"),
            "index_bytes_per_doc": (out.index_bytes / max(out.docs_ingested, 1), "B"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return metrics, out

    def _trace_pass(self, tracer: Tracer | None) -> tuple[float, Samples, State]:
        """One set-up plus ``trace_rounds`` rounds, timed as a whole."""
        gc.unfreeze()
        gc.collect()
        self.tracer = tracer
        if tracer is not None:
            tracer.install()
        out = Samples()
        try:
            start = time.perf_counter()
            st = self.setup()
            gc.freeze()
            for r in range(self.spec.trace_rounds):
                self.round(st, r, out)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.tracer = None
        return wall, out, st

    def trace(self, seconds: float) -> tuple[dict, Samples, Tracer]:
        """Untraced and traced passes of identical work: per-layer metrics."""
        start = time.perf_counter()
        st, _ = self.timed_setup()
        self.round(st, 0, Samples(), limit=WARMUP_QUERIES)
        total = Samples()
        passes = []
        while not passes or time.perf_counter() - start < seconds:
            st = None
            plain_wall, plain, st = self._trace_pass(None)
            st = None  # one set-up's state alive at a time
            tracer = Tracer()
            traced_wall, out, st = self._trace_pass(tracer)
            passes.append((layer_metrics(tracer, out, plain_wall, traced_wall), tracer))
            for sample in (plain, out):
                total.attempted += sample.attempted
                total.failed += sample.failed
                total.check_failures += sample.check_failures
            total.run_sha256 = out.run_sha256
        metrics = {
            name: (float(np.median([p[0][name][0] for p in passes])), unit)
            for name, (_, unit) in passes[0][0].items()
        }
        self.check(st, total)
        return metrics, total, passes[-1][1]


def layer_metrics(tracer: Tracer, out: Samples, plain_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass: self-time totals and counters."""
    t = tracer.totals()
    c = tracer.counters
    s = tracer.samples
    single_s = float(np.mean(out.query_ms)) / 1e3 if out.query_ms else float("nan")
    seconds = [
        "encoding.tokenize", "encoding.contextualize", "encoding.project_tokens",
        "encoding.project_cls", "encoding.encode_query", "encoding.write_encoded",
        "encoding.ingest_encoded", "index.checksum", "index.build_index",
        "index.save_index", "index.load_index", "retrieval.search",
        "core.ranked_list_from_arrays", "core.load_documents", "core.load_queries",
        "bm25.build_bm25_index", "bm25.bm25_search", "evaluation.write_run",
        "evaluation.read_run", "evaluation.read_qrels", "evaluation.evaluate",
    ]
    metrics = {f"{name}_s": (t.get(name, 0.0), "s") for name in seconds}
    for name in ("encoding.tokens_encoded", "evaluation.run_lines"):
        metrics[name] = (c.get(name, 0.0), "count")
    for name in ("encoding.enc_bytes", "index.checksum_bytes", "index.bytes_written",
                 "index.bytes_read", "retrieval.cls_bytes"):
        metrics[name] = (c.get(name, 0.0), "B")
    for name in ("retrieval.postings_scanned", "retrieval.lists_touched",
                 "retrieval.candidates", "bm25.postings_scanned"):
        metrics[name] = (_median(s.get(name, [])), "count")
    scored = c.get("retrieval.scored", 0.0)
    metrics["retrieval.returned_per_scored"] = (
        c.get("retrieval.returned", 0.0) / scored if scored else float("nan"), "ratio"
    )
    metrics["retrieval.thread_speedup"] = (
        _ratio(out.batch_queries, out.batch_s) * single_s, "ratio"
    )
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    return metrics


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _ratio(work: float, seconds: float) -> float:
    return work / seconds if seconds else float("nan")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for entry in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (entry / "level").read_text().strip()
            kind = (entry / "type").read_text().strip()
            size = (entry / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "search_threads": nproc(),
    }
