"""Span recorder and the wrappers that time calls into coil's modules.

Tracing lives entirely in the benchmark: while a :class:`Tracer` is
installed, the public functions of ``coil.core``, ``coil.encoding``,
``coil.index``, ``coil.retrieval``, ``coil.bm25`` and ``coil.evaluation``
are replaced on their modules by timing wrappers.  Calls between modules go
through the name the calling module imported (``coil.index.fnv1a64``,
``coil.retrieval.ranked_list_from_arrays``), so that name is wrapped too.
Uninstalling restores the original functions; nothing under ``src/``
changes.

A span records (id, parent id, name, start ns, end ns, thread).  Spans are
kept in memory and written once, at the end of a run.  A span's self time
is its duration minus the union of its children's intervals.  Spans opened
by worker threads (``search_many``'s pool) take as parent the innermost
span open on the thread that installed the tracer.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from coil import bm25, core, encoding, evaluation, index, retrieval

_DONE = object()


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple[int, int, str, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, name, time.perf_counter_ns()

    def end(self, token: tuple[int, int, str, int]) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        sid, parent, name, start = token
        self.spans.append((sid, parent, name, start, end, threading.get_ident()))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(token)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return timed

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span on the consumer's thread."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def resumed():
                try:
                    while True:
                        token = tracer.begin(name)
                        try:
                            item = next(gen, _DONE)
                        finally:
                            tracer.end(token)
                        if item is _DONE:
                            return
                        yield item
                finally:
                    gen.close()

            return resumed()

        return timed

    def install(self) -> None:
        """Replace the measured functions on their modules with timing wrappers."""
        plain = [
            (core, "load_documents", "core.load_documents"),
            (core, "load_queries", "core.load_queries"),
            (retrieval, "ranked_list_from_arrays", "core.ranked_list_from_arrays"),
            (encoding, "build_vocab", "encoding.build_vocab"),
            (encoding, "seeded_projection", "encoding.seeded_projection"),
            (encoding, "tokenize", "encoding.tokenize"),
            (encoding, "project_tokens", "encoding.project_tokens"),
            (encoding, "project_cls", "encoding.project_cls"),
            (encoding, "encode_document", "encoding.encode_document"),
            (encoding, "encode_query", "encoding.encode_query"),
            (index, "build_index", "index.build_index"),
            (retrieval, "search_many", "retrieval.search_many"),
            (bm25, "build_bm25_index", "bm25.build_bm25_index"),
            (evaluation, "read_run", "evaluation.read_run"),
            (evaluation, "read_qrels", "evaluation.read_qrels"),
            (evaluation, "evaluate", "evaluation.evaluate"),
        ]
        counted = [
            (encoding, "contextualize", "encoding.contextualize", _count_tokens),
            (encoding, "write_encoded", "encoding.write_encoded", _count_enc_bytes),
            (index, "fnv1a64", "index.checksum", _count_checksum),
            (index, "save_index", "index.save_index", _count_written),
            (index, "load_index", "index.load_index", _count_read),
            (retrieval, "search", "retrieval.search", _count_search),
            (bm25, "bm25_search", "bm25.bm25_search", _count_bm25),
            (evaluation, "write_run", "evaluation.write_run", _count_run_lines),
        ]
        for module, attr, name in plain:
            self._replace(module, attr, self._wrap(name, getattr(module, attr)))
        for module, attr, name, count in counted:
            self._replace(module, attr, self._wrap(name, getattr(module, attr), count))
        self._replace(
            encoding,
            "ingest_encoded",
            self._wrap_generator("encoding.ingest_encoded", encoding.ingest_encoded),
        )

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, int]:
        """Span id -> self time in ns (duration minus the union of its children)."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, _, start, end, _ in self.spans:
            out[sid] = (end - start) - _covered(children.get(sid, ()), start, end)
        return out

    def totals(self) -> dict[str, float]:
        """Span name -> total self time in seconds."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, _, _, _ in self.spans:
            out[name] += selfs[sid] / 1e9
        return out

    def phase_table(self) -> dict[str, dict[str, float]]:
        """Per root-span name: wall, library self time, worker time and gap.

        ``library_s`` sums the self times of the root's descendants on the
        root's own thread; ``workers_s`` is the part of the wall covered by
        descendants on other threads; ``gap_s`` is the root's self time,
        the harness code between library calls.  The three add up to the
        wall time.
        """
        selfs = self.self_times()
        kids: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            kids[span[1]].append(span)
        table: dict[str, dict[str, float]] = {}
        for sid, parent, name, start, end, thread in self.spans:
            if parent != 0:
                continue
            library = 0
            worker_intervals = []
            todo = list(kids.get(sid, ()))
            while todo:
                span = todo.pop()
                if span[5] == thread:
                    library += selfs[span[0]]
                    todo.extend(kids.get(span[0], ()))
                else:
                    worker_intervals.append((span[3], span[4]))
            row = table.setdefault(
                name, {"wall_s": 0.0, "library_s": 0.0, "workers_s": 0.0, "gap_s": 0.0}
            )
            row["wall_s"] += (end - start) / 1e9
            row["library_s"] += library / 1e9
            row["workers_s"] += _covered(worker_intervals, start, end) / 1e9
            row["gap_s"] += selfs[sid] / 1e9
        return table

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for sid, parent, name, start, end, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# -- counters at the same boundaries as the spans -------------------------


def _count_tokens(tracer, args, kwargs, result) -> None:
    tracer.counters["encoding.tokens_encoded"] += len(args[0])


def _count_enc_bytes(tracer, args, kwargs, result) -> None:
    tracer.counters["encoding.enc_bytes"] += os.path.getsize(args[1])


def _count_checksum(tracer, args, kwargs, result) -> None:
    tracer.counters["index.checksum_bytes"] += len(args[0])


def _count_written(tracer, args, kwargs, result) -> None:
    tracer.counters["index.bytes_written"] += dir_bytes(args[1])


def _count_read(tracer, args, kwargs, result) -> None:
    tracer.counters["index.bytes_read"] += dir_bytes(args[0])


def _count_search(tracer, args, kwargs, result) -> None:
    idx = args[0]
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "full")
    ranked, instr = result
    tracer.samples["retrieval.postings_scanned"].append(instr.postings_scanned)
    tracer.samples["retrieval.lists_touched"].append(instr.lists_touched)
    tracer.samples["retrieval.candidates"].append(instr.candidates)
    if mode == "tok":
        scored = instr.candidates
    else:
        scored = idx.num_docs
        tracer.counters["retrieval.cls_bytes"] += idx.num_docs * idx.config.n_c * 4
    tracer.counters["retrieval.returned"] += len(ranked.entries)
    tracer.counters["retrieval.scored"] += scored


def _count_bm25(tracer, args, kwargs, result) -> None:
    bm25_index, query = args[0], args[1]
    postings = bm25_index.postings
    scanned = sum(
        len(postings[tid][0])
        for tid in set(query.token_ids)
        if tid != encoding.UNKNOWN_TOKEN_ID and tid in postings
    )
    tracer.samples["bm25.postings_scanned"].append(scanned)


def _count_run_lines(tracer, args, kwargs, result) -> None:
    tracer.counters["evaluation.run_lines"] += sum(
        len(ranked.entries) for ranked in args[0].values()
    )
