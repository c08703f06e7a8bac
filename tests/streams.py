"""Inputs that are streams, not regular files, and a guard for reading them.

A reader that opens a FIFO a second time blocks forever, so every test that
hands one a pipe or a FIFO makes the call through :func:`returns_within`,
which fails the test instead of hanging the suite.
"""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import pytest

T = TypeVar("T")


def returns_within(call: Callable[[], T], seconds: float = 5.0) -> T:
    """``call()`` on a daemon thread: its result, or the exception it raised.

    The test fails if the call has not returned within ``seconds``; the
    blocked thread is left behind and ends with the process.
    """
    outcome: dict[str, object] = {}

    def target() -> None:
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed to the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"call did not return within {seconds} s", pytrace=False)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@contextmanager
def fed_stream(kind: str, directory: Path, data: bytes) -> Iterator[str]:
    """A path whose first open for reading reads ``data`` and then its end.

    ``kind`` "fifo" makes a FIFO in ``directory`` with a writer thread, so
    that open returns; "pipe" gives ``/dev/fd/<n>`` of the read end of an
    ``os.pipe()`` that holds ``data`` (at most the 64 KiB pipe buffer) and
    whose write end is closed.
    """
    if kind == "fifo":
        path = directory / "stream.fifo"
        os.mkfifo(path)
        threading.Thread(target=_write_once, args=(path, data), daemon=True).start()
        yield str(path)
        return
    read_fd, write_fd = os.pipe()
    try:
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)


def _write_once(path: Path, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:
        pass  # the reader closed the FIFO before reading it all
