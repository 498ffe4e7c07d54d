"""The noise worker: one forked process per process that draws rows of
wide batches' noise beside the step loop, on another core.

``trajectory`` loads this module at its first batch of at least
``trajectory._WORKER_ROWS`` rows whose streams are all ``StreamChunk``s;
that batch forks the worker (``drawn``), and every later one reuses it.  A
process that may run on one CPU only forks none (``_cpus``): there the
worker could only take turns with its parent.

A batch sends the worker, on the request pipe, the keys of the streams of
its rows [k, n), pickled ``StreamChunk``s, and the worker fills those rows
of each noise block into a mapping that it shares with its parent, while
the parent fills rows [0, k): half the rows of a batch of one block
(``_split``), none of a batch of several.  Blocks take turns in two
step-major buffers at the start of the mapping: the worker sends a token
on the reply pipe when its rows of a block are ready, and the parent sends
one on the request pipe when the step loop asks for the next block, which
frees the older buffer.  An exception in the worker comes back pickled in
place of a token, and the parent raises it.  If a batch fails, the parent
kills and reaps the worker, and a later batch forks another; so does a
batch that finds that the worker ended while it was idle.

The worker exits when its request pipe ends: at exit the parent closes it
and reaps the worker (``stop``), a parent that is killed or leaves by
``os._exit`` closes it with its other descriptors, and a child that the
parent forks closes its copy at once (``_forget``).  It calls only
``numpy.random``, ``pickle``, ``os`` and ``mmap``, never BLAS, so the
fork is safe in a process that holds the thread NumPy's OpenBLAS starts.
Python 3.12 and later still warn (``DeprecationWarning``) on a fork in a
process with threads, and the test settings in ``pyproject.toml`` make
that warning an error; the test suite runs on Python 3.11, which does not
warn.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import select
import threading
from contextlib import contextmanager
from functools import partial
from itertools import cycle
from typing import Iterator

import numpy as np

from .trajectory import _NOISE_BLOCK_VALUES, _step_major_noise

_ENDED = "the noise worker ended before its last block"


class _Worker:
    """A forked process that draws rows of noise blocks into a mapping of
    ``capacity`` floats that it shares with its parent, which holds its
    pid, its ends of the two pipes and a poll of the reply pipe."""

    def __init__(self, values: int):
        self.mapping = mmap.mmap(-1, 8 * max(values, _NOISE_BLOCK_VALUES))
        self.capacity = len(self.mapping) // 8
        request_out, self.requests = os.pipe()
        self.replies, reply_in = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (request_out, self.requests, self.replies, reply_in):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(request_out, reply_in, self.mapping)
        os.close(request_out)
        os.close(reply_in)
        # poll, not select, which fails on a descriptor numbered 1024 or more
        self.answers = select.poll()
        self.answers.register(self.replies, select.POLLIN)

    def close(self) -> None:
        os.close(self.requests)
        os.close(self.replies)


# This process's noise worker, and the lock that a batch holds to use it.
_worker: _Worker | None = None
_lock = threading.Lock()


@contextmanager
def drawn(sources: list, noise, horizon: int, shape: tuple) -> Iterator:
    """The step-major noise blocks of a batch of ``horizon`` steps, in
    buffers of ``shape``, (cap, 2d, n), drawn from the ``StreamChunk``s
    ``sources`` by the worker and, of a batch of one block, this process;
    or None, to draw in-process, for a batch that finds the worker busy
    with another thread's batch, or larger than its mapping, and for every
    batch of a process that may run on one CPU only."""
    global _worker
    if not _lock.acquire(blocking=False):
        yield None
        return
    try:
        size = shape[0] * shape[1] * shape[2]
        if _worker is not None and _worker.answers.poll(0):
            # An idle worker's reply pipe is empty until it ends (killed,
            # say); such a worker owes this batch nothing.
            stop(kill=True)
        if _worker is None and _cpus() > 1:
            _worker = _Worker(2 * size)
        worker = _worker
        if worker is None or 2 * size > worker.capacity:
            yield None
            return
        split = _split(shape[2]) if shape[0] >= horizon else 0
        try:
            _send(worker, pickle.dumps((_rows(sources, split, shape[2]), noise, horizon, shape, split)))
            yield _blocks(worker, sources, noise, horizon, shape, split)
        except BaseException:
            stop(kill=True)
            raise
        # The batch's pages of the mapping leave this process's resident set
        # (the worker's stay): they would raise its peak for the rest of its life.
        worker.mapping.madvise(mmap.MADV_DONTNEED)
    finally:
        _lock.release()


def _split(rows: int) -> int:
    """The rows of a batch of one block that this process draws while the
    worker draws the rest: half.  Of a batch of several blocks, the worker
    draws every row, one block ahead of the loop."""
    return rows // 2


def _blocks(worker: _Worker, sources: list, noise, horizon: int, shape: tuple, split: int) -> Iterator:
    """The blocks of a batch, as the loop asks for them: asking for block
    i hands the buffer of block i - 1 back, for block i + 1, if there is
    one; then the worker's token for block i is awaited.  Of a batch of
    one block, this process first draws rows [0, split) itself."""
    buffers, cap = _buffers(worker.mapping, shape), shape[0]
    if split:
        next(_step_major_noise(_rows(sources, 0, split), noise, horizon, shape, buffers, slice(0, split)))
    firsts = range(1, horizon + 1, cap)
    for i, first in enumerate(firsts):
        if 0 < i < len(firsts) - 1:
            _send(worker, b"\0")
        _answered(worker)
        yield buffers[i % 2][: min(cap, horizon + 1 - first)]


def _answered(worker: _Worker) -> None:
    """Reads the worker's next token.  A worker that failed sent its
    pickled exception in place of its token, which is raised here."""
    token = os.read(worker.replies, 1)
    if token != b"\0":
        raise _failure(worker, token)


def _failure(worker: _Worker, read: bytes) -> BaseException:
    """The exception that the worker, which has ended, sent on its reply
    pipe, of which ``read`` has been read; OSError if it sent none."""
    rest = b"".join(iter(partial(os.read, worker.replies, 1 << 16), b""))
    replies = (read + rest).lstrip(b"\0")
    return pickle.loads(replies[1:]) if replies else OSError(_ENDED)


def _rows(sources: list, start: int, stop: int) -> list:
    """The slices of the ``StreamChunk``s ``sources`` that hold rows
    ``start`` .. ``stop - 1`` of the chunks laid end to end."""
    rows, first = [], 0
    for source in sources:
        last = first + len(source)
        if first < stop and start < last:
            rows.append(source[max(start - first, 0) : min(stop, last) - first])
        first = last
    return rows


def _send(worker: _Worker, data: bytes) -> None:
    """Writes all of ``data`` to the worker's request pipe."""
    try:
        while data:
            data = data[os.write(worker.requests, data) :]
    except BrokenPipeError:
        raise _failure(worker, b"") from None


def _buffers(mapping: mmap.mmap, shape: tuple) -> list[np.ndarray]:
    """The two step-major buffers of ``shape`` at the start of ``mapping``."""
    size = shape[0] * shape[1] * shape[2]
    return [np.frombuffer(mapping, float, size, 8 * size * k).reshape(shape) for k in (0, 1)]


def _cpus() -> int:
    """How many CPUs this process may run on; 0 where that cannot be read."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 0


def stop(kill: bool = False) -> None:
    """Ends the noise worker, if there is one, and reaps it: closing its
    request pipe ends it once it has served what it was sent, and ``kill``
    ends it at once.  Runs at exit."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        if kill:
            import signal

            os.kill(worker.pid, signal.SIGKILL)
        worker.close()
        os.waitpid(worker.pid, 0)


def _forget() -> None:
    """In a forked child, which must not hold the parent's ends of the
    worker's pipes: the worker sees its request pipe end with its parent."""
    global _worker, _lock
    if _worker is not None:
        _worker.close()
    _worker, _lock = None, threading.Lock()


atexit.register(stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _serve(requests: int, replies: int, mapping: mmap.mmap):
    """The noise worker's whole life; it never returns.  It closes every
    descriptor it inherited but its ends of the two pipes (the trace
    writer's input among them, whose reader must see its end when the
    parent closes it), ignores the interrupt that a terminal sends its
    whole process group (the parent handles it), and serves each request
    with ``_step_major_noise`` on its rows.  It leaves through
    ``os._exit``, so nothing the parent buffered is flushed twice: after an
    exception, or when its request pipe ends, even within a batch."""
    import signal

    status = 1
    try:
        low, high = sorted((requests, replies))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        inbox = open(requests, "rb")

        def handed_back(buffers):
            yield from buffers
            for buffer in cycle(buffers):
                if not inbox.read(1):
                    return
                yield buffer

        while inbox.peek(1):
            sources, noise, horizon, shape, split = pickle.load(inbox)
            buffers = handed_back(_buffers(mapping, shape))
            for _ in _step_major_noise(sources, noise, horizon, shape, buffers, slice(split, shape[2])):
                os.write(replies, b"\0")
        status = 0
    except BaseException as exc:
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        os.write(replies, b"\1" + payload)
    finally:
        os._exit(status)
