"""Data-parallel worker processes for training passes and predictions.

A pool runs the per-sequence work of a training pass, or of a batch of
predictions, on worker processes forked from the parent. The parent maps one
anonymous shared block and then forks the workers, which share it with no
file or name: before each job the parent copies every parameter into the
block, where each worker's copy of the model reads them. Workers take their
sequences over pipes, longest first, and write each sequence's gradient
into that sequence's own slot of the same block. The parent adds the slots
up in a fixed order, so results do not depend on how many workers ran or
which one took what. A job whose model has another spec, or that needs more
gradient slots, gets a new block and newly forked workers; the old workers
are stopped first. The kernel frees a block when the last process mapping
it ends, so nothing is left behind, even by a parent that is killed.

A forked worker starts with numpy and this package already imported, and
shares the parent's memory pages until one of them writes to a page. It
runs only ``serve`` and leaves through ``os._exit``: it never returns into
the caller's code, so a script without an ``if __name__ == "__main__"``
guard is not re-run, and it runs no ``atexit`` handler and flushes none of
the parent's buffered output. Forking a process that has BLAS threads is
not safe, so importing this module sets numpy's bundled OpenBLAS to one
thread for the whole process; where that cannot be done, every job runs
in-process. Importing it also sets glibc's malloc to keep freed memory in
the process, so workers inherit that too.
"""

from __future__ import annotations

import atexit
import collections
import ctypes
import glob
import math
import mmap
import os
import pickle
import selectors
import signal
import struct
import traceback
from typing import NoReturn

import numpy as np

from .encoder import ModelSpec
from .tensor import NumericError, ShapeError


class PoolError(RuntimeError):
    """A worker process died, or failed in a way the parent cannot re-raise."""


# What starting the workers adds to a whole small job: a 2-essay `rubric
# predict` took 25-35 ms on two forked workers against 13-15 ms in-process
# (2-vCPU VM, medians of 15; forking the workers onto a new block about
# 4 ms, the job on the new workers about 12 ms). A job must save more.
STARTUP_S = 0.05
# In-process forward time: a fixed cost per sequence plus a cost per
# multiply-add. A training pass costs about three forwards. Eval forwards of
# 72 tokens took 0.83, 1.08 and 1.64 ms at d_model 16, 32 and 64 (2-vCPU VM),
# which the constants underestimate at small d_model; they stay until a
# benchmark change can re-baseline the set-up jobs whose path they decide.
SECONDS_PER_SEQUENCE = 3.0e-4
SECONDS_PER_MAC = 3.0e-10
TRAIN_PASS_FORWARDS = 3

# gradients of the embedding tables arrive row-sparse, as (ids, rows)
_ROW_SPARSE = ("enc.tok_emb", "enc.pos_emb")
_ALIGN = 64
_QUEUED = 2  # jobs in a worker's pipe at once
_HEADER = struct.Struct("<I")

# Private hook for tests: 0 runs every job in-process, n >= 1 starts n
# workers whatever a job's size. Not a config key or environment variable.
_forced_workers: int | None = None
_shared: Pool | None = None
_started: list[_Worker] = []  # every worker process, for leak checks
_BLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _pin_blas(libs: str) -> bool:
    """Set the OpenBLAS that numpy bundles in ``libs`` to one thread, for
    this process and every worker later forked from it. True if OpenBLAS
    then reports one thread; False if there is no such library.

    One thread loses no speed at this model's sizes, and makes results the
    same bits in-process and on workers.
    """
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREADS:
            setter = getattr(lib, name.format("set"), None)
            getter = getattr(lib, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(1)
                return getter() == 1
    return False


# Set before any worker is forked: a child that set it itself would get an
# OpenBLAS thread back. Without it no worker is forked at all.
_NUMPY_LIBS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
_blas_one_thread = _pin_blas(_NUMPY_LIBS)

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_heap(libc) -> bool:
    """Make glibc's malloc keep freed memory in this process, for this
    process and every worker later forked from it. True if ``libc`` has a
    ``mallopt`` that took both thresholds; False otherwise (not glibc).

    By default glibc gives the heap top back to the kernel after a forward
    frees its large arrays, so the next forward faults in fresh zeroed pages
    (1,136 minor faults per 256-token eval forward). Arrays under 32 MiB,
    the most glibc accepts, now come from the heap, which is trimmed only
    above 64 MiB free. Setting either one alone turns off glibc's dynamic
    mmap threshold and leaves hundreds of faults per forward.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1)


_heap_pinned = _pin_heap(ctypes.CDLL(None))


def forward_seconds(spec: ModelSpec, lengths: list[int]) -> float:
    """Estimated in-process forward time over sequences of these lengths.

    Per block, the projections and feed-forward make T·(4d² + 2d·d_ff)
    multiply-adds and attention 2T²d. The estimate depends on nothing but
    its arguments, so a job takes the same path on every run.
    """
    d, f = spec.d_model, spec.d_ff
    macs = sum(spec.n_layers * (t * (4 * d * d + 2 * d * f) + 2 * t * t * d) for t in lengths)
    return len(lengths) * SECONDS_PER_SEQUENCE + macs * SECONDS_PER_MAC


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def get(seconds: float) -> Pool | None:
    """The pool for a job of about ``seconds`` of in-process work, or None
    to run the job in-process.

    A running pool serves every job. Otherwise one starts, with a worker
    per usable CPU, only when splitting the job saves more than the
    workers' start-up; it then serves the rest of the process, until
    ``close``. Its workers are forked at its first job. Every job runs
    in-process if BLAS could not be set to one thread.
    """
    global _shared
    if _forced_workers == 0 or not _blas_one_thread:
        return None
    if _shared is None:
        n = _forced_workers or usable_cpus()
        if _forced_workers is None and (n < 2 or seconds * (1.0 - 1.0 / n) <= STARTUP_S):
            return None
        _shared = Pool(n)
    return _shared


def close() -> None:
    """Stop the running pool's workers, if a pool is running."""
    if _shared is not None:
        _shared.close()


atexit.register(close)


class _Block:
    """Shared memory: every parameter, then one gradient slot per sequence.

    An anonymous shared mapping, which workers forked after it is made
    share with the parent. A slot holds one dense array per parameter,
    except the embedding tables, which get ``max_rows`` ids and rows for
    their row-sparse gradients. ``layout`` is ((name, shape), ...),
    max_rows, n_slots.
    """

    def __init__(self, layout: tuple):
        self.layout = layout
        shapes, max_rows, n_slots = layout
        slot = []
        for name, shape in shapes:
            if name in _ROW_SPARSE:
                slot += [((max_rows,), np.int64), ((max_rows, shape[1]), np.float64)]
            else:
                slot.append((shape, np.float64))
        entries = [(shape, np.float64) for _, shape in shapes] + slot * n_slots
        offsets, size = [], 0
        for shape, dtype in entries:  # each array 64-byte aligned
            offsets.append(size)
            size += -(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN
        self.map = mmap.mmap(-1, size)  # MAP_SHARED: forked children share it
        arrays = iter(np.ndarray(shape, dtype, buffer=self.map, offset=offset)
                      for (shape, dtype), offset in zip(entries, offsets))
        self.params = {name: next(arrays) for name, _ in shapes}
        self.slots = [
            [(next(arrays), next(arrays)) if name in _ROW_SPARSE else next(arrays)
             for name, _ in shapes]
            for _ in range(n_slots)
        ]

    def write_slot(self, slot: int, grads: dict) -> tuple[int, ...]:
        """Copy one sequence's gradients into ``slot``; returns per parameter
        -1 (no gradient), else the number of rows of a row-sparse gradient
        (0 for a dense one)."""
        rows = []
        for (name, _), target in zip(self.layout[0], self.slots[slot]):
            g = grads.get(name)
            if g is None:
                rows.append(-1)
            elif isinstance(target, tuple):
                ids, values = g
                target[0][: len(ids)] = ids
                target[1][: len(ids)] = values
                rows.append(len(ids))
            else:
                np.copyto(target, g)
                rows.append(0)
        return tuple(rows)

    def read_slot(self, slot: int, rows: tuple[int, ...]) -> dict:
        """The gradients ``write_slot`` put in ``slot``, as views."""
        grads = {}
        for (name, _), target, n in zip(self.layout[0], self.slots[slot], rows):
            if n >= 0:
                grads[name] = ((target[0][:n], target[1][:n]) if isinstance(target, tuple)
                               else target)
        return grads


def _send(fd: int, message) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv(fd: int):
    """The next message on ``fd``, or None at end of file. Only messages
    from this program's own processes are ever read."""
    header = _read(fd, _HEADER.size)
    if header is None:
        return None
    data = _read(fd, _HEADER.unpack(header)[0])
    return None if data is None else pickle.loads(data)


_RERAISED = {"NumericError": NumericError, "ShapeError": ShapeError, "ValueError": ValueError}


class _Worker:
    """The parent's handle on a forked worker: its pid and the parent's ends
    of its request and reply pipes, each -1 once closed."""

    def __init__(self, pid: int, requests: int, replies: int):
        self.pid, self.requests, self.replies = pid, requests, replies
        self.returncode: int | None = None  # set once the worker is reaped

    def poll(self) -> int | None:
        """The exit code if the worker has ended, reaping it; else None."""
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self) -> int:
        """The exit code, once the worker has ended and been reaped."""
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:  # until reaped, the pid is still this worker's
            os.kill(self.pid, signal.SIGKILL)

    def close_requests(self) -> None:
        """Close the request pipe, which ends the worker's loop once idle."""
        if self.requests >= 0:
            os.close(self.requests)
            self.requests = -1

    def close_replies(self) -> None:
        if self.replies >= 0:
            os.close(self.replies)
            self.replies = -1


def _fork_worker(model, block: _Block) -> _Worker:
    """Fork a worker that serves jobs on its copy of ``model``, with the
    parameters in ``block``. Only the parent returns, with the worker's
    handle."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    requests_in, requests_out, replies_in, replies_out = fds
    if pid == 0:
        # the parent's ends of this worker's pipes and of every earlier
        # worker's: an end left open here would keep that pipe from closing
        inherited = [requests_out, replies_in]
        inherited += [fd for w in _started for fd in (w.requests, w.replies) if fd >= 0]
        _child(requests_in, replies_out, inherited, model, block)
    os.close(requests_in)
    os.close(replies_out)
    worker = _Worker(pid, requests_out, replies_in)
    _started.append(worker)
    return worker


def _child(requests: int, replies: int, inherited: list[int], model,
           block: _Block) -> NoReturn:
    """A forked worker's whole life: point the model at the shared
    parameters, serve, then exit without returning into the caller's code,
    running its ``atexit`` handlers or flushing its buffered output."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        for name, p in model.named_parameters().items():
            p.data = block.params[name]
        serve(requests, replies, model, block)
        code = 0
    except BaseException:  # the parent learns of it from the exit code
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


class Pool:
    """``n_workers`` worker processes plus the shared block they read and
    write. The workers are forked anew for each new block, which they
    inherit along with the model of the job that needed it."""

    def __init__(self, n_workers: int):
        self._n_workers = n_workers
        self._workers: list[_Worker] = []
        self._selector = selectors.DefaultSelector()
        self._block: _Block | None = None
        self._spec: ModelSpec | None = None

    def close(self, kill: bool = False) -> None:
        """End every worker, and drop the block; with ``kill``, kill the
        workers first."""
        global _shared
        if _shared is self:
            _shared = None
        self._stop(kill)
        self._selector.close()
        self._block = None

    def _stop(self, kill: bool = False) -> None:
        """Close the workers' pipes, which ends an idle worker's loop, and
        reap them; with ``kill``, kill them first."""
        for worker in self._workers:
            if kill:
                worker.kill()
            worker.close_requests()
        for worker in self._workers:
            worker.wait()
            self._selector.unregister(worker.replies)
            worker.close_replies()
        self._workers = []

    def gradients(self, model, batch, loss_kind: str, scale: float, stream: tuple,
                  offsets) -> list[tuple[float, dict]]:
        """Run ``training.sequence_gradients`` on every (ids, targets) of
        ``batch`` with the parameters ``model`` has now; sequence i draws
        dropout from ``dropout_stream(*stream, offsets[i])``. Returns each
        sequence's (loss, gradients), the gradients as views of its slot,
        valid until the next job."""
        self._publish(model, len(batch))
        # plain lists and floats: pickling them costs a fraction of arrays
        jobs = [("grad", i, list(ids), np.asarray(targets).tolist(), loss_kind, scale, stream,
                 int(offset))
                for i, ((ids, targets), offset) in enumerate(zip(batch, offsets))]
        replies = self._run(jobs, [len(ids) for ids, _ in batch])
        return [(loss, self._block.read_slot(i, rows)) for i, (loss, rows) in enumerate(replies)]

    def predict(self, model, id_lists) -> np.ndarray:
        """Eval-mode raw predictions, one row per token-id list."""
        self._publish(model, 0)
        jobs = [("predict", list(ids)) for ids in id_lists]
        replies = self._run(jobs, [len(ids) for ids in id_lists])
        return np.array([pred for (pred,) in replies], dtype=np.float64)

    def _publish(self, model, n_slots: int) -> None:
        """Copy ``model``'s parameters into the shared block. At the first
        job, for a model of another spec (which sets every shape) or for
        more gradient slots, first stop the workers, make a new block and
        fork new workers onto it."""
        params = model.named_parameters()
        block = self._block
        if block is None or self._spec != model.spec or len(block.slots) < n_slots:
            shapes = tuple((name, p.shape) for name, p in params.items())
            n_slots = max(n_slots, len(block.slots) if block is not None else 0)
            self._stop()
            try:
                block = _Block((shapes, model.spec.max_seq_len, n_slots))
                for _ in range(self._n_workers):
                    worker = _fork_worker(model, block)
                    self._workers.append(worker)
                    self._selector.register(worker.replies, selectors.EVENT_READ, worker)
            except BaseException:
                self.close(kill=True)
                raise
            self._block, self._spec = block, model.spec
        for name, p in params.items():
            np.copyto(block.params[name], p.data)

    def _run(self, jobs, costs) -> list:
        """Hand out ``jobs``, largest cost first (ties in job order), to
        whichever workers have fewest queued; returns the replies in job
        order, re-raising the first job's error once all have finished.

        Each worker has up to ``_QUEUED`` jobs in its pipe, so it starts its
        next job without waiting for the parent to read its last reply.
        """
        order = sorted(range(len(jobs)), key=lambda i: -costs[i])
        replies = [None] * len(jobs)
        queued = {worker: collections.deque() for worker in self._workers}

        def send(worker, i):
            try:
                _send(worker.requests, jobs[i])
            except BrokenPipeError:
                raise self._died(worker) from None
            queued[worker].append(i)

        try:
            while order or any(queued.values()):
                for depth in range(_QUEUED):
                    for worker in self._workers:
                        if order and len(queued[worker]) == depth:
                            send(worker, order.pop(0))
                for key, _ in self._selector.select():
                    worker = key.data
                    reply = _recv(worker.replies)
                    if reply is None:
                        raise self._died(worker)
                    replies[queued[worker].popleft()] = reply
        except BaseException:
            self.close(kill=True)
            raise
        for reply in replies:
            if reply[0] == "error":
                _, kind, message = reply
                if kind in _RERAISED:
                    raise _RERAISED[kind](message)
                raise PoolError(f"a worker process failed: {kind}: {message}")
        return [reply[1:] for reply in replies]

    def _died(self, worker: _Worker) -> PoolError:
        # its pipe is closed, so it has exited, or is about to
        code = worker.wait()
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return PoolError(f"worker process {worker.pid} {how}; its job is lost")


def serve(requests: int, replies: int, model, block: _Block) -> None:
    """A worker's main loop: answer the parent's jobs on ``model``, whose
    parameters are ``block``'s, read from the ``requests`` pipe, on the
    ``replies`` pipe until the parent closes ``requests``."""
    from .training import dropout_stream, sequence_gradients

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers itself
    while (job := _recv(requests)) is not None:
        try:
            if job[0] == "grad":
                _, slot, ids, targets, loss_kind, scale, stream, offset = job
                loss, grads = sequence_gradients(model, ids, targets, loss_kind, scale,
                                                 dropout_stream(*stream, offset))
                reply = ("ok", loss, block.write_slot(slot, grads))
            else:  # "predict"
                reply = ("ok", model.predict_ids(job[1]).tolist())
        except Exception as exc:  # reported to the parent, which raises it there
            reply = ("error", type(exc).__name__, str(exc))
        _send(replies, reply)
