"""Data-parallel worker processes for training passes and predictions.

A pool runs the per-sequence work of a training pass, or of a batch of
predictions, on ``subprocess`` workers with one BLAS thread each. Before
each job the parent copies every parameter into one mmap'd shared-memory
file; workers read them from there, take their sequences over pipes,
longest first, and write each sequence's gradient into that sequence's
own slot of the same file. The parent adds the slots up in a fixed order,
so results do not depend on how many workers ran or which one took what.

Workers start through ``subprocess`` rather than ``multiprocessing``: a
spawned child re-imports the caller's main script, which re-runs a script
that has no ``if __name__ == "__main__"`` guard.
"""

from __future__ import annotations

import atexit
import collections
import math
import mmap
import os
import pickle
import selectors
import signal
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from .encoder import ModelSpec
from .tensor import NumericError, ShapeError


class PoolError(RuntimeError):
    """A worker process died, or failed in a way the parent cannot re-raise."""


# Worker start-up (interpreter, numpy and rubric imports, first reply)
# measured 0.30-0.42 s on a 2-vCPU VM; a job must save more than this.
STARTUP_S = 0.4
# In-process forward time: a fixed cost per sequence plus a cost per
# multiply-add (2-vCPU VM; 0.53, 0.69 and 2.19 ms per 72-token sequence at
# d_model 16, 32 and 64). A training pass costs about three forwards.
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
_started: list[subprocess.Popen] = []  # every worker process, for leak checks


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
    ``close``.
    """
    global _shared
    if _forced_workers == 0:
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
    """The shared file: every parameter, then one gradient slot per sequence.

    A slot holds one dense array per parameter, except the embedding
    tables, which get ``max_rows`` ids and rows for their row-sparse
    gradients. Parent and workers map the same layout from the same
    ``layout`` tuple: ((name, shape), ...), max_rows, n_slots.
    """

    def __init__(self, path: str, layout: tuple, create: bool):
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
        fd = os.open(path, os.O_RDWR)
        try:
            if create:
                os.ftruncate(fd, size)
            self.map = mmap.mmap(fd, size)
        finally:
            os.close(fd)
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
        -1 (no gradient), 0 (dense) or the number of sparse rows."""
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
                grads[name] = (target[0][:n], target[1][:n]) if n else target
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


class Pool:
    """Worker processes plus the shared block they read and write."""

    def __init__(self, n_workers: int):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        # run from the directory holding this package, so the worker imports it
        package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self._workers = []
        self._selector = selectors.DefaultSelector()
        self._block: _Block | None = None
        self._spec: ModelSpec | None = None
        try:
            for _ in range(n_workers):
                proc = subprocess.Popen(
                    [sys.executable, "-c", "from rubric.pool import serve; serve()"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=package_dir,
                    bufsize=0,
                )
                _started.append(proc)
                self._workers.append(proc)
                self._selector.register(proc.stdout, selectors.EVENT_READ, proc)
        except OSError:
            self.close(kill=True)
            raise

    def close(self, kill: bool = False) -> None:
        """End every worker: close their pipes, which ends an idle worker's
        loop, and wait for them; with ``kill``, kill them first."""
        global _shared
        if _shared is self:
            _shared = None
        for proc in self._workers:
            if kill:
                proc.kill()
            proc.stdin.close()
        for proc in self._workers:
            proc.wait()  # without a timeout, which would poll in sleeps of up to 50 ms
            proc.stdout.close()
        self._workers = []
        self._selector.close()
        self._block = None

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
        params = model.named_parameters()
        shapes = tuple((name, p.shape) for name, p in params.items())
        block = self._block
        if (block is None or self._spec != model.spec or block.layout[0] != shapes
                or len(block.slots) < n_slots):
            n_slots = max(n_slots, len(block.slots) if block is not None else 0)
            self._new_block(model.spec, (shapes, model.spec.max_seq_len, n_slots))
        for name, p in params.items():
            np.copyto(self._block.params[name], p.data)

    def _new_block(self, spec: ModelSpec, layout: tuple) -> None:
        self._block = None
        shm = "/dev/shm" if os.path.isdir("/dev/shm") else None
        fd, path = tempfile.mkstemp(prefix="rubric-pool-", dir=shm)
        os.close(fd)
        try:
            self._block = _Block(path, layout, create=True)
            self._run([("block", path, asdict(spec), layout)] * len(self._workers))
        finally:
            # every worker has mapped it, or failed: the name is no longer needed
            os.unlink(path)
        self._spec = spec

    def _run(self, jobs, costs=None) -> list:
        """Hand out ``jobs``, largest cost first (ties in job order), to
        whichever workers have fewest queued, or job i to worker i without
        ``costs``; returns the replies in job order, re-raising the first
        job's error once all have finished.

        Each worker has up to ``_QUEUED`` jobs in its pipe, so it starts its
        next job without waiting for the parent to read its last reply.
        """
        order = sorted(range(len(jobs)), key=lambda i: -costs[i]) if costs else []
        replies = [None] * len(jobs)
        queued = {proc: collections.deque() for proc in self._workers}

        def send(proc, i):
            try:
                _send(proc.stdin.fileno(), jobs[i])
            except BrokenPipeError:
                raise self._died(proc) from None
            queued[proc].append(i)

        try:
            if costs is None:
                for i, proc in enumerate(self._workers[: len(jobs)]):
                    send(proc, i)
            while order or any(queued.values()):
                for depth in range(_QUEUED):
                    for proc in self._workers:
                        if order and len(queued[proc]) == depth:
                            send(proc, order.pop(0))
                for key, _ in self._selector.select():
                    proc = key.data
                    reply = _recv(proc.stdout.fileno())
                    if reply is None:
                        raise self._died(proc)
                    replies[queued[proc].popleft()] = reply
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

    def _died(self, proc) -> PoolError:
        try:
            code = proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            code = None
        how = ("did not exit" if code is None else
               f"was killed by signal {-code}" if code < 0 else f"exited with code {code}")
        return PoolError(f"worker process {proc.pid} {how}; its job is lost")


def serve() -> None:
    """A worker's main loop: answer the parent's jobs on standard input
    and output until the parent closes the pipe."""
    from .model import Model
    from .training import dropout_stream, sequence_gradients

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers itself
    requests, replies = 0, os.dup(1)
    os.dup2(2, 1)  # anything printed goes to stderr, never into the reply pipe
    block = model = None
    while (job := _recv(requests)) is not None:
        try:
            if job[0] == "grad":
                _, slot, ids, targets, loss_kind, scale, stream, offset = job
                loss, grads = sequence_gradients(model, ids, targets, loss_kind, scale,
                                                 dropout_stream(*stream, offset))
                reply = ("ok", loss, block.write_slot(slot, grads))
            elif job[0] == "predict":
                reply = ("ok", model.predict_ids(job[1]).tolist())
            else:  # "block": map a new shared file and rebuild the model on it
                _, path, spec, layout = job
                block = _Block(path, layout, create=False)
                model = Model.build(ModelSpec(**spec), seed=0)
                for name, p in model.named_parameters().items():
                    p.data = block.params[name]
                reply = ("ok",)
        except Exception as exc:  # reported to the parent, which raises it there
            reply = ("error", type(exc).__name__, str(exc))
        _send(replies, reply)
