"""Data-parallel worker processes for training passes and predictions.

A pool runs the per-sequence work of a training pass, or of a batch of
predictions, on worker processes forked from the parent; a pool with no
workers runs the same jobs in the parent (``_answer``). A pool lives for one
job on one model, a ``fit`` (with any scoring after it) or a batch of
predictions, as the body of a ``with``: its first job maps one anonymous
shared block and then forks the workers, which share it with no file or
name, and the end of the ``with`` stops and reaps them. The block holds every parameter, where each worker's
copy of the model reads them. Workers take their sequences over pipes
(``multiprocessing`` connections), longest first, and write each sequence's
gradient of every parameter into that sequence's own slot of the same block.
The rest of a training step runs on the workers too: each owns a fixed shard
of the parameters, one span of the block, whose slots it sums in a fixed
order, so results do not depend on how many workers ran or which one took
what, and which it perturbs, restores and steps with AdamW. While a model
trains, its parameters are views into the block, so a job copies nothing in;
a prediction job copies them in and leaves the model's own arrays alone. The
kernel frees a block when the last process mapping it ends, so nothing is
left behind, even by a parent that is killed.

A forked worker starts with numpy and this package already imported, and
shares the parent's memory pages until one of them writes to a page. It runs
only ``serve`` and leaves through ``os._exit``: it never returns into the
caller's code, so a script without an ``if __name__ == "__main__"`` guard is
not re-run, and it runs no ``atexit`` handler and flushes none of the
parent's buffered output, as starting a ``multiprocessing.Process`` would.
Forking a process that has BLAS threads is not safe, so importing this
module sets numpy's bundled OpenBLAS to one thread for the whole process;
where that cannot be done, every job runs in-process. Importing it also sets
glibc's malloc to keep freed memory in the process, which workers inherit.
"""

from __future__ import annotations

import collections
import ctypes
import errno
import glob
import itertools
import math
import mmap
import multiprocessing
import os
import pickle
import selectors
import signal
import traceback
from typing import NoReturn

import numpy as np

from . import training
from .tensor import NumericError, ShapeError


class PoolError(RuntimeError):
    """A worker process died, or failed in a way the parent cannot re-raise."""


# gradients of the embedding tables arrive row-sparse, as (ids, rows)
_ROW_SPARSE = ("enc.tok_emb", "enc.pos_emb")
_ALIGN = 64
_QUEUED = 2  # jobs in a worker's pipe at once

# Private hook for tests: 0 runs every job in-process, n >= 1 starts n
# workers whatever a job's size. Not a config key or environment variable.
_forced_workers: int | None = None
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


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def workers_for(sequences: int) -> int:
    """The workers of a pool for a job over ``sequences`` sequences.

    A worker per usable CPU, only on 2 or more CPUs and for more sequences
    than the workers' pipes hold at once (``_QUEUED`` each); otherwise none,
    so the job runs in-process, as every job does if BLAS could not be set
    to one thread. Every path gives the same bits, so the rule decides only
    time.
    """
    if not _blas_one_thread:
        return 0
    if _forced_workers is not None:
        return _forced_workers
    n = usable_cpus()
    return n if n >= 2 and sequences > n * _QUEUED else 0


def _aligned(n: int) -> int:
    """``n`` float64s rounded up to a whole number of 64-byte lines."""
    return -(-n * 8 // _ALIGN) * _ALIGN // 8


class _Block:
    """One model's training state in one anonymous shared mapping, which
    workers forked after it is made share with the parent.

    ``weights``, ``grad`` and each gradient slot's dense part are flat
    float64 vectors in which every parameter has the same 64-byte-aligned
    offsets (``spans``); ``params`` and ``grads`` map each name to its view.
    The flat order (``names``) puts one embedding table first and the other
    last, with the dense parameters between them in model order, so that
    shards cut at tensor boundaries can give the two scatter-adds to
    different workers. A slot, one per sequence, holds that sequence's
    gradient of every parameter: the dense ones in its dense part, each
    embedding table (``tables``) as up to ``max_rows`` ids and rows, with
    the number of rows in the slot's ``counts``; its dense part at a table's
    offsets is never touched. ``layout`` is ((name, shape), ...), max_rows,
    n_slots.
    """

    def __init__(self, layout: tuple):
        self.layout = layout
        shapes, max_rows, n_slots = layout
        tables = [(name, shape) for name, shape in shapes if name in _ROW_SPARSE]
        order = tables[:1] + [(n, s) for n, s in shapes if n not in _ROW_SPARSE] + tables[1:]
        self.names = [name for name, _ in order]
        self.tables = [name for name, _ in tables]
        self.spans, size = {}, 0
        for name, shape in order:
            self.spans[name] = (size, size + math.prod(shape))
            size += _aligned(math.prod(shape))
        slot = [((size,), np.float64), ((len(tables),), np.int64)]
        for _, shape in tables:
            slot += [((max_rows,), np.int64), ((max_rows, shape[1]), np.float64)]
        entries = [((size,), np.float64)] * 2 + slot * n_slots
        offsets, nbytes = [], 0
        for shape, _ in entries:  # each array 64-byte aligned; both dtypes take 8 bytes
            offsets.append(nbytes)
            nbytes += _aligned(math.prod(shape)) * 8
        try:
            self.map = mmap.mmap(-1, nbytes)  # MAP_SHARED: forked children share it
        except OSError as exc:
            if exc.errno != errno.ENOMEM:
                raise
            raise MemoryError(f"a block of {n_slots} gradient slots needs "
                              f"{nbytes / 2**20:.1f} MiB, more than can be mapped") from None
        arrays = iter(np.ndarray(shape, dtype, buffer=self.map, offset=offset)
                      for (shape, dtype), offset in zip(entries, offsets))
        self.weights, self.grad = next(arrays), next(arrays)
        self.params, self.grads = ({name: flat[a:b].reshape(shape)
                                    for (name, shape), (a, b) in zip(order, self.spans.values())}
                                   for flat in (self.weights, self.grad))
        self.shards = [self.names]  # the names each worker owns, set by the pool
        self.slots = [(next(arrays), next(arrays), [(next(arrays), next(arrays)) for _ in tables])
                      for _ in range(n_slots)]  # (dense part, counts, [(ids, rows) per table])

    def publish(self, params: dict) -> None:
        """Copy each parameter's values into the block, unless they are its
        view already. A block with gradient slots, which trains the model,
        makes them that view; a prediction block leaves them the model's."""
        for name, p in params.items():
            view = self.params[name]
            if p.data is not view:
                np.copyto(view, p.data)
                if self.slots:
                    p.data = view

    def write_slot(self, slot: int, grads: dict) -> None:
        """Copy one sequence's gradient of every parameter into ``slot``."""
        dense, counts, tables = self.slots[slot]
        for k, (name, (ids, rows)) in enumerate(zip(self.tables, tables)):
            n = counts[k] = len(grads[name][0])
            ids[:n], rows[:n] = grads[name]
        for name in self.names:
            if name not in self.tables:
                a, b = self.spans[name]
                np.copyto(dense[a:b].reshape(grads[name].shape), grads[name])


# The shard work per element of a slot's embedding rows, counted at their
# capacity (max_rows), in units of the work per element and slot of a dense
# parameter (its sum and AdamW). A scatter-add took about eight times as long
# as an add per element; at 10, two workers' shards of the default model took
# 0.34-0.38 and 0.35-0.54 ms to sum a pass and 0.32-0.39 and 0.35-0.36 ms to
# step (2-vCPU VM).
_SCATTER_COST = 10


def partition(block: _Block, n: int) -> list[list[str]]:
    """Split ``block``'s parameters, in flat order, into ``n`` runs of whole
    tensors of about equal work: a worker's shard. The cut after each run
    falls at the tensor boundary nearest its share of the total."""
    shapes, max_rows, n_slots = block.layout
    shape_of = dict(shapes)
    costs = []
    for name in block.names:
        shape = shape_of[name]
        cost = math.prod(shape) * (1 + n_slots)
        if name in _ROW_SPARSE:
            cost += n_slots * max_rows * shape[1] * _SCATTER_COST
        costs.append(cost)
    ends = list(itertools.accumulate(costs))
    cuts = [0]
    for k in range(1, n):
        nearest = min(range(len(ends)), key=lambda i: abs(ends[i] - ends[-1] * k / n))
        cuts.append(max(nearest + 1, cuts[-1]))
    cuts.append(len(costs))
    return [block.names[a:b] for a, b in zip(cuts, cuts[1:])]


def _send(conn, message) -> None:
    conn.send_bytes(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def _recv(conn):
    """The next message on ``conn``, or None at end of file, even mid-message.
    Only messages from this program's own processes are ever read."""
    try:
        return pickle.loads(conn.recv_bytes())
    except EOFError:
        return None
    except OSError as exc:  # what a connection raises for a message cut short
        if exc.args == ("got end of file during message",):
            return None
        raise


_RERAISED = {"NumericError": NumericError, "ShapeError": ShapeError, "ValueError": ValueError}


class _Worker:
    """The parent's handle on a forked worker: its pid and the parent's
    connections that send it jobs (``requests``) and read its ``replies``."""

    def __init__(self, pid: int, requests, replies):
        self.pid, self.requests, self.replies = pid, requests, replies
        self.returncode: int | None = None  # set once the worker is reaped

    def wait(self) -> int:
        """The exit code, once the worker has ended and been reaped."""
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:  # until reaped, the pid is still this worker's
            os.kill(self.pid, signal.SIGKILL)


def _fork_worker(model, block: _Block, index: int) -> _Worker:
    """Fork worker ``index``, which serves jobs on its copy of ``model``,
    with the parameters in ``block``. Only the parent returns, with the
    worker's handle."""
    conns = []
    try:
        conns += multiprocessing.Pipe(duplex=False)
        conns += multiprocessing.Pipe(duplex=False)
        pid = os.fork()
    except OSError:
        for conn in conns:
            conn.close()
        raise
    requests_in, requests_out, replies_in, replies_out = conns
    if pid == 0:
        # the parent's ends of this worker's pipes and of every earlier
        # worker not yet reaped (a reaped one's are closed already): an end
        # left open here would keep that pipe from closing
        inherited = [requests_out, replies_in]
        inherited += [conn for w in _started if w.returncode is None
                      for conn in (w.requests, w.replies)]
        _child(requests_in, replies_out, inherited, model, block, index)
    requests_in.close()
    replies_out.close()
    worker = _Worker(pid, requests_out, replies_in)
    _started.append(worker)
    return worker


def _child(requests, replies, inherited: list, model, block: _Block, index: int) -> NoReturn:
    """A forked worker's whole life: point the model at the shared
    parameters, take shard ``index`` of them, serve, then exit without
    returning into the caller's code, running its ``atexit`` handlers or
    flushing its buffered output."""
    code = 1
    try:
        for conn in inherited:
            conn.close()
        params = model.named_parameters()
        for name, p in params.items():
            p.data = block.params[name]
        serve(requests, replies, model, training.Shard(block, block.shards[index], params))
        code = 0
    except BaseException:  # the parent learns of it from the exit code
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


class Pool:
    """``n_workers`` worker processes plus the shared block they read and
    write, with ``n_slots`` gradient slots, for one job on one model: use it
    as the body of a ``with``, which closes it. Its first job makes the
    block and forks the workers with that model (``bind``).

    Each worker owns a shard of the model's training state: it sums its
    parameters' gradient slots, perturbs and restores them for AWP, and
    keeps their AdamW moments; with no workers, one shard in the parent
    (``shard``) holds every parameter. A pool serves one model: the first
    it binds.
    """

    def __init__(self, n_workers: int, n_slots: int = 0):
        self._n_workers, self._n_slots = n_workers, n_slots
        self._workers: list[_Worker] = []
        self._selector = selectors.DefaultSelector() if n_workers else None  # an open fd
        self._block: _Block | None = None
        self._model = None  # the one model the block was made for
        self.shard: training.Shard | None = None  # every parameter's, with no workers
        self._closed = False

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, kind, value, traceback) -> None:
        self.close(kill=kind is not None)

    def close(self, kill: bool = False) -> None:
        """Close the workers' pipes, which ends an idle worker's loop, and
        reap them; with ``kill``, kill them first. A closed pool takes no
        more jobs."""
        for worker in self._workers:
            if kill:
                worker.kill()
            worker.requests.close()
        for worker in self._workers:
            worker.wait()
            worker.replies.close()
        self._workers = []
        if self._selector is not None:
            self._selector.close()
        self._closed = True

    def bind(self, model) -> _Block:
        """The block of ``model``, holding its parameters' values now (see
        ``_Block.publish``). At the first job, make it and fork the workers
        onto it, each with its shard of the parameters (``partition``)."""
        if self._closed:
            raise PoolError("the pool is closed")
        if self._block is not None and model is not self._model:
            raise PoolError("a pool serves only the model it first bound; "
                            "give another model a pool of its own")
        params = model.named_parameters()
        if self._block is None:
            shapes = tuple((name, p.shape) for name, p in params.items())
            try:
                block = _Block((shapes, model.spec.max_seq_len, self._n_slots))
                block.shards = partition(block, max(self._n_workers, 1))
                if not self._n_workers:
                    self.shard = training.Shard(block, block.names, params)
                for index in range(self._n_workers):
                    worker = _fork_worker(model, block, index)
                    self._workers.append(worker)
                    self._selector.register(worker.replies, selectors.EVENT_READ, worker)
            except BaseException:
                self.close(kill=True)
                raise
            self._block, self._model = block, model
        self._block.publish(params)
        return self._block

    def gradients(self, model, batch, loss_kind: str, scale: float, stream: tuple,
                  offsets) -> list[float]:
        """Run ``training.sequence_gradients`` on every (ids, targets) of
        ``batch``, at most one per slot, with the parameters ``model`` has now;
        sequence i draws dropout from ``dropout_stream(*stream, offsets[i])``
        and writes its gradients into slot i. Returns each sequence's loss."""
        self.bind(model)
        # plain lists and floats: pickling them costs a fraction of arrays
        jobs = [("grad", i, list(ids), np.asarray(targets).tolist(), loss_kind, scale, stream,
                 int(offset))
                for i, ((ids, targets), offset) in enumerate(zip(batch, offsets))]
        return [loss for (loss,) in self._run(jobs, [len(ids) for ids, _ in batch], model)]

    def shards(self, ops: list) -> list:
        """Run ``ops`` on every shard (see ``training.Shard.run``); returns
        each shard's result, in worker order."""
        jobs = [("shard", ops)] * len(self._block.shards)
        return [result for (result,) in self._run(jobs)]

    def predict(self, model, id_lists) -> np.ndarray:
        """Eval-mode raw predictions, one row per token-id list; with no
        workers, from the model's own parameters, with no block."""
        if self._n_workers:
            self.bind(model)
        jobs = [("predict", list(ids)) for ids in id_lists]
        replies = self._run(jobs, [len(ids) for ids in id_lists], model)
        return np.array([pred for (pred,) in replies], dtype=np.float64)

    def _run(self, jobs, costs=None, model=None) -> list:
        """Hand out ``jobs``, largest cost first (ties in job order), to
        whichever workers have fewest queued, or without ``costs`` job i to
        worker i; returns the replies in job order, re-raising the first
        job's error once all have finished. With no workers, the parent
        answers them on ``model``, and an error propagates as raised.

        Each worker has up to ``_QUEUED`` jobs in its pipe, so it starts its
        next job without waiting for the parent to read its last reply.
        """
        if self._closed:
            raise PoolError("the pool is closed")
        if not self._n_workers:
            return [_answer(job, model, self.shard) for job in jobs]
        order = sorted(range(len(jobs)), key=lambda i: -costs[i]) if costs else []
        replies = [None] * len(jobs)
        queued = {worker: collections.deque() for worker in self._workers}

        def send(worker, i):
            try:
                _send(worker.requests, jobs[i])
            except BrokenPipeError:
                raise self._died(worker) from None
            queued[worker].append(i)

        try:
            if costs is None:
                for i, worker in enumerate(self._workers):
                    send(worker, i)
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


def _answer(job, model, shard: training.Shard | None) -> tuple:
    """The job handler, which ``serve`` wraps with a worker's pipes and a
    pool with no workers calls in the parent: the reply to ``job``, less the
    "ok" a worker sends before it, on ``model``, whose parameters are those
    of ``shard``'s block while it trains, or on this process's ``shard``."""
    if job[0] == "grad":
        _, slot, ids, targets, loss_kind, scale, stream, offset = job
        loss, grads = training.sequence_gradients(model, ids, targets, loss_kind, scale,
                                                  training.dropout_stream(*stream, offset))
        shard.block.write_slot(slot, grads)
        return (loss,)
    if job[0] == "shard":
        return (shard.run(job[1]),)
    return (model.predict_ids(job[1]).tolist(),)  # "predict"


def serve(requests, replies, model, shard: training.Shard) -> None:
    """A worker's main loop: answer the parent's jobs (``_answer``) on
    ``model``, whose parameters are in ``shard``'s block, read from
    ``requests``, on ``replies`` until the parent closes ``requests``. A
    job's exception is reported back, for the parent to raise."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers itself
    while (job := _recv(requests)) is not None:
        try:
            reply = ("ok", *_answer(job, model, shard))
        except Exception as exc:  # reported to the parent, which raises it there
            reply = ("error", type(exc).__name__, str(exc))
        _send(replies, reply)
