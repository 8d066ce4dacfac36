"""The worker pool: same bits at every worker count, errors, lifetime."""

import dataclasses
import os
import resource
import signal
import subprocess
import sys
import textwrap
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from rubric import pool
from rubric.cli import main
from rubric.data import SynthSpec, build_vocab, synth_corpus, write_csv
from rubric.encoder import POOLING_MODES, ModelSpec, dropout_draws
from rubric.model import Model
from rubric.tensor import NumericError
from rubric.training import TrainConfig, Trainer, dropout_stream, fit

from conftest import workers_left_running

WORKER_COUNTS = (0, 1, 2, 3)
SMALL = [
    "--set", "model.d_model=16", "--set", "model.n_layers=1",
    "--set", "model.n_heads=2", "--set", "model.d_ff=32",
    "--set", "train.epochs=2", "--set", "train.batch_size=4",
    "--set", "train.learning_rate=1e-3",
]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def corpus(tmp_path):
    # 13 essays: 10 train and 3 validation, so batches of 4 end with one of 2
    path = tmp_path / "corpus.csv"
    write_csv(synth_corpus(13, seed=23), str(path))
    return str(path)


def run_with_workers(monkeypatch, workers, args):
    monkeypatch.setattr(pool, "_forced_workers", workers)
    return main([str(a) for a in args])


def artifacts(out, names):
    found = {name: (out / name).read_bytes() for name in names}
    for name in names:
        if name.startswith("report"):  # the seconds column is wall-clock time
            found[name] = [line.rsplit(b",", 1)[0] for line in found[name].splitlines()]
    return found


class TestSameBitsAtEveryWorkerCount:
    @pytest.mark.parametrize("mode", POOLING_MODES)
    @pytest.mark.parametrize("adv_lr", [0.0, 1.0])
    def test_train(self, monkeypatch, corpus, tmp_path, mode, adv_lr):
        names = ("checkpoint.bin", "metrics.json", "report.csv")
        seen = {}
        for workers in WORKER_COUNTS:
            out = tmp_path / f"w{workers}"
            code = run_with_workers(monkeypatch, workers, [
                "train", "--data", corpus, "--out", out, "--seed", 5, *SMALL,
                "--set", f"model.pooling_mode={mode}", "--set", f"train.adv_lr={adv_lr}",
                "--set", "train.awp_start_epoch=2", "--set", "model.dropout_p=0.1"])
            assert code == 0
            seen[workers] = artifacts(out, names)
        for workers in WORKER_COUNTS[1:]:
            assert seen[workers] == seen[0], workers

    def test_cv(self, monkeypatch, corpus, tmp_path):
        names = ("fold_plan.json", "oof.csv", "cv_metrics.json", "report_fold0.csv",
                 "report_fold1.csv")
        seen = {}
        for workers in WORKER_COUNTS:
            out = tmp_path / f"w{workers}"
            assert run_with_workers(monkeypatch, workers, [
                "cv", "--data", corpus, "--out", out, "--folds", 2, "--seed", 2, *SMALL]) == 0
            seen[workers] = artifacts(out, names)
        for workers in WORKER_COUNTS[1:]:
            assert seen[workers] == seen[0], workers

    def test_predict(self, monkeypatch, corpus, tmp_path):
        assert run_with_workers(monkeypatch, 0, [
            "train", "--data", corpus, "--out", tmp_path / "model", *SMALL]) == 0
        essays = tmp_path / "essays.csv"
        write_csv(synth_corpus(9, seed=31), str(essays))
        seen = {}
        for workers in WORKER_COUNTS:
            out = tmp_path / f"w{workers}"
            assert run_with_workers(monkeypatch, workers, [
                "predict", "--checkpoint", tmp_path / "model" / "checkpoint.bin",
                "--input", essays, "--out", out]) == 0
            seen[workers] = (out / "predictions.csv").read_bytes()
        for workers in WORKER_COUNTS[1:]:
            assert seen[workers] == seen[0], workers


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 5, 7, 8, 100_003])
def test_dropout_stream_starts_where_earlier_draws_end(offset):
    drawn = dropout_stream(3, 11, 1, 0)
    drawn.random(offset)
    assert dropout_stream(3, 11, 1, offset).random(9).tobytes() == drawn.random(9).tobytes()


@pytest.mark.parametrize("dropout_p", [0.0, 0.1])
def test_dropout_draws_counts_what_encode_draws(dropout_p):
    records = synth_corpus(3, seed=8)
    vocab = build_vocab(records)
    spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                     dropout_p=dropout_p)
    model = Model.build(spec, seed=0, vocab=vocab)
    ids = model.encode_record(records[0])
    rng = dropout_stream(0, 1, 0, 0)
    model.forward(ids, train=True, rng=rng)
    after = dropout_stream(0, 1, 0, dropout_draws(spec, len(ids)))
    assert rng.random(4).tobytes() == after.random(4).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_error_in_a_worker_keeps_its_message_and_exits_two(
        monkeypatch, corpus, tmp_path, capsys):
    diverge = ["--set", "train.learning_rate=1e100", "--set", "train.epochs=3"]
    messages = []
    for workers in (0, 2):
        code = run_with_workers(monkeypatch, workers, [
            "train", "--data", corpus, "--out", tmp_path / f"w{workers}", *SMALL, *diverge])
        assert code == 2
        messages.append(capsys.readouterr().err.strip().splitlines()[-1])
    assert messages[0] == messages[1]
    assert "softmax input contains non-finite values (epoch 1, step 2" in messages[1]


def test_a_worker_raising_numeric_error_reaches_the_trainer(monkeypatch):
    records = synth_corpus(6, seed=4)
    vocab = build_vocab(records)
    spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16)
    model = Model.build(spec, seed=0, vocab=vocab)
    model.named_parameters()["enc.layer0.wq"].data[:] = np.inf
    trainer = Trainer(model, TrainConfig(seed=1))
    monkeypatch.setattr(pool, "_forced_workers", 2)
    trainer.pool = pool.get(0.0)
    batch = [(model.encode_record(r), np.asarray(r.scores)) for r in records]
    with pytest.raises(NumericError, match="softmax input contains non-finite values"):
        trainer.train_step(batch, epoch=1)


def test_killed_worker_is_named_without_hang_or_leftovers(monkeypatch):
    records = synth_corpus(40, seed=6)
    vocab = build_vocab(records[:30])
    model = Model.build(ModelSpec(vocab_size=vocab.size), seed=0, vocab=vocab)
    monkeypatch.setattr(pool, "_forced_workers", 2)
    victim = []

    def kill_a_busy_worker():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            workers = pool._shared
            if workers is not None and workers._spec is not None:  # jobs are running
                victim.append(workers._workers[0])
                os.kill(victim[0].pid, signal.SIGKILL)
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_a_busy_worker)
    killer.start()
    started = time.monotonic()
    with pytest.raises(pool.PoolError) as raised:
        fit(model, records[:30], records[30:], TrainConfig(epochs=20, seed=2))
    killer.join(timeout=10)
    assert not killer.is_alive()
    assert time.monotonic() - started < 30
    assert f"worker process {victim[0].pid} was killed by signal 9" in str(raised.value)
    assert all(worker.poll() is not None for worker in pool._started)
    assert pool._shared is None


@pytest.mark.skipif(pool.usable_cpus() < 2, reason="the pool needs two usable CPUs")
def test_script_without_main_guard_runs_to_the_end(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""
        from rubric import pool
        from rubric.data import build_vocab, synth_corpus
        from rubric.encoder import ModelSpec
        from rubric.model import Model
        from rubric.training import TrainConfig, fit

        records = synth_corpus(100, seed=3)
        vocab = build_vocab(records[:80])
        model = Model.build(ModelSpec(vocab_size=vocab.size), seed=0, vocab=vocab)
        fit(model, records[:80], records[80:], TrainConfig(epochs=2, seed=1))
        print("workers", len(pool._shared._workers))
        print("finished")
    """))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"workers {pool.usable_cpus()}", "finished"]


def run_script(tmp_path, body):
    """Run ``body`` as a script in a fresh interpreter, its output piped
    and so block-buffered."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(body))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=300)


SMALL_MODEL = """
    from rubric import pool
    from rubric.data import build_vocab, synth_corpus
    from rubric.encoder import ModelSpec
    from rubric.model import Model

    records = synth_corpus(4, seed=3)
    vocab = build_vocab(records)
    model = Model.build(ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2,
                                  d_ff=16), seed=0, vocab=vocab)
    pool._forced_workers = 2
"""


def test_workers_do_not_flush_the_parents_buffered_output(tmp_path):
    done = run_script(tmp_path, SMALL_MODEL + """
    print("buffered before the pool starts")  # stdout is a pipe: not flushed yet
    model.predict_records(records)
    pool.close()
    print("finished")
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["buffered before the pool starts", "finished"]


def test_a_worker_failing_before_its_loop_is_named_and_never_returns(tmp_path):
    done = run_script(tmp_path, SMALL_MODEL + """
    def broken(requests, replies, model, block):
        raise RuntimeError("broken before its loop")

    pool.serve = broken
    try:
        model.predict_records(records)
    except pool.PoolError as exc:
        print("started", *[worker.pid for worker in pool._started], flush=True)
        print(exc)
    """)
    assert done.returncode == 0, done.stderr
    started, error = done.stdout.splitlines()
    pids = started.split()[1:]
    assert len(pids) == 2
    assert any(error == f"worker process {pid} exited with code 1; its job is lost"
               for pid in pids), error
    # the other worker may be killed before it reports
    assert "RuntimeError: broken before its loop" in done.stderr


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_a_parent_killed_while_its_workers_start_leaves_no_shared_memory_file(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(SMALL_MODEL + """
    import os, time

    def stalled(requests, *args):
        pool._recv(requests)  # the pool has sent its first job
        os.write(1, b"ready\\n")
        time.sleep(300)

    pool.serve = stalled
    model.predict_records(records)
    """))
    before = set(os.listdir("/dev/shm"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        assert proc.stdout.readline() == b"ready\n"
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
        proc.stdout.close()
    assert set(os.listdir("/dev/shm")) - before == set()


def test_a_running_pool_forks_new_workers_for_each_new_block(monkeypatch):
    records = synth_corpus(12, seed=5)
    vocab, small = build_vocab(records), build_vocab(records[:2])
    spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16)
    assert small.size != vocab.size

    def predict(spec, seed, vocab):
        model = Model.build(spec, seed=seed, vocab=vocab)
        return model.predict_records(records, clip=False).tobytes()

    def train():  # gradient jobs need slots; its validation predicts on the same block
        model = Model.build(spec, seed=2, vocab=vocab)
        report = fit(model, records[:9], records[9:], TrainConfig(epochs=1, batch_size=4))
        params = [p.data.tobytes() for p in model.named_parameters().values()]
        return params, [(row.train_loss, row.valid_mcrmse) for row in report.rows]

    jobs = [
        lambda: predict(spec, 0, vocab),
        lambda: predict(spec, 1, vocab),  # same spec, other parameters: same workers
        train,
        lambda: predict(dataclasses.replace(spec, vocab_size=small.size), 3, small),
    ]
    monkeypatch.setattr(pool, "_forced_workers", 0)
    expected = [job() for job in jobs]
    monkeypatch.setattr(pool, "_forced_workers", 2)
    rounds = []
    for job, want in zip(jobs, expected):
        assert job() == want
        current = [worker.pid for worker in pool._shared._workers]
        assert sorted(workers_left_running()) == sorted(current)
        rounds.append(tuple(current))
    assert rounds[1] == rounds[0]
    assert len(set(rounds)) == 3


def test_without_a_blas_setter_every_job_runs_in_process(monkeypatch, corpus, tmp_path):
    monkeypatch.setattr(pool, "_BLAS_THREADS", ("no_such_{}_num_threads",))
    monkeypatch.setattr(pool, "_blas_one_thread", pool._pin_blas(pool._NUMPY_LIBS))
    assert not pool._blas_one_thread
    assert not pool._pin_blas(str(tmp_path))  # no library at all
    started = len(pool._started)
    seen = {}
    for workers in (0, 2):
        out = tmp_path / f"w{workers}"
        assert run_with_workers(monkeypatch, workers, [
            "train", "--data", corpus, "--out", out / "model", *SMALL]) == 0
        assert run_with_workers(monkeypatch, workers, [
            "predict", "--checkpoint", out / "model" / "checkpoint.bin", "--input", corpus,
            "--out", out]) == 0
        seen[workers] = artifacts(out, ("model/checkpoint.bin", "model/metrics.json",
                                        "predictions.csv"))
    assert seen[2] == seen[0]
    assert len(pool._started) == started


def test_block_slots_give_back_each_kind_of_gradient_they_were_given():
    def parts(grad):  # a row-sparse gradient is (ids, rows)
        return grad if isinstance(grad, tuple) else (grad,)

    shapes = (("enc.tok_emb", (10, 4)), ("enc.layer0.wq", (4, 4)), ("head.w", (4,)))
    block = pool._Block((shapes, 6, 2))
    for array in [block.params[name] for name, _ in shapes] + block.slots[0] + block.slots[1]:
        for part in parts(array):
            part[...] = 7  # stale values, which nothing may read back
    rng = np.random.default_rng(0)
    written = [
        {"enc.tok_emb": (np.array([3, 1]), rng.normal(size=(2, 4))),
         "enc.layer0.wq": rng.normal(size=(4, 4))},
        {"enc.tok_emb": (np.zeros(0, np.int64), np.zeros((0, 4))), "head.w": rng.normal(size=4)},
    ]
    rows = [block.write_slot(slot, grads) for slot, grads in enumerate(written)]
    for slot, grads in enumerate(written):
        read = block.read_slot(slot, rows[slot])
        assert read.keys() == grads.keys()
        for name, want in grads.items():
            for got, expected in zip(parts(read[name]), parts(want)):
                assert got.shape == expected.shape and np.array_equal(got, expected), name


def test_without_mallopt_jobs_get_the_same_bits(tmp_path):
    assert not pool._pin_heap(types.SimpleNamespace())
    assert not pool._pin_heap(types.SimpleNamespace(mallopt=lambda param, value: 0))
    predict = SMALL_MODEL + """
    print(pool._heap_pinned)
    for workers in (0, 2):
        pool._forced_workers = workers
        print(model.predict_records(records, clip=False).tobytes().hex())
        pool.close()
    """
    pinned = run_script(tmp_path, predict)
    # a libc handle without mallopt leaves glibc's defaults in force
    unpinned = run_script(tmp_path, """
    import ctypes, types
    dlopen = ctypes.CDLL
    ctypes.CDLL = lambda name, *args, **kwargs: (
        types.SimpleNamespace() if name is None else dlopen(name, *args, **kwargs))
    """ + predict)
    assert pinned.returncode == 0 and unpinned.returncode == 0, pinned.stderr + unpinned.stderr
    _, in_process, on_workers = pinned.stdout.splitlines()
    assert in_process == on_workers
    assert unpinned.stdout.splitlines() == ["False", in_process, in_process]


def long_essays():
    """The default model and essays of 182 to 256 tokens, where the batched
    attention-score product is big enough for BLAS to use threads."""
    records = synth_corpus(40, seed=12, spec=SynthSpec(min_sentences=20, max_sentences=28))
    vocab = build_vocab(records)
    model = Model.build(ModelSpec(vocab_size=vocab.size), seed=0, vocab=vocab)
    long = [r for r in records if 182 <= len(model.encode_record(r)) <= 256]
    assert len(long) >= 20
    return model, long


def test_long_sequences_get_the_same_bits_in_process_and_on_workers(monkeypatch):
    model, records = long_essays()
    seen = {}
    for workers in (0, 2):
        monkeypatch.setattr(pool, "_forced_workers", workers)
        seen[workers] = model.predict_records(records, clip=False).tobytes()
        pool.close()
    assert seen[2] == seen[0]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.skipif(not pool._blas_one_thread, reason="no bundled OpenBLAS to pin")
def test_each_worker_has_one_thread(monkeypatch):
    model, records = long_essays()
    monkeypatch.setattr(pool, "_forced_workers", 2)
    model.predict_records(records)
    workers = pool._shared._workers
    assert [len(os.listdir(f"/proc/{w.pid}/task")) for w in workers] == [1, 1]


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_leak_guard_sees_live_and_unreaped_workers(monkeypatch):
    records = synth_corpus(4, seed=3)
    vocab = build_vocab(records)
    spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16)
    model = Model.build(spec, seed=0, vocab=vocab)
    monkeypatch.setattr(pool, "_forced_workers", 1)
    model.predict_records(records)
    worker = pool._shared._workers[0]
    assert worker.pid in workers_left_running()
    os.kill(worker.pid, signal.SIGKILL)
    os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
    assert worker.pid in workers_left_running()
    pool.close()
    assert worker.pid not in workers_left_running()


@pytest.mark.skipif(not pool._heap_pinned, reason="no glibc mallopt")
def test_a_warm_eval_forward_of_max_seq_len_tokens_makes_almost_no_page_faults():
    model, _ = long_essays()
    ids = np.random.default_rng(0).integers(1, model.spec.vocab_size,
                                            model.spec.max_seq_len).tolist()
    for _ in range(3):
        model.predict_ids(ids)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        model.predict_ids(ids)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 20 <= 16  # 1,136 with glibc's default thresholds


@pytest.mark.skipif(not pool._heap_pinned, reason="no glibc mallopt")
def test_forked_workers_inherit_the_heap_setting(monkeypatch):
    model, records = long_essays()
    monkeypatch.setattr(pool, "_forced_workers", 2)
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    model.predict_records(records)
    pool.close()  # reaped workers count in RUSAGE_CHILDREN
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert faults / len(records) <= 300  # about 1,050 with glibc's default thresholds
