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

from rubric import pool, training
from rubric.cli import main
from rubric.data import SynthSpec, build_vocab, synth_corpus, write_csv
from rubric.encoder import POOLING_MODES, ModelSpec, dropout_draws
from rubric.model import Model
from rubric.tensor import NumericError, Tensor
from rubric.training import TrainConfig, Trainer, dropout_stream, fit

from _oracles import reference_accumulate
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
    @staticmethod
    def train_bits(monkeypatch, corpus, tmp_path, settings):
        names = ("checkpoint.bin", "metrics.json", "report.csv")
        seen = {}
        for workers in WORKER_COUNTS:
            out = tmp_path / f"w{workers}"
            code = run_with_workers(monkeypatch, workers, [
                "train", "--data", corpus, "--out", out, "--seed", 5, *SMALL,
                *[arg for setting in settings for arg in ("--set", setting)]])
            assert code == 0
            seen[workers] = artifacts(out, names)
        for workers in WORKER_COUNTS[1:]:
            assert seen[workers] == seen[0], workers

    @pytest.mark.parametrize("mode", POOLING_MODES)
    @pytest.mark.parametrize("adv_lr", [0.0, 1.0])
    def test_train(self, monkeypatch, corpus, tmp_path, mode, adv_lr):
        self.train_bits(monkeypatch, corpus, tmp_path, [
            f"model.pooling_mode={mode}", f"train.adv_lr={adv_lr}", "train.awp_start_epoch=2",
            "model.dropout_p=0.1"])

    def test_train_clipped_with_decay_and_two_adv_steps(self, monkeypatch, corpus, tmp_path):
        self.train_bits(monkeypatch, corpus, tmp_path, [
            "train.grad_clip_norm=0.05", "train.adv_steps=2", "train.weight_decay=0.01",
            "train.awp_start_epoch=1"])

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


def tiny_model(records, seed=0):
    vocab = build_vocab(records)
    spec = ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16)
    return Model.build(spec, seed=seed, vocab=vocab)


@pytest.mark.skipif(pool.usable_cpus() < 2 or not pool._blas_one_thread,
                    reason="the pool needs two usable CPUs and one BLAS thread")
def test_the_pool_starts_only_for_more_sequences_than_the_workers_queue():
    cutoff = pool.usable_cpus() * pool._QUEUED
    records = synth_corpus(cutoff + 1, seed=8)
    model = tiny_model(records)
    started = len(pool._started)
    model.predict_records(records[:cutoff])
    assert pool._shared is None
    assert len(pool._started) == started
    model.predict_records(records)
    assert pool._shared is not None
    assert len(pool._started) == started + pool.usable_cpus()


def test_one_usable_cpu_keeps_every_job_in_process(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
    records = synth_corpus(300, seed=8)
    started = len(pool._started)
    tiny_model(records).predict_records(records)
    assert pool._shared is None
    assert len(pool._started) == started


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_worker_raising_numeric_error_reaches_the_trainer(monkeypatch):
    records = synth_corpus(6, seed=4)
    model = tiny_model(records)
    model.named_parameters()["enc.layer0.wq"].data[:] = np.inf
    trainer = Trainer(model, TrainConfig(seed=1))
    monkeypatch.setattr(pool, "_forced_workers", 2)
    trainer.pool = pool.get(0)
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
            if workers is not None and workers._workers:  # jobs are running
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
    assert all(worker.returncode is not None for worker in pool._started)
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
        lambda: predict(spec, 1, vocab),  # another model of the same spec: new workers
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
    assert len(set(rounds)) == 4
    model = Model.build(spec, seed=4, vocab=vocab)  # one model's jobs keep their workers
    model.predict_records(records)
    workers = list(pool._shared._workers)
    model.predict_records(records[:3])
    assert pool._shared._workers == workers


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


SHAPES = (("enc.tok_emb", (10, 4)), ("enc.pos_emb", (6, 4)), ("enc.layer0.wq", (4, 4)),
          ("enc.layer0.bq", (4,)), ("head.cohesion.out_w", (4, 1)),
          ("head.cohesion.out_b", (1,)), ("head.syntax.out_b", (1,)), ("enc.lnf_g", (4,)))


def shapes_params():
    rng = np.random.default_rng(1)
    return {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in SHAPES}


def random_grads(rng):
    """One sequence's gradient of every parameter: dense arrays, and (ids,
    rows) for the tables, 0-6 rows, with repeated ids for the token table."""
    grads = {}
    for name, shape in SHAPES:
        if name in ("enc.tok_emb", "enc.pos_emb"):
            n = int(rng.integers(0, 7))
            ids = rng.integers(0, shape[0], n) if name == "enc.tok_emb" else np.arange(n)
            grads[name] = (ids, rng.normal(size=(n, shape[1])))
        else:
            grads[name] = rng.normal(size=shape)
    return grads


def test_block_slots_give_back_each_kind_of_gradient_they_were_given():
    def dense(name, grad):  # a row-sparse gradient is (ids, rows)
        if not isinstance(grad, tuple):
            return grad
        table = np.zeros(dict(SHAPES)[name])
        np.add.at(table, *grad)
        return table

    block = pool._Block((SHAPES, 6, 2))
    for array in [block.weights, block.grad] + [part for flat, counts, tables in block.slots
                                                 for part in [flat, counts, *sum(tables, ())]]:
        array[...] = 7  # stale values, which nothing may read back
    rng = np.random.default_rng(0)
    written = [random_grads(rng) for _ in range(2)]
    written[0]["enc.tok_emb"] = (np.array([3, 1, 3]), rng.normal(size=(3, 4)))
    # no rows, after a sequence that left three behind
    written[1]["enc.tok_emb"] = (np.zeros(0, np.int64), np.zeros((0, 4)))
    params = shapes_params()
    shard = training.Shard(block, block.names, params)
    for grads in written:
        block.write_slot(0, grads)
        shard.reduce(1, fresh=True)
        for name, p in params.items():
            assert np.array_equal(p.grad, dense(name, grads[name])), name


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_shard_reduction_adds_in_the_reference_order_bit_for_bit(n_shards):
    params = shapes_params()
    shapes = dict(SHAPES)
    block = pool._Block((SHAPES, 6, 4))
    block.publish(params)
    block.grad[:] = 7  # stale values, which the first contribution must replace
    dense = [name for name in block.names if name not in pool._ROW_SPARSE]
    assert block.names[0] == "enc.tok_emb" and block.names[-1] == "enc.pos_emb"
    # shards of whole tensors; from two on, a cut falls between dense ones
    cuts = np.array_split(np.arange(len(block.names)), n_shards)
    shards = [training.Shard(block, [block.names[i] for i in cut], params) for cut in cuts]
    if n_shards > 1:
        assert any(block.names[cut[0]] in dense[1:] for cut in cuts[1:])
    rng = np.random.default_rng(n_shards)
    expected = None
    for fresh in (True, False):  # a clean pass, then an adversarial one adding to it
        passes = [random_grads(rng) for _ in range(4)]
        for slot, grads in enumerate(passes):
            block.write_slot(slot, grads)
        for shard in shards:
            shard.reduce(len(passes), fresh)
        expected = reference_accumulate(shapes, passes, expected)
        for name, p in params.items():
            assert p.grad.tobytes() == expected[name].tobytes(), (fresh, name)


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_every_parameter_belongs_to_exactly_one_shard(n_workers):
    records = synth_corpus(30, seed=2)
    vocab = build_vocab(records)
    for spec in (ModelSpec(vocab_size=vocab.size),
                 ModelSpec(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                           pooling_mode="mean")):
        params = Model.build(spec, seed=0, vocab=vocab).named_parameters()
        shapes = tuple((name, p.shape) for name, p in params.items())
        block = pool._Block((shapes, spec.max_seq_len, 8))
        shards = pool.partition(block, n_workers)
        assert len(shards) == n_workers
        assert [name for shard in shards for name in shard] == block.names
        assert sorted(block.names) == sorted(params)
        if n_workers > 1:  # the two scatter-adds go to different workers
            assert "enc.tok_emb" in shards[0] and "enc.pos_emb" in shards[-1]


def small_model(seed):
    records = synth_corpus(12, seed=5)
    return tiny_model(records, seed), records


def parameter_bytes(model):
    return {name: p.data.tobytes() for name, p in model.named_parameters().items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_fitted_model_keeps_its_parameters_when_the_pool_runs_another(monkeypatch):
    monkeypatch.setattr(pool, "_forced_workers", 2)
    fitted, records = small_model(seed=1)
    fit(fitted, records[:9], records[9:], TrainConfig(epochs=1, batch_size=4))
    diverged, _ = small_model(seed=2)
    with pytest.raises(NumericError):
        fit(diverged, records[:9], records[9:],
            TrainConfig(epochs=3, batch_size=4, learning_rate=1e100))
    kept = [parameter_bytes(fitted), parameter_bytes(diverged)]
    other, _ = small_model(seed=3)  # the same spec
    other.predict_records(records)
    assert [parameter_bytes(fitted), parameter_bytes(diverged)] == kept


@pytest.mark.parametrize("workers", [0, 2])
def test_a_fitted_model_holds_nothing_of_the_pools_block(monkeypatch, workers):
    monkeypatch.setattr(pool, "_forced_workers", workers)
    model, records = small_model(seed=6)
    fit(model, records[:9], records[9:], TrainConfig(epochs=1, batch_size=4))
    for p in model.named_parameters().values():  # private copies, and no gradients
        assert p.data.base is None and p.grad is None


def trainers_of_one_spec(seeds):
    """A trainer of each seed's model of one spec, on the pool ``pool.get``
    gives, and three batches of 4."""
    _, records = small_model(0)
    trainers = []
    for seed in seeds:
        model, _ = small_model(seed)
        trainers.append(Trainer(model, TrainConfig(batch_size=4, awp_start_epoch=1, seed=3)))
        trainers[-1].pool = pool.get(0)
    batches = [[(trainers[0].model.encode_record(r), np.asarray(r.scores))
                for r in records[start: start + 4]] for start in (0, 4, 8)]
    return trainers, batches


def test_two_trainers_of_one_spec_match_their_solo_runs_or_fail_loudly(monkeypatch):
    monkeypatch.setattr(pool, "_forced_workers", 0)
    solo = []
    for seed in (1, 2):
        (trainer,), batches = trainers_of_one_spec([seed])
        for batch in batches:
            trainer.train_step(batch, epoch=1)
        solo.append(parameter_bytes(trainer.model))
    trainers, batches = trainers_of_one_spec([1, 2])
    for batch in batches:
        for trainer in trainers:  # in turn
            trainer.train_step(batch, epoch=1)
    assert [parameter_bytes(trainer.model) for trainer in trainers] == solo
    # on workers both share one pool, whose block serves one model at a time
    monkeypatch.setattr(pool, "_forced_workers", 2)
    (first, second), batches = trainers_of_one_spec([1, 2])
    first.train_step(batches[0], epoch=1)
    second.train_step(batches[0], epoch=1)
    with pytest.raises(pool.PoolError, match="workers were replaced during training"):
        first.train_step(batches[1], epoch=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_adversarial_loss_restores_the_shards_first(monkeypatch):
    messages = []
    for workers in (0, 2):
        monkeypatch.setattr(pool, "_forced_workers", workers)
        model, records = small_model(seed=4)
        before = parameter_bytes(model)
        # an infinite ascent step in an infinite box makes the perturbed weights
        # non-finite, which the message would name had they not been restored
        trainer = Trainer(model, TrainConfig(batch_size=4, awp_start_epoch=1, seed=2,
                                             adv_lr=float("inf"), adv_eps=float("inf")))
        trainer.pool = pool.get(0)
        batch = [(model.encode_record(r), np.asarray(r.scores)) for r in records[:4]]
        with pytest.raises(NumericError) as raised:
            trainer.train_step(batch, epoch=1)
        messages.append(str(raised.value))
        assert parameter_bytes(model) == before  # restored, and no optimizer step
        pool.close()
    # the forward meets the infinite weights; the message names no tensor
    assert messages[0] == messages[1]
    assert messages[0].endswith("non-finite values (epoch 1, step 1)"), messages[0]


def test_a_worker_killed_while_it_sums_and_steps_is_named(monkeypatch):
    monkeypatch.setattr(pool, "_forced_workers", 2)
    model, records = small_model(seed=5)
    shards = pool.Pool.shards
    victim = []

    def kill_at_first_reduce(self, ops):
        if not victim and ops[0][0] == "reduce":
            victim.append(self._workers[0])
            os.kill(victim[0].pid, signal.SIGKILL)
        return shards(self, ops)

    monkeypatch.setattr(pool.Pool, "shards", kill_at_first_reduce)
    with pytest.raises(pool.PoolError) as raised:
        fit(model, records[:9], records[9:], TrainConfig(epochs=1, batch_size=4))
    assert f"worker process {victim[0].pid} was killed by signal 9" in str(raised.value)
    assert all(worker.returncode is not None for worker in pool._started)
    assert not workers_left_running()
    assert pool._shared is None


def test_a_closed_pool_runs_its_jobs_in_process(monkeypatch):
    monkeypatch.setattr(pool, "_forced_workers", 2)
    model, records = small_model(seed=9)
    trainer = Trainer(model, TrainConfig(batch_size=4, seed=1))
    trainer.pool = pool.get(0)
    batch = [(model.encode_record(r), np.asarray(r.scores)) for r in records[:4]]
    trainer.train_step(batch, epoch=1)
    pool.close()
    started = len(pool._started)
    with pytest.raises(pool.PoolError, match="workers were replaced during training"):
        trainer.train_step(batch, epoch=1)
    closed = pool.Pool(2)
    closed.close()
    other, _ = small_model(seed=10)
    id_lists = [other.encode_record(r) for r in records]
    assert closed.predict(other, id_lists).tobytes() == \
        pool.Pool(0).predict(other, id_lists).tobytes()
    assert len(pool._started) == started


def test_a_reply_cut_short_names_its_worker(monkeypatch):
    def cut_short(requests, replies, model, block):
        pool._recv(requests)
        os.write(replies.fileno(), b"\0\0")  # two bytes of a message's length
        os._exit(3)

    monkeypatch.setattr(pool, "serve", cut_short)
    monkeypatch.setattr(pool, "_forced_workers", 2)
    model, records = small_model(seed=11)
    with pytest.raises(pool.PoolError, match=r"worker process \d+ exited with code 3"):
        model.predict_records(records)
    assert not workers_left_running()


def pipes_of(pid):
    """The pipes process ``pid`` holds at descriptors 3 and up, one entry
    per descriptor; fds 0-2 may be shared stdio pipes."""
    pipes = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except FileNotFoundError:  # the listing's own descriptor, closed since
            continue
        if int(fd) >= 3 and link.startswith("pipe:"):
            pipes.append(link)
    return pipes


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_each_worker_holds_only_its_own_two_pipe_ends(monkeypatch):
    monkeypatch.setattr(pool, "_forced_workers", 2)
    # the parent's own pipes, such as a saved stdout, which every child inherits
    inherited = set(pipes_of(os.getpid()))
    seen = []
    for seed in (0, 1):  # another model: a new block and newly forked workers
        model, records = small_model(seed)
        model.predict_records(records)
        for worker in pool._shared._workers:
            own = [os.readlink(f"/proc/self/fd/{conn.fileno()}")
                   for conn in (worker.requests, worker.replies)]
            held = [pipe for pipe in pipes_of(worker.pid) if pipe not in inherited]
            assert sorted(held) == sorted(own), (held, own)
            seen += own
    assert len(set(seen)) == 8


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
    model = tiny_model(records)
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


@pytest.mark.parametrize("workers", [0, 2])
def test_a_batch_longer_than_batch_size_is_rejected_at_every_worker_count(monkeypatch, workers):
    monkeypatch.setattr(pool, "_forced_workers", workers)
    model, records = small_model(seed=7)
    trainer = Trainer(model, TrainConfig(batch_size=4, seed=1))
    trainer.pool = pool.get(0)
    batch = [(model.encode_record(r), np.asarray(r.scores)) for r in records[:6]]
    trainer.train_step(batch[:4], epoch=1)  # the pool's block now has batch_size slots
    with pytest.raises(ValueError, match="batch of 6 sequences, more than batch_size 4"):
        trainer.train_step(batch, epoch=1)
    assert trainer.global_step == 1
    trainer.train_step(batch[4:], epoch=1)  # the trainer still works
    assert trainer.global_step == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_in_process_jobs_open_no_descriptor_and_start_no_worker(monkeypatch):
    monkeypatch.setattr(pool, "_forced_workers", 0)
    model, records = small_model(seed=8)
    model.predict_records(records[:2])
    descriptors, started = len(os.listdir("/proc/self/fd")), len(pool._started)
    for _ in range(200):
        model.predict_records(records[:2])
    fit(model, records[:9], records[9:], TrainConfig(epochs=1, batch_size=4))
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert len(pool._started) == started
