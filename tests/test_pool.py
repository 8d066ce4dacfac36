"""The worker pool: same bits at every worker count, errors, lifetime."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rubric import pool
from rubric.cli import main
from rubric.data import build_vocab, synth_corpus, write_csv
from rubric.encoder import POOLING_MODES, ModelSpec, dropout_draws
from rubric.model import Model
from rubric.tensor import NumericError
from rubric.training import TrainConfig, Trainer, dropout_stream, fit

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
    assert all(proc.poll() is not None for proc in pool._started)
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
