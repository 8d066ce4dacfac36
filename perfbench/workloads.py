"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup``, and ``op`` runs
one closed-loop operation through the program's public surface
(``rubric.cli.main`` in-process, or the library functions). ``check``
returns the list of problems with that operation's outputs; an empty list
means it is correct. Functions are looked up on their modules at call
time, so the traced run sees the patched names.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from rubric import checkpoint, cli, crossval, data, training
from rubric.config import RunConfig
from rubric.encoder import ModelSpec

MAX_SEQ_LEN = ModelSpec(vocab_size=2).max_seq_len
DEFAULTS = RunConfig()  # what ``rubric train`` runs with when nothing is set


@dataclass
class OpResult:
    items: int  # work items completed: sequences, essays or fold plans
    seconds: float  # the timed call the rate is taken over
    quality: float  # MCRMSE the operation reports; deterministic per seed
    outputs: object = None  # what check() needs


def _cli(argv) -> int:
    # the CLI's progress lines would bury the benchmark's own output
    with redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _token_record(texts, vocab_size: int, essays: int) -> dict:
    lengths = np.array([len(data.tokenize(t)) for t in texts])
    kept = np.minimum(lengths, MAX_SEQ_LEN)
    p10, p50, p90 = np.percentile(kept, [10, 50, 90])
    return {
        "essays": essays,
        "tokens_p10": float(p10),
        "tokens_p50": float(p50),
        "tokens_p90": float(p90),
        "tokens_max": int(kept.max()),
        "truncated_frac": float(np.mean(lengths > MAX_SEQ_LEN)),
        "vocab_size": vocab_size,
    }


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    rate_name = ""  # the end-to-end rate as the workload's users call it
    quality_name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def fresh(self, *parts) -> str:
        p = self.path(*parts)
        shutil.rmtree(p, ignore_errors=True)
        return p


class Train(Workload):
    """``rubric train`` on a 300-essay corpus: one clean epoch, one AWP epoch."""

    name = "train"
    rate_name = "train_seq_per_s"
    quality_name = "valid_mcrmse"
    ESSAYS = 300
    EPOCHS = 2  # awp_start_epoch is 2 by default, so epoch 1 is clean, 2 is AWP

    def argv(self, csv_path, out):
        return ["train", "--data", csv_path, "--out", out, "--seed", self.seed,
                "--set", f"train.epochs={self.EPOCHS}"]

    def setup(self):
        records = data.synth_corpus(self.ESSAYS, self.seed)
        data.write_csv(records, self.path("corpus.csv"))
        data.write_csv(records[:24], self.path("warm.csv"))
        if _cli(self.argv(self.path("warm.csv"), self.fresh("warm"))) != 0:
            raise RuntimeError("warm-up training failed")
        self.records = records
        # the split rubric train makes, so items and steps are known up front
        self.train_split, _ = training.train_valid_split(
            records, DEFAULTS.valid_fraction, self.seed)
        self.n_train = len(self.train_split)

    def traffic(self):
        batch_size = DEFAULTS.train.batch_size
        steps = math.ceil(self.n_train / batch_size)
        clean_epochs = min(self.EPOCHS, DEFAULTS.train.awp_start_epoch - 1)
        vocab = data.build_vocab(self.train_split, min_count=DEFAULTS.min_count)
        record = _token_record([r.full_text for r in self.records], vocab.size,
                               len(self.records))
        record.update(n_train=self.n_train, batch_size=batch_size,
                      epochs=self.EPOCHS, clean_steps=clean_epochs * steps,
                      awp_steps=(self.EPOCHS - clean_epochs) * steps)
        return record

    def op(self):
        out = self.fresh("run")
        t0 = perf_counter()
        rc = _cli(self.argv(self.path("corpus.csv"), out))
        seconds = perf_counter() - t0
        quality = _read_json(os.path.join(out, "metrics.json"))["valid_mcrmse"] if rc == 0 \
            else float("nan")
        return OpResult(self.EPOCHS * self.n_train, seconds, quality, (rc, out))

    def check(self, result):
        rc, out = result.outputs
        if rc != 0:
            return [f"rubric train exited {rc}"]
        problems = []
        with open(os.path.join(out, "report.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["awp_active"]) for r in rows] != [0, 1]:
            problems.append(f"expected one clean and one AWP epoch, got {rows}")
        if not all(math.isfinite(float(r["train_loss"])) for r in rows):
            problems.append("non-finite train_loss in report.csv")
        metrics = _read_json(os.path.join(out, "metrics.json"))
        if not math.isfinite(metrics["valid_mcrmse"]):
            problems.append("non-finite valid_mcrmse")
        if metrics["n_train"] != self.n_train:
            problems.append(f"n_train {metrics['n_train']} != {self.n_train}")
        first = checkpoint.load_checkpoint(os.path.join(out, "checkpoint.bin"))
        again = os.path.join(out, "resaved.bin")
        checkpoint.save_checkpoint(again, first)
        second = checkpoint.load_checkpoint(again)
        a, b = first.named_parameters(), second.named_parameters()
        if a.keys() != b.keys() or any(a[k].data.tobytes() != b[k].data.tobytes() for k in a):
            problems.append("checkpoint parameters changed on save and reload")
        return problems


class PredictMixed(Workload):
    """``rubric predict`` then ``rubric score`` on essays of mixed length."""

    name = "predict-mixed"
    rate_name = "predict_essays_per_s"
    quality_name = "score_mcrmse"
    SENTENCES = range(2, 29)  # SynthSpec(min_sentences=2, max_sentences=28), stratified
    PER_COUNT = 11  # essays per sentence count: 297 essays
    CHECKPOINT_ESSAYS = 64
    SAMPLE = 6  # essays re-predicted one at a time, spread over the lengths
    REL_TOL = 1e-12

    def setup(self):
        ckpt_records = data.synth_corpus(self.CHECKPOINT_ESSAYS, self.seed)
        data.write_csv(ckpt_records, self.path("ckpt.csv"))
        ckpt_out = self.fresh("ckpt")
        # trained in a child process, so its autodiff graphs do not count
        # towards this process's peak memory, which is predict's
        argv = ["train", "--data", self.path("ckpt.csv"), "--out", ckpt_out,
                "--seed", self.seed, "--set", "train.epochs=1"]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        subprocess.run([sys.executable, "-m", "rubric.cli", *map(str, argv)], check=True,
                       env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
                       timeout=600)
        self.checkpoint = os.path.join(ckpt_out, "checkpoint.bin")
        # equal numbers of essays per sentence count, so the total work varies
        # little with the seed (drawn counts moved essays/s by ~10% between seeds)
        records = [
            data.EssayRecord(f"mixed-{n:02d}-{i:02d}", r.full_text, r.scores)
            for n in self.SENTENCES
            for i, r in enumerate(data.synth_corpus(
                self.PER_COUNT, 1000 * self.seed + n,
                spec=data.SynthSpec(min_sentences=n, max_sentences=n)))
        ]
        data.write_csv(records, self.path("essays.csv"))
        data.write_csv(records[::19], self.path("warm.csv"))  # 16, over all lengths
        self.records = records
        self.predict(self.path("warm.csv"), self.fresh("warm"))
        self.model = checkpoint.load_checkpoint(self.checkpoint)
        lengths = [len(self.model.encode_record(r)) for r in records]
        order = np.argsort(lengths, kind="stable")
        picks = np.linspace(0, len(order) - 1, self.SAMPLE).round().astype(int)
        self.sample = sorted(int(order[p]) for p in picks)

    def traffic(self):
        record = _token_record([r.full_text for r in self.records],
                               self.model.vocab.size, len(self.records))
        record.update(checkpoint_essays=self.CHECKPOINT_ESSAYS, clean_steps=0, awp_steps=0)
        return record

    def predict(self, essays, out):
        t0 = perf_counter()
        rc = _cli(["predict", "--checkpoint", self.checkpoint, "--input", essays, "--out", out])
        seconds = perf_counter() - t0
        score_rc = _cli(["score", essays, os.path.join(out, "predictions.csv"),
                         "--out", os.path.join(out, "score")])
        if rc != 0 or score_rc != 0:
            raise RuntimeError(f"predict exited {rc}, score exited {score_rc}")
        return seconds, _read_json(os.path.join(out, "score", "metrics.json"))["mcrmse"]

    def op(self):
        out = self.fresh("run")
        seconds, quality = self.predict(self.path("essays.csv"), out)
        return OpResult(len(self.records), seconds, quality, out)

    def check(self, result):
        with open(os.path.join(result.outputs, "predictions.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["text_id", *data.TARGETS]:
            return [f"bad prediction header {rows[0]}"]
        ids = [r[0] for r in rows[1:]]
        if ids != [r.text_id for r in self.records]:
            return ["predictions do not have exactly one row per input text_id, in order"]
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        problems = []
        if not (np.isfinite(values).all() and values.min() >= 1.0 and values.max() <= 5.0):
            problems.append("a prediction is outside [1, 5]")
        for i in self.sample:
            single = np.clip(self.model.predict_record(self.records[i]), 1.0, 5.0)
            rel = np.max(np.abs(single - values[i]) / np.abs(values[i]))
            if not rel <= self.REL_TOL:
                problems.append(f"{ids[i]}: one-at-a-time prediction differs by {rel:.3g}")
        return problems


class CvPlan(Workload):
    """Read and index a 2000-essay CSV, then plan stratified folds."""

    name = "cv-plan"
    rate_name = "plans_per_s"
    quality_name = "baseline_cv_mcrmse"
    ESSAYS = 2000
    K = 5
    SPLIT_SEEDS = (0, 1, 2, 3)
    reference = None  # the first checked operation's plans, kept over set-ups

    def setup(self):
        records = data.synth_corpus(self.ESSAYS, self.seed)
        data.write_csv(records, self.path("corpus.csv"))
        warm = records[:200]
        crossval.mean_baseline_cv(warm, crossval.stratified_kfold(warm, self.K, 0))
        self.records = records

    def traffic(self):
        record = _token_record([r.full_text for r in self.records],
                               data.build_vocab(self.records).size, len(self.records))
        record.update(k=self.K, split_seeds=list(self.SPLIT_SEEDS), clean_steps=0,
                      awp_steps=0)
        return record

    def op(self):
        t0 = perf_counter()
        records = data.load_csv(self.path("corpus.csv"))
        vocab = data.build_vocab(records)
        plans, scores = [], []
        for s in self.SPLIT_SEEDS:
            plan = crossval.stratified_kfold(records, k=self.K, seed=s)
            scores.append(crossval.mean_baseline_cv(records, plan).mcrmse)
            plans.append(plan)
        seconds = perf_counter() - t0
        return OpResult(len(plans), seconds, float(np.median(scores)),
                        (records, vocab, plans))

    def check(self, result):
        records, vocab, plans = result.outputs
        ids = [r.text_id for r in records]
        problems = []
        if len(records) != self.ESSAYS or len(set(ids)) != len(ids):
            problems.append(f"read {len(records)} records, {len(set(ids))} distinct ids")
        if vocab.size <= 2:
            problems.append("empty vocabulary")
        for plan in plans:
            if sorted(plan.assignment) != sorted(ids):
                problems.append("a plan does not assign every record exactly once")
                continue
            sizes = np.bincount(list(plan.assignment.values()), minlength=self.K)
            if len(sizes) != self.K or sizes.max() - sizes.min() > 1 \
                    or list(sizes) != list(plan.fold_sizes):
                problems.append(f"fold sizes {list(sizes)} are unbalanced or misreported")
        assignments = [p.assignment for p in plans]
        if self.reference is None:
            self.reference = assignments
        elif assignments != self.reference:
            problems.append("the same split seed gave a different plan on a rerun")
        return problems


WORKLOADS = {w.name: w for w in (Train, PredictMixed, CvPlan)}
