"""External span recorder for the traced benchmark run.

The program is traced from outside, without editing it: each public
function of a layer is replaced, at every name its callers look it up by,
with a wrapper that records one span (name, parent span, start, end, tag)
in memory. ``model.py`` imports ``encode`` by name and ``encoder.py``
imports ``embedding`` by name, so a function is patched in every ``rubric``
module that holds it, not only where it is defined. ``Tensor.__matmul__``
delegates to ``Tensor.matmul``, so only ``matmul`` is wrapped; likewise
``__truediv__`` (a ``mul``) and ``__rsub__`` (a ``sub``).

Self time is a span's duration minus the durations of its direct children.
One thread runs everything, so child spans never overlap each other.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# the named op metrics; other ops (sub, neg, sum, mean, tanh) only count
# towards tensor.ops
TENSOR_OPS = (
    "matmul", "add", "mul", "gelu", "softmax", "layer_norm", "dropout",
    "transpose", "reshape", "embedding", "concat", "huber",
)

ROOT = "bench.op"


def _encode_mask(args, kwargs):
    mask = args[2] if len(args) > 2 else kwargs["attention_mask"]
    mask = np.asarray(mask, dtype=bool)
    return (int(mask.size), int(mask.sum()))


def _step_kind(args, kwargs):
    trainer = args[0]
    epoch = args[2] if len(args) > 2 else kwargs["epoch"]
    cfg = trainer.config
    return "awp" if cfg.awp_enabled and epoch >= cfg.awp_start_epoch else "clean"


def _path(args, kwargs):
    return args[0] if args else kwargs["path"]


def layer_targets():
    """(span name, owner, attribute, tag function) for every traced boundary.

    A class owner patches the method on the class; a module owner patches
    the function in every ``rubric`` module that imported it by name.
    """
    from rubric import (
        checkpoint, cli, crossval, data, encoder, heads, metrics, model, optim,
        tensor, training,
    )

    T = tensor.Tensor
    return [
        ("tensor.add", T, "__add__", None),
        ("tensor.sub", T, "__sub__", None),
        ("tensor.mul", T, "__mul__", None),
        ("tensor.neg", T, "__neg__", None),
        ("tensor.matmul", T, "matmul", None),
        ("tensor.reshape", T, "reshape", None),
        ("tensor.transpose", T, "transpose", None),
        ("tensor.sum", T, "sum", None),
        ("tensor.mean", T, "mean", None),
        ("tensor.tanh", T, "tanh", None),
        ("tensor.gelu", T, "gelu", None),
        ("tensor.huber", T, "huber", None),
        ("tensor.softmax", T, "softmax", None),
        ("tensor.backward", T, "backward", None),
        ("tensor.concat", tensor, "concat", None),
        ("tensor.embedding", tensor, "embedding", None),
        ("tensor.layer_norm", tensor, "layer_norm", None),
        ("tensor.dropout", tensor, "dropout", None),
        ("encoder.encode", encoder, "encode", _encode_mask),
        ("heads.predict_scores", heads, "predict_scores", None),
        ("model.forward", model.Model, "forward", None),
        ("model.predict_records", model.Model, "predict_records", None),
        ("training.train_step", training.Trainer, "train_step", _step_kind),
        ("training.perturb", training, "perturb", None),
        ("training.restore", training, "restore", None),
        ("training.evaluate", training, "evaluate_model", None),
        ("training.fit", training, "fit", None),
        ("optim.step", optim.AdamW, "step", None),
        ("optim.zero_grad", optim.AdamW, "zero_grad", None),
        ("optim.clip_grad_norm", optim, "clip_grad_norm", None),
        ("checkpoint.save", checkpoint, "save_checkpoint", _path),
        ("checkpoint.load", checkpoint, "load_checkpoint", _path),
        ("data.tokenize", data, "tokenize", None),
        ("data.load_csv", data, "load_csv", None),
        ("data.build_vocab", data, "build_vocab", None),
        ("data.write_predictions", data, "write_predictions", None),
        ("crossval.stratified_kfold", crossval, "stratified_kfold", None),
        ("metrics.mcrmse", metrics, "mcrmse", None),
        ("cli.main", cli, "main", None),
    ]


def _sites(owner, attr):
    """Every (namespace, name) that currently holds ``owner.attr``."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return original, [(owner, a) for a, v in vars(owner).items() if v is original]
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "rubric" or n.startswith("rubric."))]
    return original, [(m, a) for m in modules for a, v in vars(m).items() if v is original]


class Recorder:
    """Spans kept in memory as [name, parent index, start, end, tag] lists."""

    def __init__(self, targets):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches = []
        for name, owner, attr, tag in targets:
            original, sites = _sites(owner, attr)
            wrapper = self._wrap(name, original, tag)
            self._patches += [(ns, a, original, wrapper) for ns, a in sites]

    def _wrap(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def tracing(self):
        """Patch every target and record one root span around the block."""
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        root = [ROOT, -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root[2] = time.perf_counter()
        try:
            yield
        finally:
            root[3] = time.perf_counter()
            self._stack.pop()
            for ns, attr, original, _ in self._patches:
                setattr(ns, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,start_s,end_s,tag\n")
            for i, (name, parent, start, end, tag) in enumerate(self.spans):
                tag_text = "" if tag is None else str(tag).replace(",", ";")
                fh.write(f"{i},{name},{parent},{start - t0:.9f},{end - t0:.9f},{tag_text}\n")


def self_times(spans):
    """Per span name: [total self seconds, calls]."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, _, start, end, _) in enumerate(spans):
        totals[name][0] += end - start - child[i]
        totals[name][1] += 1
    return totals


def _p50_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans, untraced_walls) -> dict[str, float]:
    """Per-layer metrics, each per workload operation (one root span).

    ``_s`` values are self seconds; ``_calls`` and other counts are exact
    counts; ``training.*_step_ms_p50`` are inclusive step durations.
    """
    totals = self_times(spans)
    roots = [s for s in spans if s[0] == ROOT]
    n = len(roots)
    traced_walls = [end - start for _, _, start, end, _ in roots]

    def per_op(x):
        return x / n

    def s(name):
        return per_op(totals[name][0]) if name in totals else 0.0

    def calls(name):
        return per_op(totals[name][1]) if name in totals else 0.0

    m: dict[str, float] = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}_s"] = s(f"tensor.{op}")
        m[f"tensor.{op}_calls"] = calls(f"tensor.{op}")
    m["tensor.ops"] = per_op(sum(
        c for name, (_, c) in totals.items()
        if name.startswith("tensor.") and name != "tensor.backward"
    ))
    m["tensor.backward_s"] = s("tensor.backward")
    m["tensor.backward_calls"] = calls("tensor.backward")

    masks = [sp[4] for sp in spans if sp[0] == "encoder.encode"]
    positions = sum(p for p, _ in masks)
    m["encoder.encode_s"] = s("encoder.encode")
    m["encoder.encode_calls"] = calls("encoder.encode")
    m["encoder.positions"] = per_op(positions)
    # 0.0 when no encoder work ran; 1.0 means no padding was processed
    m["encoder.real_token_frac"] = sum(r for _, r in masks) / positions if positions else 0.0

    m["heads.predict_scores_s"] = s("heads.predict_scores")
    m["heads.predict_scores_calls"] = calls("heads.predict_scores")
    m["model.forward_calls"] = calls("model.forward")
    m["model.forward_s"] = s("model.forward")
    m["model.predict_records_s"] = s("model.predict_records")

    steps = {"clean": [], "awp": []}
    for name, _, start, end, tag in spans:
        if name == "training.train_step":
            steps[tag].append(end - start)
    m["training.clean_step_ms_p50"] = _p50_ms(steps["clean"])
    m["training.awp_step_ms_p50"] = _p50_ms(steps["awp"])
    m["training.steps"] = per_op(len(steps["clean"]) + len(steps["awp"]))
    m["training.awp_steps"] = per_op(len(steps["awp"]))
    m["training.train_step_s"] = s("training.train_step")
    m["training.perturb_s"] = s("training.perturb")
    m["training.restore_s"] = s("training.restore")
    m["training.evaluate_s"] = s("training.evaluate")
    m["training.fit_s"] = s("training.fit")

    m["optim.step_s"] = s("optim.step")
    m["optim.zero_grad_s"] = s("optim.zero_grad")

    m["checkpoint.save_s"] = s("checkpoint.save")
    m["checkpoint.load_s"] = s("checkpoint.load")
    files = [sp[4] for sp in spans if sp[0] in ("checkpoint.save", "checkpoint.load")]
    m["checkpoint.bytes"] = per_op(sum(os.path.getsize(f) for f in files if os.path.exists(f)))

    m["data.load_csv_s"] = s("data.load_csv")
    m["data.tokenize_s"] = s("data.tokenize")
    m["data.tokenize_calls"] = calls("data.tokenize")
    m["data.build_vocab_s"] = s("data.build_vocab")
    m["data.write_predictions_s"] = s("data.write_predictions")

    m["crossval.stratified_kfold_s"] = s("crossval.stratified_kfold")
    m["crossval.stratified_kfold_calls"] = calls("crossval.stratified_kfold")
    m["metrics.mcrmse_s"] = s("metrics.mcrmse")
    m["cli.main_s"] = s("cli.main")

    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    m["trace.overhead_frac"] = traced / untraced - 1.0
    # time inside an operation that no layer span covers (benchmark glue,
    # and library calls the benchmark makes directly, like mean_baseline_cv)
    m["trace.unattributed_frac"] = totals[ROOT][0] / sum(traced_walls)
    return m


def top_self_times(spans, limit: int | None = 12):
    """The largest per-name self times, per operation, largest first."""
    totals = self_times(spans)
    n = max(sum(1 for s in spans if s[0] == ROOT), 1)
    rows = sorted(((t / n, c / n, name) for name, (t, c) in totals.items()), reverse=True)
    return rows[:limit]
