"""Training loop with adversarial weight perturbation.

Each step runs a clean forward/backward pass; once the configured start
epoch is reached, the weights are pushed in the gradient-ascent direction,
each by at most ``adv_eps`` times its own size, a second forward/backward
accumulates the adversarial gradients, the weights are restored bit for
bit, and only then does the optimizer step on the summed gradients.

Every sequence of a pass writes its gradients into its own slot of a
``pool._Block``, and the rest of a step runs on shards of the block's
parameters (``Shard``): summing the slots, perturbing and restoring the
weights, AdamW. A ``pool.Pool`` runs both: on workers, each owns one shard,
with its AWP snapshot and AdamW moments; a pool with no workers runs the
same jobs in-process, on one shard that holds every parameter. While a
model trains, its parameters and gradients are views into the block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import pool
from .data import DataError, EssayRecord
from .encoder import dropout_draws
from .metrics import MetricsReport, mcrmse
from .optim import ADAM_BETAS, ADAM_EPS, adamw_update, clip_scale, squared_norm
from .tensor import NumericError, Tensor

if TYPE_CHECKING:  # model imports pool, which imports this module
    from .model import Model

LOSS_KINDS = ("smooth_l1", "mse")

AWP_EPS = 1e-12  # denominator guard in the ascent direction

# stream tags that keep the shuffle and dropout generators independent
_SHUFFLE_TAG = 0x51
_DROPOUT_TAG = 0xD0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 2e-4
    weight_decay: float = 0.0
    adv_lr: float = 1.0
    adv_eps: float = 0.01
    awp_start_epoch: int = 2
    adv_steps: int = 1
    seed: int = 0
    loss_kind: str = "smooth_l1"
    grad_clip_norm: float | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.adv_lr < 0 or self.adv_eps < 0:
            raise ValueError("adv_lr and adv_eps must be nonnegative")
        if self.awp_start_epoch < 1:
            raise ValueError(f"awp_start_epoch must be >= 1, got {self.awp_start_epoch}")
        if self.adv_steps < 1:
            raise ValueError(f"adv_steps must be >= 1, got {self.adv_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive when set")

    @property
    def awp_enabled(self) -> bool:
        # either knob at zero disables perturbation exactly
        return self.adv_lr > 0.0 and self.adv_eps > 0.0


# A snapshot maps parameter path -> a copy of its original (pre-perturbation)
# values. Perturbation writes the weights in place, wherever they live, and
# restore copies the snapshot back: bitwise equality by construction. On the
# pool, each worker keeps the snapshot of its own shard.
AwpSnapshot = dict


def perturbable_parameters(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Weight matrices and embedding tables only; 1-d params (biases,
    layer-norm gains) are never perturbed."""
    return {n: p for n, p in params.items() if p.data.ndim >= 2}


def perturb(
    params: dict[str, Tensor],
    adv_lr: float,
    adv_eps: float,
    snapshot: AwpSnapshot | None = None,
) -> AwpSnapshot:
    """Move each perturbable tensor one ascent step, then clamp each weight
    to a box around its snapshotted original.

    The step is adv_lr * grad * (||w|| / (||grad|| + e)). Each weight w0 of
    the original then stays within w0 ± adv_eps·|w0|, so the whole tensor
    stays within adv_eps·||w0|| of it. Tensors with zero gradient or zero
    norm are skipped. Returns the snapshot needed by ``restore``.
    """
    if snapshot is None:
        snapshot = {}
    for name, p in perturbable_parameters(params).items():
        g = p.grad
        if g is None:
            continue
        grad_norm = np.linalg.norm(g)
        weight_norm = np.linalg.norm(p.data)
        if grad_norm == 0.0 or weight_norm == 0.0:
            continue
        if name not in snapshot:
            snapshot[name] = p.data.copy()
        original = snapshot[name]
        moved = p.data + adv_lr * g * (weight_norm / (grad_norm + AWP_EPS))
        bound = adv_eps * np.abs(original)
        np.clip(moved, original - bound, original + bound, out=p.data)
    return snapshot


def restore(params: dict[str, Tensor], snapshot: AwpSnapshot) -> None:
    """Put every snapshotted parameter back, bit for bit."""
    for name, original in snapshot.items():
        np.copyto(params[name].data, original)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    valid_mcrmse: float
    per_target_rmse: tuple[float, ...]
    awp_active: bool
    seconds: float


@dataclass
class TrainReport:
    rows: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_valid_mcrmse: float = float("inf")

    CSV_HEADER = (
        "epoch,train_loss,valid_mcrmse,rmse_cohesion,rmse_syntax,rmse_vocabulary,"
        "rmse_phraseology,rmse_grammar,rmse_conventions,awp_active,seconds"
    )

    def to_csv(self, path: str) -> None:
        # the seconds column is wall-clock telemetry and is the one field
        # exempt from the byte-identical rerun guarantee
        lines = [self.CSV_HEADER]
        for r in self.rows:
            cells = [str(r.epoch), repr(r.train_loss), repr(r.valid_mcrmse)]
            cells += [repr(v) for v in r.per_target_rmse]
            cells += [str(int(r.awp_active)), repr(r.seconds)]
            lines.append(",".join(cells))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def evaluate_model(model: Model, records: list[EssayRecord]) -> MetricsReport:
    """MCRMSE of clipped (unrounded) predictions against record labels."""
    truth = np.array([r.scores for r in records], dtype=np.float64)
    preds = model.predict_records(records, clip=True)
    return mcrmse(truth, preds)


def dropout_stream(seed: int, step: int, pass_idx: int, offset: int) -> np.random.Generator:
    """The dropout generator of one (step, pass), moved past its first
    ``offset`` uniforms.

    Each (step, pass) has its own counter-keyed Philox stream, so the
    adversarial pass redraws its own masks and disabling AWP leaves the
    clean-pass streams untouched. A batch's sequences draw from it in
    turn; starting sequence i at the draws of the sequences before it
    gives each the masks it would get in turn, wherever it runs.
    """
    key = np.random.SeedSequence((seed, _DROPOUT_TAG, step, pass_idx))
    rng = np.random.Generator(np.random.Philox(key))
    # Philox makes four 64-bit words, one per uniform, per counter step
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    return rng


def sequence_gradients(
    model: Model, ids, targets, loss_kind: str, scale: float, rng: np.random.Generator
) -> tuple[float, dict]:
    """Training loss of one sequence, and the gradients of ``scale`` times it.

    Returns the unscaled loss and, per parameter name, the one contribution
    backward hands that parameter: a dense array, or ``(ids, rows)`` for an
    embedding table. Every parameter must get exactly one; a model with a
    parameter that gets none or two raises ``ValueError``. This is the only
    place a training loss is computed, on a pool of any size.
    """
    pred = model.forward(ids, train=True, rng=rng)
    diff = pred - Tensor(targets)
    if loss_kind == "smooth_l1":
        loss = diff.huber(1.0).mean()
    else:
        loss = (diff * diff).mean()
    names = {id(p): name for name, p in model.named_parameters().items()}
    pairs: list = []
    (loss * scale).backward(collect=pairs)
    grads = {}
    for leaf, grad in pairs:
        name = names[id(leaf)]
        if name in grads:  # a second one could not be added in the batch graph's order
            raise ValueError(f"parameter {name!r} got two gradients from one sequence")
        grads[name] = grad
    missing = [name for name in names.values() if name not in grads]
    if missing:
        raise ValueError(f"parameters {missing} got no gradient from one sequence")
    return loss.item(), grads


class Shard:
    """The training state of a run of neighbouring parameters in a block's
    flat order (see ``pool._Block``): one worker's share of a pool, or every
    parameter of a pool with no workers. The parameters' data and gradients
    are views into the block; the AWP snapshot and the AdamW moments, flat
    over the shard's span of the block, belong to the shard. Its dense
    parameters lie between its embedding tables, if it has any, so they are
    summed as one slice of the block, and the whole span is scaled and
    stepped as one. ``run`` applies a list of operations, so one message to
    a worker does a whole phase of a step.
    """

    def __init__(self, block, names: list[str], params: dict[str, Tensor]):
        self.block = block
        owned = set(names)
        self.params = {name: p for name, p in params.items() if name in owned}  # model order
        self.tables = [(k, name) for k, name in enumerate(block.tables) if name in owned]
        dense = [block.spans[name] for name in names if name not in block.tables]
        self.dense = (dense[0][0], dense[-1][1]) if dense else (0, 0)
        self.span = (block.spans[names[0]][0], block.spans[names[-1]][1]) if names else (0, 0)
        self.snapshot: AwpSnapshot = {}

    def run(self, ops: list):
        """Apply each (method name, *args) of ``ops`` in turn; returns the
        last one's result."""
        result = None
        for name, *args in ops:
            result = getattr(self, name)(*args)
        return result

    def start(self, lr: float, weight_decay: float) -> None:
        """Start a run: AdamW with zero moments, and no snapshot."""
        self.hyper = (lr, ADAM_BETAS, ADAM_EPS, weight_decay)
        self.t = 0
        self.m, self.v = (np.zeros(self.span[1] - self.span[0]) for _ in range(2))
        self.snapshot = {}

    def reduce(self, n_slots: int, fresh: bool) -> None:
        """Add the first ``n_slots`` slots' gradients into ``.grad``, last
        slot first, as ``Tensor.accumulate_grad`` adds them one by one. With
        ``fresh``, the first one replaces what ``.grad`` held: its dense part
        is copied and its table rows scatter-added into zeros; every other
        slot is added in place."""
        block, (a, b) = self.block, self.dense
        if fresh:
            for name, p in self.params.items():
                p.grad = block.grads[name]
        for slot in reversed(range(n_slots)):
            dense, counts, tables = block.slots[slot]
            first = fresh and slot == n_slots - 1
            if first:
                np.copyto(block.grad[a:b], dense[a:b])
            else:
                block.grad[a:b] += dense[a:b]
            for k, name in self.tables:
                start, stop = block.spans[name]
                if first:
                    block.grad[start:stop] = 0.0
                # by flat element index, numpy's fast path: the same
                # additions in the same order as np.add.at by row
                (ids, values), n = tables[k], counts[k]
                cols = values.shape[1]
                at = ids[:n, None] * cols + np.arange(cols)
                np.add.at(block.grad[start:stop], at.reshape(-1), values[:n].reshape(-1))

    def perturb(self, adv_lr: float, adv_eps: float) -> None:
        perturb(self.params, adv_lr, adv_eps, self.snapshot)

    def restore(self) -> None:
        restore(self.params, self.snapshot)
        self.snapshot = {}

    def norms(self) -> dict[str, float]:
        """The squared norm of each parameter's gradient."""
        return {name: squared_norm(p.grad) for name, p in self.params.items()}

    def scale(self, factor: float) -> None:
        a, b = self.span
        self.block.grad[a:b] *= factor

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> str | None:
        """One AdamW step of the whole span (see ``optim.adamw_update``);
        returns the name of the first parameter, in model order, that is no
        longer finite, or None."""
        self.t += 1
        (a, b), w = self.span, self.block.weights
        adamw_update(w[a:b], self.block.grad[a:b], self.m, self.v, self.t, *self.hyper)
        if np.isfinite(w[a:b]).all():
            return None
        return next(name for name, p in self.params.items() if not np.isfinite(p.data).all())


class Trainer:
    """Owns the rng streams, the pool and the AWP machinery for one run.

    The pool (``pool.Pool``) runs the passes and the shards: until ``fit``
    picks one by the job's size (``pool.get``), one with no workers, which
    runs them in-process. The block records the trainer that started its
    shards; a trainer whose shards another trainer restarted, or whose
    block was replaced, raises ``pool.PoolError`` at its next pass.
    """

    def __init__(self, model: Model, config: TrainConfig):
        self.model = model
        self.config = config
        self.params = model.named_parameters()
        self._shuffle_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, _SHUFFLE_TAG))
        )
        self.global_step = 0
        self.awp_snapshots_created = 0
        self.pool = pool.Pool(0)

    @property
    def opt(self) -> Shard:
        """The one shard of a pool with no workers: every parameter and its
        optimizer state. None on workers, which each hold their own."""
        return self._attach().shard

    def _awp_active(self, epoch: int) -> bool:
        return self.config.awp_enabled and epoch >= self.config.awp_start_epoch

    def _attach(self):
        """The block for a pass, with ``batch_size`` slots and the model's
        parameters as views into it; in the first step, the first one starts
        the shards."""
        cfg = self.config
        block = self.pool.bind(self.model, cfg.batch_size)
        if block.trainer is not self:
            if self.global_step > 1:
                raise pool.PoolError("the pool's workers were replaced during training, "
                                     "and with them the optimizer state")
            self.pool.shards([("start", cfg.learning_rate, cfg.weight_decay)])
            block.trainer = self
        return block

    def _backward_pass(
        self, batch: list[tuple[list[int], np.ndarray]], pass_idx: int, what: str
    ) -> float:
        """Write one pass's gradients of the batch-mean loss into the
        block's slots, sequence i's into slot i; returns the loss.

        Each sequence runs ``sequence_gradients`` on its own, on the pool,
        with the dropout draws the single batch graph would give it. The
        losses are summed first to last here, and the shards add the
        gradients last to first, as that graph's backward adds them, so
        ``.grad`` gets the same bits on any number of workers.
        """
        cfg = self.config
        scale = 1.0 / float(len(batch))
        spec = self.model.spec
        offsets = np.cumsum([0] + [dropout_draws(spec, len(ids)) for ids, _ in batch[:-1]])
        stream = (cfg.seed, self.global_step, pass_idx)
        block = self._attach()
        losses = self.pool.gradients(self.model, batch, cfg.loss_kind, scale, stream, offsets)
        total = losses[0]
        for loss in losses[1:]:
            total = total + loss
        value = total * scale
        if not np.isfinite(value):
            raise NumericError(f"non-finite {what}")
        for name, p in self.params.items():  # the gradients the shards will sum, as views
            p.grad = block.grads[name]
        return value

    def train_step(self, batch: list[tuple[list[int], np.ndarray]], epoch: int) -> float:
        """One optimization step over a prepared batch; returns the clean loss.

        Each phase after a pass is one message to every shard: sum the
        pass's slots, then perturb, or restore and step.
        """
        if not batch:
            raise ValueError("train_step got an empty batch")
        if len(batch) > self.config.batch_size:
            raise ValueError(f"train_step got a batch of {len(batch)} sequences, more than "
                             f"batch_size {self.config.batch_size}")
        if epoch < 1:
            raise ValueError(f"epochs are counted from 1, got {epoch}")
        cfg = self.config
        self.global_step += 1
        for p in self.params.values():
            p.grad = None

        try:
            loss_value = self._backward_pass(batch, 0, "training loss")
        except NumericError as exc:
            raise NumericError(self._diagnose(str(exc), epoch)) from None
        ops = [("reduce", len(batch), True)]

        if self._awp_active(epoch):
            try:
                for adv_pass in range(cfg.adv_steps):
                    self.pool.shards(ops + [("perturb", cfg.adv_lr, cfg.adv_eps)])
                    self._backward_pass(batch, 1 + adv_pass, "adversarial loss")
                    ops = [("reduce", len(batch), False)]
            except NumericError as exc:
                self.pool.shards([("restore",)])
                raise NumericError(self._diagnose(str(exc), epoch)) from None
            ops.append(("restore",))
            self.awp_snapshots_created += 1

        if cfg.grad_clip_norm is not None:
            squares = {}
            for shard in self.pool.shards(ops + [("norms",)]):
                squares.update(shard)
            _, factor = clip_scale([squares[name] for name in self.params], cfg.grad_clip_norm)
            ops = [] if factor is None else [("scale", factor)]
        failed = set(self.pool.shards(ops + [("step",)])) - {None}
        if failed:
            name = next(name for name in self.params if name in failed)
            raise NumericError(f"parameter {name!r} became non-finite after the optimizer "
                               f"step at epoch {epoch}, step {self.global_step}")
        return loss_value

    def _diagnose(self, message: str, epoch: int) -> str:
        context = f"{message} (epoch {epoch}, step {self.global_step}"
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                return f"{context}, non-finite grad in {name!r})"
            if not np.isfinite(p.data).all():
                return f"{context}, non-finite values in {name!r})"
        return context + ")"

    def run_epoch(self, examples: list[tuple[list[int], np.ndarray]], epoch: int) -> float:
        order = self._shuffle_rng.permutation(len(examples))
        losses = []
        bs = self.config.batch_size
        for start in range(0, len(order), bs):
            batch = [examples[i] for i in order[start : start + bs]]
            losses.append(self.train_step(batch, epoch))
        return float(np.mean(losses))


def _prepare(model: Model, records: list[EssayRecord]) -> list[tuple[list[int], np.ndarray]]:
    return [
        (model.encode_record(r), np.asarray(r.scores, dtype=np.float64)) for r in records
    ]


def fit(
    model: Model,
    train_records: list[EssayRecord],
    valid_records: list[EssayRecord],
    config: TrainConfig,
    checkpoint_path: str | None = None,
) -> TrainReport:
    """Train, evaluating on the validation set every epoch.

    The best-MCRMSE parameters are restored into the model, as private
    copies with no gradients, when training finishes (and written to
    ``checkpoint_path`` if given). Until then the parameters are views into
    the pool's block, as they stay if training fails. Disjoint, nonempty
    train and validation sets are required.
    """
    if not train_records or not valid_records:
        raise ValueError("fit needs nonempty train and validation sets")
    overlap = sorted({r.text_id for r in train_records} & {r.text_id for r in valid_records})
    if overlap:
        raise DataError(
            f"train/validation sets overlap in {len(overlap)} text_ids, e.g. {overlap[:5]}"
        )
    for r in train_records + valid_records:
        if not r.labeled:
            raise ValueError(f"record {r.text_id!r} has no scores; fit needs labels")

    trainer = Trainer(model, config)
    examples = _prepare(model, train_records)
    epochs = range(1, config.epochs + 1)
    passes = sum(1 + config.adv_steps * trainer._awp_active(epoch) for epoch in epochs)
    forward_s = pool.forward_seconds(model.spec, [len(ids) for ids, _ in examples])
    trainer.pool = pool.get(passes * pool.TRAIN_PASS_FORWARDS * forward_s)
    report = TrainReport()
    best_snapshot = None

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        train_loss = trainer.run_epoch(examples, epoch)
        valid = evaluate_model(model, valid_records)
        seconds = time.perf_counter() - started
        report.rows.append(
            EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                valid_mcrmse=valid.mcrmse,
                per_target_rmse=valid.per_target_rmse,
                awp_active=trainer._awp_active(epoch),
                seconds=seconds,
            )
        )
        if valid.mcrmse < report.best_valid_mcrmse:
            report.best_valid_mcrmse = valid.mcrmse
            report.best_epoch = epoch
            best_snapshot = model.parameter_snapshot()

    if best_snapshot is not None:
        model.load_snapshot(best_snapshot)
    if checkpoint_path is not None:
        from .checkpoint import save_checkpoint

        save_checkpoint(checkpoint_path, model)
    return report


def train_valid_split(
    records: list[EssayRecord], valid_fraction: float, seed: int
) -> tuple[list[EssayRecord], list[EssayRecord]]:
    """Seeded shuffle split; at least one record lands on each side."""
    if len(records) < 2:
        raise ValueError("need at least two records to split")
    if not 0.0 < valid_fraction < 1.0:
        raise ValueError(f"valid_fraction must be in (0, 1), got {valid_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B17)))
    order = rng.permutation(len(records))
    n_valid = min(max(int(round(valid_fraction * len(records))), 1), len(records) - 1)
    valid_idx = set(order[:n_valid].tolist())
    train = [r for i, r in enumerate(records) if i not in valid_idx]
    valid = [r for i, r in enumerate(records) if i in valid_idx]
    return train, valid
