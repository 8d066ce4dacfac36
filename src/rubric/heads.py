"""Attention-pooling regression heads, one per scored trait.

A head scores every token with a learned linear projection, softmaxes the
scores over unmasked positions, and reduces the sequence to one vector as
a convex combination of token states. In ``six_metric_attention`` mode
each of the six targets owns a fully independent head, so gradients for
target j never touch head k. ``single_attention`` shares one pooling head
whose output feeds six projections, and ``mean`` replaces learned pooling
with a uniform convex combination over unmasked tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SCORE_MAX, SCORE_MIN, TARGETS, nearest_half
from .encoder import MASK_NEG, ModelSpec
from .tensor import Tensor, concat

OUT_BIAS_INIT = 3.0  # midpoint of the score range; speeds up regression


@dataclass
class AttentionPoolHead:
    """Token scorer plus output projection.

    ``score_w`` maps each token state to one importance score; it has no
    bias, because the softmax over tokens ignores a constant shift.
    ``out_w``/``out_b`` map the pooled vector to one or more predictions.
    The scorer is absent in mean-pooling mode.
    """

    score_w: Tensor | None  # (d_model, 1)
    out_w: Tensor  # (d_model, n_out)
    out_b: Tensor  # (n_out,)


@dataclass
class HeadBank:
    """The full set of regression heads for the six targets.

    Six heads (six_metric_attention): target j pools with heads[j], whose
    out_w is (d_model, 1). One head (single_attention, or mean with no
    scorer): its out_w is (d_model, 6) and feeds every target.
    """

    heads: list[AttentionPoolHead]

    def named_parameters(self) -> dict[str, Tensor]:
        names = TARGETS if len(self.heads) > 1 else ("shared",)
        params: dict[str, Tensor] = {}
        for name, head in zip(names, self.heads):
            if head.score_w is not None:
                params[f"head.{name}.score_w"] = head.score_w
            params[f"head.{name}.out_w"] = head.out_w
            params[f"head.{name}.out_b"] = head.out_b
        return params


def init_head_bank(spec: ModelSpec, seed) -> HeadBank:
    """Build heads for the spec's pooling mode; deterministic per seed."""
    rng = np.random.default_rng(seed)
    d = spec.d_model
    per_target = spec.pooling_mode == "six_metric_attention"
    scored = spec.pooling_mode != "mean"
    n_out = 1 if per_target else len(TARGETS)
    heads = []
    for _ in range(len(TARGETS) if per_target else 1):
        # draw order per head: scorer weights, then output weights
        score_w = None
        if scored:
            score_w = Tensor(rng.normal(0.0, 0.02, size=(d, 1)), requires_grad=True)
        out_w = Tensor(rng.normal(0.0, 0.02, size=(d, n_out)), requires_grad=True)
        out_b = Tensor(np.full(n_out, OUT_BIAS_INIT), requires_grad=True)
        heads.append(AttentionPoolHead(score_w, out_w, out_b))
    return HeadBank(heads=heads)


def _weights(score_w: Tensor | None, hidden: Tensor, mask) -> Tensor:
    """Pooling weights over tokens, one column per scorer: shape (seq_len, H).

    Each column is a softmax of ``hidden @ score_w`` over the unmasked
    positions. Without a scorer the single column is the uniform masked
    mean, which is exactly what a zero scorer's softmax gives.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("pooling needs at least one unmasked position")
    if score_w is None:
        return Tensor(np.where(mask, 1.0 / mask.sum(), 0.0).reshape(-1, 1))
    scores = hidden @ score_w + Tensor(np.where(mask, 0.0, MASK_NEG).reshape(-1, 1))
    return scores.softmax(axis=0)


def _pool(alpha: Tensor, hidden: Tensor) -> Tensor:
    """Weighted sums of token states, one row per weight column: (H, d_model)."""
    return alpha.transpose((1, 0)) @ hidden


def pooling_weights(head: AttentionPoolHead, hidden: Tensor, mask) -> Tensor:
    """Softmax pooling weights, shape (seq_len, 1); zero on masked positions."""
    return _weights(head.score_w, hidden, mask)


def attention_pool(head: AttentionPoolHead, hidden: Tensor, mask) -> Tensor:
    """Convex combination of token states, shape (1, d_model)."""
    return _pool(pooling_weights(head, hidden, mask), hidden)


def masked_mean_pool(hidden: Tensor, mask) -> Tensor:
    """Uniform convex combination over unmasked tokens, shape (1, d_model).

    Uses the same weight kernel and pooling matmul as attention pooling, so
    a zero-scorer attention pool reproduces it bit for bit.
    """
    return _pool(_weights(None, hidden, mask), hidden)


def predict_scores(bank: HeadBank, hidden: Tensor, mask) -> Tensor:
    """Raw regression outputs for all six targets, shape (6,).

    The heads' scorers are stacked into one (d_model, H) matrix, so one
    masked softmax and one matmul pool all H heads at once. Row j of the
    pooled (H, d_model) matrix meets output column j; with one head its
    single row broadcasts over all six output columns.
    """
    heads = bank.heads
    score_w = None
    if heads[0].score_w is not None:
        score_w = concat([h.score_w for h in heads], axis=1)
    pooled = _pool(_weights(score_w, hidden, mask), hidden)
    out_w = concat([h.out_w for h in heads], axis=1)
    out_b = concat([h.out_b for h in heads], axis=0)
    return (pooled * out_w.transpose((1, 0))).sum(axis=1) + out_b


def clamp_to_score_lattice(raw, round_to_lattice: bool = False) -> np.ndarray:
    """Clip predictions to [1, 5]; optionally snap to the 0.5 lattice.

    Lattice rounding is nearest-half (round-half-even at exact ties).
    Metric evaluation uses clipped-but-unrounded values by default.
    """
    arr = np.clip(np.asarray(raw, dtype=np.float64), SCORE_MIN, SCORE_MAX)
    if round_to_lattice:
        arr = np.clip(nearest_half(arr), SCORE_MIN, SCORE_MAX)
    return arr
