"""Independent oracles and random cases shared by the test suite.

The oracles deliberately avoid the library's own computation paths: the
gradient checker uses central finite differences on plain arrays, and the
metric oracle is a double loop.
"""

from __future__ import annotations

import math

import numpy as np

from rubric.encoder import MASK_NEG
from rubric.tensor import Tensor

FD_STEP = 1e-5
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def finite_difference_gradients(func, arrays, step: float = FD_STEP):
    """Central-difference gradients of scalar ``func(arrays)`` w.r.t. each array."""
    grads = []
    for which, base in enumerate(arrays):
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        for i in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[which].reshape(-1)[i] += step
            f_plus = func(bumped)
            bumped[which].reshape(-1)[i] -= 2 * step
            f_minus = func(bumped)
            flat[i] = (f_plus - f_minus) / (2 * step)
        grads.append(grad)
    return grads


def grad_close(autodiff, fd, rtol: float = GRAD_RTOL, atol: float = GRAD_ATOL) -> bool:
    return bool(
        np.all(np.abs(autodiff - fd) <= rtol * np.maximum(np.abs(autodiff), np.abs(fd)) + atol)
    )


def check_gradients(build, arrays, rtol: float = GRAD_RTOL, step: float = FD_STEP):
    """Compare autodiff gradients of ``build`` against finite differences.

    ``build`` maps a list of Tensors to a scalar Tensor; ``arrays`` are the
    leaf values. Raises AssertionError with the offending input index.
    """

    def scalar(values):
        return build([Tensor(v) for v in values]).item()

    fd = finite_difference_gradients(scalar, [np.asarray(a, dtype=np.float64) for a in arrays],
                                     step=step)
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    out.backward()
    for i, (leaf, expected) in enumerate(zip(leaves, fd)):
        got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert grad_close(got, expected, rtol=rtol), (
            f"gradient mismatch on input {i}:\nautodiff={got}\nfinite-diff={expected}"
        )


def brute_force_mcrmse(truth, pred) -> float:
    """Double-loop reference for the columnwise RMSE mean."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    n, n_targets = truth.shape
    total = 0.0
    for j in range(n_targets):
        acc = 0.0
        for i in range(n):
            acc += (truth[i, j] - pred[i, j]) ** 2
        total += math.sqrt(acc / n)
    return total / n_targets


def max_fold_mean_deviation(records, plan) -> float:
    """Largest |fold mean - global mean| over all (fold, target) pairs."""
    scores = np.array([r.scores for r in records], dtype=np.float64)
    global_mean = scores.mean(axis=0)
    worst = 0.0
    for fold in range(plan.k):
        rows = [i for i, r in enumerate(records) if plan.assignment[r.text_id] == fold]
        fold_mean = scores[rows].mean(axis=0)
        worst = max(worst, float(np.max(np.abs(fold_mean - global_mean))))
    return worst


def attention_case(rng):
    """Random inputs for ``rubric.tensor.attention``: four (T, D) arrays (q,
    k, v and output weights), a key bias that masks some keys but always
    keeps one, and the head count. n_heads is 1, 2 or 4 and T runs 1 to 9."""
    n_heads = int(rng.choice([1, 2, 4]))
    seq_len = int(rng.integers(1, 10))
    width = n_heads * int(rng.integers(1, 4))
    keep = rng.random(seq_len) < 0.7
    keep[rng.integers(seq_len)] = True
    arrays = [rng.normal(size=(seq_len, width)) for _ in range(4)]
    return arrays, np.where(keep, 0.0, MASK_NEG), n_heads
