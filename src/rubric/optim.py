"""Adam with decoupled weight decay, and a global gradient-norm clip
(``clip_grad_norm``) that training does not use."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adamw_update(w, g, m, v, t: int, lr: float, betas: tuple[float, float], eps: float,
                 weight_decay: float) -> None:
    """One AdamW step, in place on the weights ``w`` and moments ``m`` and
    ``v``, from the gradient ``g``. Every operation is elementwise, so a
    flat run of several parameters steps to the same bits as each alone."""
    b1, b2 = betas
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    tmp, update = np.empty_like(w), np.empty_like(w)
    # the operations, operands and order of
    #   m = b1·m + (1-b1)·g;  v = b2·v + ((1-b2)·g)·g
    #   update = (m/bias1) / (sqrt(v/bias2) + eps) [+ wd·w];  w = w - lr·update
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(v, bias2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m, bias1, out=update)
    update /= tmp
    if weight_decay:
        np.multiply(w, weight_decay, out=tmp)
        update += tmp
    update *= lr
    np.subtract(w, update, out=w)


class AdamW:
    """Standard adaptive-moment optimizer; parameters are a name->Tensor map.

    Parameters without a gradient are skipped entirely (no decay either),
    which keeps unused heads untouched. A parameter's moments are made at
    its first step, and it steps in place.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 2e-4,
        betas: tuple[float, float] = ADAM_BETAS,
        eps: float = ADAM_EPS,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if name not in self._moments:
                self._moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            adamw_update(p.data, p.grad, *self._moments[name], self._t, self.lr, self.betas,
                         self.eps, self.weight_decay)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm;
    returns the norm before scaling."""
    grads = [p.grad for p in params.values() if p.grad is not None]
    total = sum(float((g * g).sum()) for g in grads) ** 0.5
    if total > max_norm and total > 0.0:
        for g in grads:
            g *= max_norm / total
    return total
