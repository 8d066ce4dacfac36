"""Adam with decoupled weight decay, plus gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AdamW:
    """Standard adaptive-moment optimizer; parameters are a name->Tensor map.

    Parameters without a gradient are skipped entirely (no decay either),
    which keeps unused heads untouched.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 2e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}
        # two scratch arrays per parameter: the step allocates only the new weights
        self._scratch = {name: (np.empty_like(p.data), np.empty_like(p.data))
                         for name, p in params.items()}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            tmp, update = self._scratch[name]
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
            tmp += self.eps
            np.divide(m, bias1, out=update)
            update /= tmp
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=tmp)
                update += tmp
            update *= self.lr
            p.data = p.data - update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None]
    for g in grads:
        total += float((g * g).sum())
    total = total**0.5
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
