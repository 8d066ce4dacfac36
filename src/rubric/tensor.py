"""Dense float64 arrays with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation records its parents and a
backward rule on the output tensor, and ``backward()`` on a scalar replays
those rules in reverse topological order. Everything is 64-bit so gradient
checks can run at tight tolerances; there is no device or dtype story.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ArithmeticError):
    """Numeric-domain violation: non-finite inputs or a diverging loss."""


# Toggled by no_grad(); when False, ops produce plain tensors with no graph.
_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (inference fast path)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _as_array(value) -> Array:
    return np.ascontiguousarray(value, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum `grad` over the axes numpy broadcast to reach `grad.shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional float64 array participating in a gradient graph.

    ``data`` is always a C-contiguous float64 ndarray. ``grad`` has the same
    shape as ``data`` once populated. Only leaf tensors with
    ``requires_grad=True`` accumulate gradient; op outputs keep ``grad`` at
    None. Gradients add up across ``backward()`` calls until cleared.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    # ------------------------------------------------------------------
    # bookkeeping

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # backward

    def backward(self) -> None:
        """Populate grads of every reachable requires_grad leaf tensor.

        The loss must be a scalar connected to at least one tracked tensor.
        Only leaves (tensors not produced by an op, such as parameters) get
        ``.grad``; interior adjoints are dropped as soon as they have been
        passed on. Each call propagates one unit of adjoint, so repeated
        calls without zeroing accumulate.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that is not part of a gradient graph")

        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, object]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            pushed = False
            for p in parents:
                if p.requires_grad and id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    pushed = True
                    break
            if not pushed:
                topo.append(node)
                stack.pop()

        adjoint: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            out_grad = adjoint.pop(id(node), None)
            if out_grad is None:
                continue
            if node._vjp is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += out_grad
                continue
            for parent, pg in zip(node._parents, node._vjp(out_grad)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in adjoint:
                    # fresh allocation: contributions may alias upstream views
                    adjoint[key] = adjoint[key] + pg
                else:
                    adjoint[key] = pg

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        other = _ensure_tensor(other)
        data = self.data + other.data
        a, b = self, other

        def vjp(g):
            return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.shape) if b.requires_grad else None)

        return _from_op(data, (a, b), vjp)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ensure_tensor(other)
        data = self.data - other.data
        a, b = self, other

        def vjp(g):
            return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                    _unbroadcast(-g, b.shape) if b.requires_grad else None)

        return _from_op(data, (a, b), vjp)

    def __rsub__(self, other):
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other):
        other = _ensure_tensor(other)
        data = self.data * other.data
        a, b = self, other

        def vjp(g):
            return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

        return _from_op(data, (a, b), vjp)

    __rmul__ = __mul__

    def __neg__(self):
        a = self

        def vjp(g):
            return (-g,)

        return _from_op(-self.data, (a,), vjp)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(scalar))

    def __matmul__(self, other):
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product; operands need ndim >= 2, extra axes broadcast."""
        other = _ensure_tensor(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs 2-d or higher operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
        try:
            data = a.data @ b.data
        except ValueError as exc:
            raise ShapeError(f"matmul cannot broadcast {a.shape} @ {b.shape}") from exc

        def vjp(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            return ga, gb

        return _from_op(data, (a, b), vjp)

    # ------------------------------------------------------------------
    # shape ops

    def reshape(self, shape) -> "Tensor":
        a = self
        data = self.data.reshape(shape)

        def vjp(g):
            return (g.reshape(a.shape),)

        return _from_op(data, (a,), vjp)

    def transpose(self, axes) -> "Tensor":
        a = self
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)

        def vjp(g):
            return (g.transpose(inverse),)

        return _from_op(data, (a,), vjp)

    # ------------------------------------------------------------------
    # reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            return (_spread(g, a.shape, axis, keepdims),)

        return _from_op(data, (a,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = self.data.mean(axis=axis, keepdims=keepdims)
        count = a.data.size // max(data.size, 1)

        def vjp(g):
            return (_spread(g, a.shape, axis, keepdims) / count,)

        return _from_op(data, (a,), vjp)

    # ------------------------------------------------------------------
    # nonlinearities

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(self.data)

        def vjp(g):
            return (g * (1.0 - data * data),)

        return _from_op(data, (a,), vjp)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit, tanh approximation."""
        a = self
        x = self.data
        c = math.sqrt(2.0 / math.pi)
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        data = 0.5 * x * (1.0 + t)

        def vjp(g):
            dinner = c * (1.0 + 3.0 * 0.044715 * x * x)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            return (g * local,)

        return _from_op(data, (a,), vjp)

    def huber(self, delta: float = 1.0) -> "Tensor":
        """Elementwise smooth-L1: quadratic within ``delta``, linear outside."""
        a = self
        x = self.data
        absx = np.abs(x)
        quad = absx < delta
        data = np.where(quad, 0.5 * x * x / delta, absx - 0.5 * delta)

        def vjp(g):
            return (g * np.where(quad, x / delta, np.sign(x)),)

        return _from_op(data, (a,), vjp)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``; rows sum to 1."""
        a = self
        x = self.data
        if not np.isfinite(x).all():
            raise NumericError("softmax input contains non-finite values")
        data = _softmax(x, axis, out=np.empty_like(x))

        def vjp(g):
            dot = (g * data).sum(axis=axis, keepdims=True)
            return (data * (g - dot),)

        return _from_op(data, (a,), vjp)


def _softmax(x: Array, axis: int, out: Array) -> Array:
    """Stable softmax of ``x`` along ``axis`` written into ``out``.

    ``out`` may be ``x`` itself; no other array the size of ``x`` is made.
    """
    np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _spread(grad: Array, shape: tuple, axis, keepdims: bool) -> Array:
    """Broadcast a reduced gradient back over the reduced axes."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        grad = grad.reshape(tuple(1 if i in axes else s for i, s in enumerate(shape)))
    return np.broadcast_to(grad, shape)


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _from_op(data: Array, parents: tuple, vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# ----------------------------------------------------------------------
# free functions operating on tensors


def concat(tensors: list, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    parts = [_ensure_tensor(t) for t in tensors]
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat got incompatible shapes {[p.shape for p in parts]}") from exc
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(moved[offsets[i] : offsets[i + 1]], 0, axis) for i in range(len(parts))
        )

    return _from_op(data, tuple(parts), vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: ids of shape (...,) pick rows of ``table`` (V, D).

    Backward scatter-adds into the table gradient.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size == 0:
        raise ShapeError("embedding lookup needs at least one id")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ShapeError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    data = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _from_op(data, (table,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    # sum / n is what ndarray.mean computes, without its Python-level wrapper
    n = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        gg = g * gain.data
        gx = inv * (
            gg
            - gg.sum(axis=-1, keepdims=True) / n
            - xhat * ((gg * xhat).sum(axis=-1, keepdims=True) / n)
        )
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead) if lead else g * xhat
        gbias = g.sum(axis=lead) if lead else g.copy()
        return gx, ggain, gbias

    return _from_op(data, (x, gain, bias), vjp)


def attention(
    q: Tensor, k: Tensor, v: Tensor, key_bias: Array, n_heads: int
) -> tuple[Tensor, Array]:
    """Multi-head scaled dot-product attention as one graph node.

    ``q``, ``k`` and ``v`` are (T, D); each splits its columns into
    ``n_heads`` heads of D // n_heads. ``key_bias`` (T,) is added to every
    query's scores, so a large negative entry masks that key. Returns the
    context (T, D), heads merged back in column order, and the
    (n_heads, T, T) attention probabilities as a plain array.

    The scores are the only (n_heads, T, T) array the forward pass makes:
    scaling, the key bias and the softmax run in place on it, and it is
    returned as the probabilities. Backward reads them and never writes
    to them.
    """
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"attention needs equal (T, D) q, k, v, got {q.shape}, {k.shape}, {v.shape}"
        )
    seq_len, width = q.shape
    if n_heads < 1 or width % n_heads:
        raise ShapeError(f"attention width {width} is not divisible by {n_heads} heads")
    d_head = width // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def split(x):  # (T, D) -> (n_heads, T, d_head), a view
        return x.reshape(seq_len, n_heads, d_head).transpose(1, 0, 2)

    def merge(x):  # (n_heads, T, d_head) -> (T, D), a contiguous copy
        return x.transpose(1, 0, 2).reshape(seq_len, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    probs = qh @ kh.transpose(0, 2, 1)
    probs *= scale
    probs += key_bias
    if not np.isfinite(probs).all():
        raise NumericError("softmax input contains non-finite values")
    _softmax(probs, -1, out=probs)
    ctx = merge(probs @ vh)

    def vjp(g):
        gh = split(g)
        dv = probs.transpose(0, 2, 1) @ gh
        ds = gh @ vh.transpose(0, 2, 1)  # dP, turned into dS in place
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= scale
        return merge(ds @ kh), merge(ds.transpose(0, 2, 1) @ qh), merge(dv)

    return _from_op(ctx, (q, k, v), vjp), probs


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a caller-supplied generator; p=0 is identity."""
    if p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError(f"dropout probability must be < 1, got {p}")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    data = x.data * keep

    def vjp(g):
        return (g * keep,)

    return _from_op(data, (x,), vjp)
