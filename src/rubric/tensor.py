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

    def backward(self, collect: list | None = None) -> None:
        """Populate grads of every reachable requires_grad leaf tensor.

        The loss must be a scalar connected to at least one tracked tensor.
        Only leaves (tensors not produced by an op, such as parameters) get
        ``.grad``; interior adjoints are dropped as soon as they have been
        passed on. Each call propagates one unit of adjoint, so repeated
        calls without zeroing accumulate. A leaf's ``.grad`` is its own
        array, summed into in place; row-sparse ``(ids, rows)`` gradients
        from ``embedding`` are scatter-added into it without a dense table.

        With ``collect``, no ``.grad`` changes: each contribution is appended
        to that list as ``(leaf, grad)`` instead, in the order it would have
        been added, so adding them later with ``accumulate_grad`` in that
        order gives the same bits. A collected contribution may alias other
        arrays of the pass; a caller that keeps it must not write to it.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that is not part of a gradient graph")
        if collect is None:
            deliver = Tensor.accumulate_grad
        else:
            def deliver(leaf, grad):
                collect.append((leaf, grad))

        if self._vjp is None:
            deliver(self, np.ones_like(self.data))
            return

        # only op outputs are ordered; leaves take their gradient on the spot
        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, object]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            pushed = False
            for p in parents:
                if p._vjp is not None and id(p) not in visited:
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
            for parent, pg in zip(node._parents, node._vjp(out_grad)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent._vjp is None:
                    deliver(parent, pg)
                    continue
                if isinstance(pg, tuple):
                    pg = _densify(pg, parent.shape)
                key = id(parent)
                if key in adjoint:
                    # fresh allocation: contributions may alias upstream views
                    adjoint[key] = adjoint[key] + pg
                else:
                    adjoint[key] = pg

    def accumulate_grad(self, grad) -> None:
        """Add one gradient contribution into ``.grad`` in place.

        ``grad`` is a dense array of this tensor's shape, or row-sparse
        ``(ids, rows)``, which is scatter-added with ``np.add.at``.
        """
        if isinstance(grad, tuple):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            np.add.at(self.grad, *grad)
        elif self.grad is None:
            # a copy: VJP outputs may alias each other (add hands g to both operands)
            self.grad = grad.copy()
        else:
            self.grad += grad

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
        data, derivative = _gelu(self.data)

        def vjp(g):
            return (g * derivative(),)

        return _from_op(data, (self,), vjp)

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


_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5


def _gelu(x: Array):
    """GELU of ``x`` and a function that returns its elementwise derivative."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))

    def derivative():
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner

    return 0.5 * x * (1.0 + t), derivative


def _layer_norm(x: Array, gain: Array, bias: Array, eps: float):
    """Layer norm of ``x`` over its last axis, and its VJP (gx, ggain, gbias)."""
    # sum / n is what ndarray.mean computes, without its Python-level wrapper
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def vjp(g):
        gg = g * gain
        gx = inv * (
            gg
            - gg.sum(axis=-1, keepdims=True) / n
            - xhat * ((gg * xhat).sum(axis=-1, keepdims=True) / n)
        )
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead) if lead else g * xhat
        gbias = g.sum(axis=lead) if lead else g
        return gx, ggain, gbias

    return xhat * gain + bias, vjp


def _attention(q: Array, k: Array, v: Array, key_bias: Array, n_heads: int):
    """Multi-head attention on (T, D) arrays: context, probabilities, VJP.

    The scores are the only (n_heads, T, T) array the forward pass makes:
    scaling, the key bias and the softmax run in place on it, and it is
    returned as the probabilities. The VJP maps the context's adjoint to
    (dq, dk, dv); it reads the probabilities and never writes to them.
    """
    seq_len, width = q.shape
    d_head = width // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def split(x):  # (T, D) -> (n_heads, T, d_head), a view
        return x.reshape(seq_len, n_heads, d_head).transpose(1, 0, 2)

    def merge(x):  # (n_heads, T, d_head) -> (T, D), a contiguous copy
        return x.transpose(1, 0, 2).reshape(seq_len, width)

    qh, kh, vh = split(q), split(k), split(v)
    probs = qh @ kh.transpose(0, 2, 1)
    probs *= scale
    if key_bias.any():  # adding zeros only turns -0.0 into 0.0, which softmaxes alike
        probs += key_bias
    if not np.isfinite(probs).all():
        raise NumericError("softmax input contains non-finite values")
    _softmax(probs, -1, out=probs)

    def vjp(g):
        gh = split(g)
        dv = probs.transpose(0, 2, 1) @ gh
        ds = gh @ vh.transpose(0, 2, 1)  # dP, turned into dS in place
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= scale
        return merge(ds @ kh), merge(ds.transpose(0, 2, 1) @ qh), merge(dv)

    return merge(probs @ vh), probs, vjp


def _dropout_mask(shape: tuple, p: float, rng: np.random.Generator) -> Array | None:
    """Inverted-dropout multipliers (0 or 1/(1-p)) drawn from ``rng``; None at p=0."""
    if p <= 0.0:
        return None
    if p >= 1.0:
        raise ValueError(f"dropout probability must be < 1, got {p}")
    return (rng.random(shape) >= p) / (1.0 - p)


def _densify(rows: tuple, shape: tuple) -> Array:
    """The dense gradient of a row-sparse ``(ids, rows)`` contribution."""
    dense = np.zeros(shape)
    np.add.at(dense, *rows)
    return dense


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
    lead = (slice(None),) * (axis % data.ndim)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def vjp(g):
        return tuple(g[lead + (slice(offsets[i], offsets[i + 1]),)] for i in range(len(parts)))

    return _from_op(data, tuple(parts), vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: ids of shape (...,) pick rows of ``table`` (V, D).

    The gradient is row-sparse: the VJP hands back ``(ids, rows)``, which
    ``backward`` scatter-adds into the table's gradient.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size == 0:
        raise ShapeError("embedding lookup needs at least one id")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ShapeError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )

    def vjp(g):
        return ((idx, g),)

    return _from_op(table.data[idx], (table,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    data, vjp = _layer_norm(x.data, gain.data, bias.data, eps)
    return _from_op(data, (x, gain, bias), vjp)


def attention(
    q: Tensor, k: Tensor, v: Tensor, key_bias: Array, n_heads: int
) -> tuple[Tensor, Array]:
    """Multi-head scaled dot-product attention as one graph node.

    ``q``, ``k`` and ``v`` are (T, D); each splits its columns into
    ``n_heads`` heads of D // n_heads. ``key_bias`` (T,) is added to every
    query's scores, so a large negative entry masks that key. Returns the
    context (T, D), heads merged back in column order, and the
    (n_heads, T, T) attention probabilities as a plain array, which
    backward never writes to.
    """
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"attention needs equal (T, D) q, k, v, got {q.shape}, {k.shape}, {v.shape}"
        )
    if n_heads < 1 or q.shape[1] % n_heads:
        raise ShapeError(f"attention width {q.shape[1]} is not divisible by {n_heads} heads")
    ctx, probs, vjp = _attention(q.data, k.data, v.data, key_bias, n_heads)
    return _from_op(ctx, (q, k, v), vjp), probs


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a caller-supplied generator; p=0 is identity."""
    keep = _dropout_mask(x.shape, p, rng)
    if keep is None:
        return x

    def vjp(g):
        return (g * keep,)

    return _from_op(x.data * keep, (x,), vjp)


def attention_sublayer(
    x: Tensor, ln_gain: Tensor, ln_bias: Tensor,
    wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
    key_bias: Array, n_heads: int, p: float, rng: np.random.Generator | None,
) -> tuple[Tensor, Array]:
    """Pre-LN self-attention block on (T, D) ``x`` as one graph node.

    Computes ``x + dropout(attention(h·wq + bq, h·wk, h·wv + bv)·wo + bo)``
    with ``h = layer_norm(x)``, in the order and with the arithmetic of
    those ops, so its output equals their composition bit for bit; the
    dropout mask is drawn from ``rng`` as ``dropout`` would. Returns the
    output and the (n_heads, T, T) attention probabilities.
    """
    h, ln_vjp = _layer_norm(x.data, ln_gain.data, ln_bias.data, _LN_EPS)
    ctx, probs, attn_vjp = _attention(
        h @ wq.data + bq.data, h @ wk.data, h @ wv.data + bv.data, key_bias, n_heads
    )
    out = ctx @ wo.data + bo.data
    keep = _dropout_mask(out.shape, p, rng)
    if keep is not None:
        out *= keep

    def vjp(g):
        go = g if keep is None else g * keep
        dq, dk, dv = attn_vjp(go @ wo.data.T)
        ht = h.T
        dh = dq @ wq.data.T
        dh += dk @ wk.data.T
        dh += dv @ wv.data.T
        gx, ggain, gbias = ln_vjp(dh)
        gx += g
        return (gx, ggain, gbias, ht @ dq, dq.sum(axis=0), ht @ dk, ht @ dv, dv.sum(axis=0),
                ctx.T @ go, go.sum(axis=0))

    parents = (x, ln_gain, ln_bias, wq, bq, wk, wv, bv, wo, bo)
    return _from_op(x.data + out, parents, vjp), probs


def feed_forward_sublayer(
    x: Tensor, ln_gain: Tensor, ln_bias: Tensor,
    w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
    p: float, rng: np.random.Generator | None,
) -> Tensor:
    """Pre-LN GELU feed-forward block on (T, D) ``x`` as one graph node.

    Computes ``x + dropout(gelu(layer_norm(x)·w1 + b1)·w2 + b2)`` with the
    arithmetic of those ops, so its output equals their composition bit
    for bit; the dropout mask is drawn from ``rng`` as ``dropout`` would.
    """
    h, ln_vjp = _layer_norm(x.data, ln_gain.data, ln_bias.data, _LN_EPS)
    act, derivative = _gelu(h @ w1.data + b1.data)
    out = act @ w2.data + b2.data
    keep = _dropout_mask(out.shape, p, rng)
    if keep is not None:
        out *= keep

    def vjp(g):
        go = g if keep is None else g * keep
        ga = go @ w2.data.T
        ga *= derivative()
        gx, ggain, gbias = ln_vjp(ga @ w1.data.T)
        gx += g
        return gx, ggain, gbias, h.T @ ga, ga.sum(axis=0), act.T @ go, go.sum(axis=0)

    parents = (x, ln_gain, ln_bias, w1, b1, w2, b2)
    return _from_op(x.data + out, parents, vjp)
