import math

import numpy as np
import pytest

from rubric.tensor import (
    NumericError,
    ShapeError,
    Tensor,
    attention,
    concat,
    dropout,
    embedding,
    layer_norm,
    no_grad,
)

from _oracles import attention_case, check_gradients


class TestMatmul:
    def test_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]) @ Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_row_times_column(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_gradient_matches_hand_value_and_fd(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0], [4.0]], requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_array_equal(a.grad, [[3.0, 4.0]])
        np.testing.assert_array_equal(b.grad, [[1.0], [2.0]])
        check_gradients(
            lambda ts: (ts[0] @ ts[1]).sum(),
            [np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])],
            step=1e-6,
        )

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_needs_two_dims(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))


class TestSoftmax:
    def test_uniform_on_constant_input(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax(axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=0)

    def test_no_overflow_on_large_values(self):
        out = Tensor([1000.0, 0.0]).softmax(axis=0)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_log_ratio_inputs(self):
        out = Tensor([np.log(1.0), np.log(2.0), np.log(3.0)]).softmax(axis=0)
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = Tensor(rng.normal(size=(3, 5)) * 10)
            s = x.softmax(axis=-1).data
            assert (s > 0).all()
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf, 0.0]).softmax(axis=0)
        with pytest.raises(NumericError):
            Tensor([np.nan, 0.0]).softmax(axis=0)


class TestBackward:
    def test_linear_sum(self):
        w = Tensor([2.0, 3.0], requires_grad=True)
        w.sum().backward()
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])

    def test_elementwise_square(self):
        w = Tensor([2.0, 3.0], requires_grad=True)
        (w * w).sum().backward()
        np.testing.assert_array_equal(w.grad, [4.0, 6.0])

    def test_composite_graph_matches_fd(self):
        rng = np.random.default_rng(7)

        def build(ts):
            a, b, c = ts
            return ((a @ b).tanh() * c).softmax(axis=-1).mean() + (a * a).sum()

        check_gradients(
            build,
            [rng.normal(size=(2, 3)), rng.normal(size=(3, 4)), rng.normal(size=(2, 4))],
        )

    def test_repeated_backward_accumulates(self):
        w = Tensor([2.0, 3.0], requires_grad=True)
        loss = (w * w).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(w.grad, [8.0, 12.0])

    def test_fanout_accumulation_counts_each_use_once(self):
        w = Tensor([1.5], requires_grad=True)
        y = w * w  # used twice below
        (y + y).sum().backward()
        np.testing.assert_allclose(w.grad, [6.0])

    def test_only_leaves_get_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        h = a * b
        s = h + a
        sq = s * s
        loss = sq.sum()
        loss.backward()
        for interior in (h, s, sq, loss):
            assert interior.grad is None
        # d/da = 2s * (b + 1), d/db = 2s * a with s = [4, 10]
        np.testing.assert_array_equal(a.grad, [32.0, 100.0])
        np.testing.assert_array_equal(b.grad, [8.0, 40.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([2.0, 3.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (w * w).backward()

    def test_untracked_tensor_never_gets_grad(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, [1.0, 2.0])

    def test_no_grad_suppresses_graph(self):
        w = Tensor([2.0], requires_grad=True)
        with no_grad():
            out = (w * w).sum()
        assert not out.requires_grad


class TestUntrackedOperands:
    """Binary ops hand back no gradient for an operand that tracks none."""

    OPS = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "mul": lambda x, y: x * y,
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_vjp_yields_none_for_untracked_operand(self, name):
        op = self.OPS[name]
        rng = np.random.default_rng(0)
        tracked = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        const = Tensor(rng.normal(size=(3,)))
        for out, which in ((op(tracked, const), 1), (op(const, tracked), 0)):
            grads = out._vjp(np.ones(out.shape))
            assert grads[which] is None
            assert grads[1 - which].shape == tracked.shape

    def test_leaf_gradients_unchanged(self):
        rng = np.random.default_rng(1)
        a_data, c_data = rng.normal(size=(2, 3)), rng.normal(size=(3,))

        def grads(track_c):
            a = Tensor(a_data, requires_grad=True)
            c = Tensor(c_data, requires_grad=track_c)
            (((a + c) * c - c) * a - 2.0 * a).sum().backward()
            return a.grad, c.grad

        a_untracked, c_grad = grads(False)
        a_tracked, _ = grads(True)
        assert c_grad is None
        assert a_untracked.tobytes() == a_tracked.tobytes()
        # d/da of ((a + c) c - c) a - 2a = (a + c) c - c + a c - 2
        np.testing.assert_allclose(a_untracked, (a_data + c_data) * c_data - c_data
                                   + a_data * c_data - 2.0, rtol=1e-12)


def composed_attention(q, k, v, key_bias, n_heads):
    """Multi-head attention from primitive Tensor ops: the fused op's oracle."""
    seq_len, width = q.shape
    d_head = width // n_heads

    def split(x):
        return x.reshape((seq_len, n_heads, d_head)).transpose((1, 0, 2))

    bias = Tensor(np.asarray(key_bias).reshape(1, 1, seq_len))
    scores = (split(q) @ split(k).transpose((0, 2, 1))) * (1.0 / math.sqrt(d_head)) + bias
    probs = scores.softmax(axis=-1)
    ctx = (probs @ split(v)).transpose((1, 0, 2)).reshape((seq_len, width))
    return ctx, probs.data


def assert_rel_close(got, want, rtol):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale


class TestAttention:
    def test_matches_composed_ops_forward_and_gradients(self):
        for trial in range(200):
            arrays, key_bias, n_heads = attention_case(np.random.default_rng(3000 + trial))
            results = []
            for op in (attention, composed_attention):
                q, k, v = (Tensor(a, requires_grad=True) for a in arrays[:3])
                ctx, probs = op(q, k, v, key_bias, n_heads)
                (ctx * Tensor(arrays[3])).sum().backward()
                results.append([ctx.data, probs, q.grad, k.grad, v.grad])
            for got, want in zip(*results):
                assert_rel_close(got, want, rtol=1e-12)

    def test_non_finite_input_rejected(self):
        arrays, key_bias, n_heads = attention_case(np.random.default_rng(1))
        for bad in (np.inf, np.nan):
            q = arrays[0].copy()
            q[0, 0] = bad
            with pytest.raises(NumericError):
                attention(Tensor(q), Tensor(arrays[1]), Tensor(arrays[2]), key_bias, n_heads)

    def test_shape_errors(self):
        x = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="divisible"):
            attention(x, x, x, np.zeros(3), 3)
        with pytest.raises(ShapeError, match="divisible"):
            attention(x, x, x, np.zeros(3), 0)
        with pytest.raises(ShapeError, match="equal"):
            attention(x, Tensor(np.zeros((2, 4))), x, np.zeros(3), 2)


class TestGradChecks:
    """Finite-difference checks for every differentiable op, seeded trials."""

    N_TRIALS = 100

    def _trials(self):
        return (np.random.default_rng(1000 + t) for t in range(self.N_TRIALS))

    def test_add_sub_mul_with_broadcasting(self):
        for rng in self._trials():
            a = rng.normal(size=(2, 3))
            b = rng.normal(size=(3,))  # broadcast bias add
            c = rng.normal(size=(2, 3))
            check_gradients(lambda ts: ((ts[0] + ts[1]) * ts[2] - ts[0]).sum(), [a, b, c])

    def test_neg_div_scalar(self):
        for rng in self._trials():
            a = rng.normal(size=(4,))
            check_gradients(lambda ts: ((-ts[0]) / 3.0).sum(), [a])

    def test_matmul_2d_and_batched(self):
        for rng in self._trials():
            a = rng.normal(size=(2, 3))
            b = rng.normal(size=(3, 2))
            check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])
            q = rng.normal(size=(2, 3, 2))
            k = rng.normal(size=(2, 2, 3))
            w = rng.normal(size=(2, 3, 3))
            check_gradients(lambda ts: ((ts[0] @ ts[1]) * Tensor(w)).sum(), [q, k])

    def test_reshape_transpose_concat(self):
        for rng in self._trials():
            a = rng.normal(size=(2, 6))
            b = rng.normal(size=(1, 6))

            def build(ts):
                stacked = concat([ts[0], ts[1]], axis=0)  # (3, 6)
                return stacked.reshape((3, 2, 3)).transpose((1, 0, 2)).sum()

            check_gradients(build, [a, b])

    def test_reductions(self):
        for rng in self._trials():
            a = rng.normal(size=(3, 4))
            check_gradients(lambda ts: ts[0].mean(axis=0).sum(), [a])
            check_gradients(lambda ts: ts[0].sum(axis=1).mean(), [a])
            check_gradients(lambda ts: (ts[0].mean(axis=-1, keepdims=True) * ts[0]).sum(), [a])

    def test_nonlinearities(self):
        for rng in self._trials():
            a = rng.normal(size=(2, 5))
            check_gradients(lambda ts: ts[0].tanh().sum(), [a])
            check_gradients(lambda ts: ts[0].gelu().sum(), [a])
            # keep residuals away from the huber kink at |x| = delta
            r = rng.normal(size=(6,))
            r = np.where(np.abs(np.abs(r) - 1.0) < 0.05, r * 1.2, r)
            check_gradients(lambda ts: ts[0].huber(1.0).sum(), [r])

    def test_softmax_gradient(self):
        for rng in self._trials():
            a = rng.normal(size=(3, 4)) * 3
            w = rng.normal(size=(3, 4))
            check_gradients(lambda ts: (ts[0].softmax(axis=-1) * Tensor(w)).sum(), [a])

    def test_layer_norm_gradient(self):
        for rng in self._trials():
            x = rng.normal(size=(2, 6)) * 2
            g = rng.normal(size=(6,)) + 1.0
            b = rng.normal(size=(6,))
            w = rng.normal(size=(2, 6))
            check_gradients(
                lambda ts: (layer_norm(ts[0], ts[1], ts[2]) * Tensor(w)).sum(), [x, g, b]
            )

    def test_embedding_gradient(self):
        for rng in self._trials():
            table = rng.normal(size=(7, 4))
            ids = rng.integers(0, 7, size=5)
            w = rng.normal(size=(5, 4))
            check_gradients(lambda ts: (embedding(ts[0], ids) * Tensor(w)).sum(), [table])

    def test_dropout_gradient_with_fixed_mask(self):
        for t, rng in enumerate(self._trials()):
            x = rng.normal(size=(3, 4))

            def build(ts):
                # same seed per evaluation so the mask is fixed for the check
                mask_rng = np.random.default_rng(t)
                return dropout(ts[0], 0.4, mask_rng).sum()

            check_gradients(build, [x])


class TestGelu:
    def test_matches_pow_closed_form(self):
        # the tanh-approximation formula written with x**3, forward and
        # backward; the cube is taken by multiplication, which can differ by
        # an ulp, and where 1 + tanh cancels (x below about -3) or gelu' is
        # near zero (x near -0.75) an ulp is not small relative to the value,
        # so the bound is 1e-14 * max(|value|, 1)
        c = math.sqrt(2.0 / math.pi)
        x = np.concatenate(
            [np.linspace(-1e3, 1e3, 20_001), np.linspace(-8.0, 8.0, 16_001),
             [0.0, 1e-300, -1e-300]]
        )
        t = np.tanh(c * (x + 0.044715 * x**3))
        want = 0.5 * x * (1.0 + t)
        want_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (
            1.0 + 3.0 * 0.044715 * x**2
        )
        xt = Tensor(x, requires_grad=True)
        out = xt.gelu()
        out.sum().backward()
        np.testing.assert_allclose(out.data, want, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(xt.grad, want_grad, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(out.data[-3:], want[-3:])
        np.testing.assert_array_equal(xt.grad[-3:], want_grad[-3:])


class TestMiscOps:
    def test_embedding_scatter_accumulates_repeated_ids(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = embedding(table, [1, 1, 3])
        out.sum().backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_embedding_range_checked(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            embedding(table, [4])
        with pytest.raises(ShapeError):
            embedding(table, [-1])

    def test_dropout_identity_when_p_zero(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_scales_kept_entries(self):
        x = Tensor(np.ones(10_000))
        out = dropout(x, 0.25, np.random.default_rng(3))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_concat_shape_error(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_grad_shape_matches_data(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.shape == x.data.shape

    def test_item_on_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


def test_seeded_pipeline_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        out = (x @ w).gelu().softmax(axis=-1).mean()
        out.backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()
