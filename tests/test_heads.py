import numpy as np
import pytest

from rubric.data import TARGETS
from rubric.encoder import ModelSpec
from rubric.heads import (
    AttentionPoolHead,
    HeadBank,
    attention_pool,
    clamp_to_score_lattice,
    init_head_bank,
    masked_mean_pool,
    pooling_weights,
    predict_scores,
)
from rubric.model import Model
from rubric.tensor import Tensor

from _oracles import check_gradients

D = 8


def spec(mode="six_metric_attention"):
    return ModelSpec(vocab_size=11, max_seq_len=8, d_model=D, n_layers=1, n_heads=2,
                     d_ff=16, dropout_p=0.0, pooling_mode=mode)


def bank_for(mode="six_metric_attention", seed=0):
    return init_head_bank(spec(mode), seed)


def hidden_like(rng, seq_len=5):
    return Tensor(rng.normal(size=(seq_len, D)))


class TestAttentionPool:
    def test_zero_scorer_equals_masked_mean_bitwise(self):
        rng = np.random.default_rng(0)
        bank = bank_for()
        head = bank.heads[0]
        head.score_w.data = np.zeros((D, 1))
        for trial in range(20):
            hidden = hidden_like(np.random.default_rng(trial), seq_len=3 + trial % 4)
            mask = np.ones(hidden.shape[0], dtype=bool)
            mask[-1] = trial % 2 == 0
            pooled = attention_pool(head, hidden, mask)
            mean = masked_mean_pool(hidden, mask)
            assert pooled.data.tobytes() == mean.data.tobytes()
            # and both agree with the plain numpy mean to rounding error
            np.testing.assert_allclose(
                pooled.data[0], hidden.data[mask].mean(axis=0), rtol=1e-13, atol=1e-13
            )

    def test_single_unmasked_token_passes_through_exactly(self):
        rng = np.random.default_rng(1)
        head = bank_for().heads[0]
        hidden = hidden_like(rng, seq_len=4)
        mask = [False, False, True, False]
        pooled = attention_pool(head, hidden, mask)
        np.testing.assert_array_equal(pooled.data[0], hidden.data[2])

    def test_hand_set_scores_give_one_two_three_sixths(self):
        head = bank_for().heads[0]
        hidden = Tensor(np.vstack([np.full(D, np.log(1.0)),
                                   np.full(D, np.log(2.0)),
                                   np.full(D, np.log(3.0))]) / D)
        # scorer = sum of coordinates -> token scores ln1, ln2, ln3
        head.score_w.data = np.ones((D, 1))
        mask = [True, True, True]
        alpha = pooling_weights(head, hidden, mask)
        np.testing.assert_allclose(alpha.data[:, 0], [1 / 6, 2 / 6, 3 / 6], atol=1e-12)
        pooled = attention_pool(head, hidden, mask)
        expected = np.zeros(D)
        for weight, row in zip([1 / 6, 2 / 6, 3 / 6], hidden.data):  # brute-force loop
            expected += weight * row
        np.testing.assert_allclose(pooled.data[0], expected, atol=1e-12)

    def test_weight_properties_over_seeded_trials(self):
        bank = bank_for(seed=3)
        head = bank.heads[0]
        for trial in range(100):
            rng = np.random.default_rng(5000 + trial)
            seq = int(rng.integers(2, 8))
            hidden = Tensor(rng.normal(size=(seq, D)) * 3)
            mask = rng.random(seq) < 0.7
            if not mask.any():
                mask[0] = True
            alpha = pooling_weights(head, hidden, mask).data[:, 0]
            assert (alpha >= 0.0).all()
            assert abs(alpha.sum() - 1.0) <= 1e-9
            assert (alpha[~mask] == 0.0).all()
            # convexity: pooled coordinates stay inside the unmasked range
            pooled = attention_pool(head, hidden, mask).data[0]
            lo = hidden.data[mask].min(axis=0)
            hi = hidden.data[mask].max(axis=0)
            assert (pooled >= lo - 1e-12).all() and (pooled <= hi + 1e-12).all()

    def test_all_masked_rejected(self):
        head = bank_for().heads[0]
        hidden = hidden_like(np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one"):
            attention_pool(head, hidden, [False] * 5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        mask = [True, True, True, False]
        probe = rng.normal(size=(1, D))

        def build(ts):
            hidden, sw, sb, ow, ob = ts
            scores = hidden @ sw + sb
            scores = scores + Tensor(np.where(mask, 0.0, -1e9).reshape(-1, 1))
            pooled = scores.softmax(axis=0).transpose((1, 0)) @ hidden
            return ((pooled @ ow + ob) * Tensor(probe[:, :1])).sum()

        check_gradients(
            build,
            [
                rng.normal(size=(4, D)),
                rng.normal(size=(D, 1)),
                rng.normal(size=(1,)),
                rng.normal(size=(D, 1)),
                rng.normal(size=(1,)),
            ],
        )


class TestPredictScores:
    def test_bias_only_path(self):
        for mode in ("six_metric_attention", "single_attention", "mean"):
            bank = bank_for(mode)
            biases = np.arange(1.0, 7.0)
            if mode == "six_metric_attention":
                for j, head in enumerate(bank.heads):
                    head.out_w.data = np.zeros((D, 1))
                    head.out_b.data = np.array([biases[j]])
            else:
                bank.heads[0].out_w.data = np.zeros((D, 6))
                bank.heads[0].out_b.data = biases.copy()
            hidden = hidden_like(np.random.default_rng(2))
            out = predict_scores(bank, hidden, [True] * 5)
            np.testing.assert_array_equal(out.data, biases)

    def test_six_metric_head_perturbation_is_isolated(self):
        bank = bank_for()
        hidden = hidden_like(np.random.default_rng(3))
        mask = [True] * 5
        before = predict_scores(bank, hidden, mask).data.copy()
        bank.heads[3].score_w.data = bank.heads[3].score_w.data + 0.5
        bank.heads[3].out_w.data = bank.heads[3].out_w.data + 0.5
        after = predict_scores(bank, hidden, mask).data
        changed = before != after
        assert changed[3]
        assert not changed[[0, 1, 2, 4, 5]].any()

    def test_single_mode_scorer_perturbation_moves_all_targets(self):
        bank = bank_for("single_attention")
        hidden = hidden_like(np.random.default_rng(4))
        mask = [True] * 5
        before = predict_scores(bank, hidden, mask).data.copy()
        bank.heads[0].score_w.data = bank.heads[0].score_w.data + 0.5
        after = predict_scores(bank, hidden, mask).data
        assert (before != after).all()

    def test_head_isolation_via_autodiff(self):
        model = Model.build(spec(), seed=7)
        ids = [2, 3, 4, 5]
        params = model.named_parameters()
        for j, target_j in enumerate(TARGETS):
            for p in params.values():
                p.grad = None
            pred = model.forward(ids)
            onehot = np.zeros(6)
            onehot[j] = 1.0
            (pred * Tensor(onehot)).sum().backward()
            for k, target_k in enumerate(TARGETS):
                if k == j:
                    continue
                for suffix in ("score_w", "out_w", "out_b"):
                    grad = params[f"head.{target_k}.{suffix}"].grad
                    assert grad is None or not np.any(grad), (
                        f"target {target_j} leaked gradient into head.{target_k}.{suffix}"
                    )

    def test_target_order(self):
        names = [n.split(".")[1] for n in bank_for().named_parameters()]
        assert list(dict.fromkeys(names)) == [
            "cohesion", "syntax", "vocabulary", "phraseology", "grammar", "conventions"
        ]

    def test_six_metric_heads_share_no_parameters(self):
        bank = bank_for()
        seen = set()
        for head in bank.heads:
            for t in (head.score_w, head.out_w, head.out_b):
                assert id(t) not in seen
                seen.add(id(t))


MODES = ("six_metric_attention", "single_attention", "mean")


def randomized_bank(mode, rng):
    """A bank whose every parameter is redrawn at unit scale."""
    bank = bank_for(mode)
    for p in bank.named_parameters().values():
        p.data = rng.normal(size=p.shape)
    return bank


def reference_scores(bank, hidden, mask):
    """Loop over the heads, pooling each with its own pooling_weights."""
    outs = []
    for head in bank.heads:
        alpha = pooling_weights(head, hidden, mask).data[:, 0]
        pooled = np.zeros(hidden.shape[1])
        for weight, row in zip(alpha, hidden.data):
            pooled += weight * row
        outs.extend(pooled @ head.out_w.data + head.out_b.data)
    return np.array(outs)


class TestOnePath:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_per_head_reference_on_mixed_lengths(self, mode):
        rng = np.random.default_rng(sum(map(ord, mode)))
        bank = randomized_bank(mode, rng)
        for seq_len in (1, 2, 3, 5, 8, 17, 64, 100, 255, 256):
            hidden = Tensor(rng.normal(size=(seq_len, D)) * 2)
            mask = rng.random(seq_len) < 0.6
            mask[rng.integers(seq_len)] = True
            got = predict_scores(bank, hidden, mask).data
            assert got.shape == (6,)
            np.testing.assert_allclose(
                got, reference_scores(bank, hidden, mask), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_gradient_matches_finite_differences(self, mode):
        rng = np.random.default_rng(21)
        template = randomized_bank(mode, rng)
        mask = [True, False, True, True, False]
        probe = Tensor(rng.normal(size=6))

        def build(ts):
            hidden, rest = ts[0], iter(ts[1:])
            heads = [
                AttentionPoolHead(
                    *(None if t is None else next(rest)
                      for t in (h.score_w, h.out_w, h.out_b))
                )
                for h in template.heads
            ]
            return (predict_scores(HeadBank(heads=heads), hidden, mask) * probe).sum()

        leaves = [rng.normal(size=(len(mask), D))]
        leaves += [p.data for p in template.named_parameters().values()]
        check_gradients(build, leaves)


class TestLattice:
    def test_clip_bounds(self):
        np.testing.assert_array_equal(
            clamp_to_score_lattice([5.7, 0.2, 3.0]), [5.0, 1.0, 3.0]
        )

    def test_round_nearest_half(self):
        # oracle: round(2x)/2
        assert clamp_to_score_lattice([3.26], round_to_lattice=True)[0] == 3.5
        assert clamp_to_score_lattice([3.24], round_to_lattice=True)[0] == 3.0
        assert clamp_to_score_lattice([4.74], round_to_lattice=True)[0] == 4.5

    def test_rounding_matches_oracle_on_random_values(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(-1, 7, size=500)
        got = clamp_to_score_lattice(values, round_to_lattice=True)
        expected = np.clip(np.rint(np.clip(values, 1.0, 5.0) * 2) / 2, 1.0, 5.0)
        np.testing.assert_array_equal(got, expected)
        assert set(np.unique(got)) <= {1.0 + 0.5 * i for i in range(9)}
