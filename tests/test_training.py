import weakref

import numpy as np
import pytest

from rubric.data import synth_corpus
from rubric.encoder import POOLING_MODES, ModelSpec
from rubric.model import Model
from rubric.optim import AdamW, clip_grad_norm
from rubric import training
from rubric.tensor import NumericError, Tensor
from rubric.training import (
    TrainConfig,
    Trainer,
    dropout_stream,
    evaluate_model,
    fit,
    perturb,
    perturbable_parameters,
    restore,
    sequence_gradients,
    train_valid_split,
)

from _oracles import reference_adamw_step


def tiny_model(seed=0, mode="six_metric_attention", dropout=0.1):
    from rubric.data import build_vocab

    records = synth_corpus(10, seed=21)
    vocab = build_vocab(records)
    spec = ModelSpec(
        vocab_size=vocab.size, max_seq_len=256, d_model=16, n_layers=1, n_heads=2,
        d_ff=32, dropout_p=dropout, pooling_mode=mode,
    )
    return Model.build(spec, seed=seed, vocab=vocab), records


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(adv_lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(awp_start_epoch=0)
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="l1")

    def test_either_zero_knob_disables_awp(self):
        assert not TrainConfig(adv_lr=0.0, adv_eps=0.5).awp_enabled
        assert not TrainConfig(adv_lr=0.5, adv_eps=0.0).awp_enabled
        assert TrainConfig(adv_lr=0.5, adv_eps=0.5).awp_enabled


class TestPerturb:
    def _params(self, seed=0, shape=(5, 2)):
        rng = np.random.default_rng(seed)
        p = Tensor(rng.normal(size=shape), requires_grad=True)
        p.grad = rng.normal(size=shape)
        return {"w": p}

    def test_zero_gradients_mean_no_movement(self):
        params = self._params()
        params["w"].grad = np.zeros_like(params["w"].data)
        before = params["w"].data.tobytes()
        snapshot = perturb(params, adv_lr=1.0, adv_eps=0.1)
        assert params["w"].data.tobytes() == before
        assert snapshot == {}

    def test_restore_is_bitwise(self):
        for seed in range(20):
            params = self._params(seed)
            original = params["w"].data
            original_bytes = original.tobytes()
            snapshot = perturb(params, adv_lr=1.0, adv_eps=0.05)
            assert params["w"].data.tobytes() != original_bytes
            restore(params, snapshot)
            assert params["w"].data is original
            assert params["w"].data.tobytes() == original_bytes

    def test_relative_movement_bounded(self):
        adv_eps = 0.01
        for trial in range(100):
            params = self._params(trial)
            w0 = params["w"].data.copy()
            perturb(params, adv_lr=1.0, adv_eps=adv_eps)
            moved = np.linalg.norm(params["w"].data - w0) / np.linalg.norm(w0)
            assert moved <= adv_eps + 1e-12

    def test_adv_lr_above_adv_eps_still_changes_the_perturbation(self):
        # on a real gradient; projecting onto the ball ||w - w0|| <= adv_eps·||w0||
        # gave the same weights for every adv_lr above adv_eps
        model, records = tiny_model(dropout=0.0)
        params = model.named_parameters()
        for r in records:
            _, grads = sequence_gradients(model, model.encode_record(r), np.asarray(r.scores),
                                          "smooth_l1", 0.1, dropout_stream(0, 1, 0, 0))
            for name, grad in grads.items():
                params[name].accumulate_grad(grad)
        moved = []
        for adv_lr in (0.1, 1.0):
            snapshot = perturb(params, adv_lr, adv_eps=0.01)
            for name, w0 in snapshot.items():  # every weight within its own box
                w, bound = params[name].data, 0.01 * np.abs(w0)
                assert ((w0 - bound <= w) & (w <= w0 + bound)).all(), name
            moved.append({name: params[name].data.copy() for name in snapshot})
            restore(params, snapshot)
        assert moved[0].keys() == moved[1].keys() == set(perturbable_parameters(params))
        # the ball's weights differed by rounding only, about 1e-15 of the largest
        gap = max(np.abs(moved[0][n] - moved[1][n]).max() / np.abs(moved[1][n]).max()
                  for n in moved[0])
        assert gap > 1e-4

    def test_ascent_direction_on_quadratic(self):
        # loss = (w - 1)^2 at w = 3: gradient 4, ascent moves w upward
        w = Tensor([[3.0]], requires_grad=True)
        loss = ((w - Tensor([[1.0]])) * (w - Tensor([[1.0]]))).sum()
        clean = loss.item()
        loss.backward()
        np.testing.assert_allclose(w.grad, [[4.0]])
        params = {"w": w}
        perturb(params, adv_lr=0.1, adv_eps=1.0)
        # step = 0.1 * 4 * (3 / 4) = 0.3, inside the eps ball of radius 3
        np.testing.assert_allclose(w.data, [[3.3]])
        adv = ((w - Tensor([[1.0]])) * (w - Tensor([[1.0]]))).sum().item()
        assert adv > clean

    def test_zero_norm_tensor_skipped(self):
        p = Tensor(np.zeros((3, 2)), requires_grad=True)
        p.grad = np.ones((3, 2))
        snapshot = perturb({"w": p}, adv_lr=1.0, adv_eps=0.1)
        assert snapshot == {}
        assert (p.data == 0).all()

    def test_only_matrices_perturbable(self):
        params = {
            "enc.w": Tensor(np.ones((2, 2)), requires_grad=True),
            "enc.bias": Tensor(np.ones(2), requires_grad=True),
            "head.x.out_w": Tensor(np.ones((2, 1)), requires_grad=True),
        }
        assert set(perturbable_parameters(params)) == {"enc.w", "head.x.out_w"}


class TestSequenceGradients:
    @pytest.mark.parametrize("mode", POOLING_MODES)
    @pytest.mark.parametrize("length", [1, 2, 50])
    def test_every_parameter_gets_one_gradient(self, mode, length):
        model, _ = tiny_model(mode=mode)
        ids = np.random.default_rng(length).integers(2, model.spec.vocab_size, length).tolist()
        _, grads = sequence_gradients(model, ids, np.full(6, 3.0), "smooth_l1", 1.0,
                                      dropout_stream(0, 1, 0, 0))
        assert grads.keys() == model.named_parameters().keys()

    def test_a_parameter_without_a_gradient_is_named(self):
        model, records = tiny_model()
        params = {**model.named_parameters(),
                  "head.unused": Tensor(np.zeros(3), requires_grad=True)}
        model.named_parameters = lambda: params
        with pytest.raises(ValueError, match="head.unused"):
            sequence_gradients(model, model.encode_record(records[0]),
                               np.asarray(records[0].scores), "smooth_l1", 1.0,
                               dropout_stream(0, 1, 0, 0))


class TestTrainStep:
    def _examples(self, model, records):
        return [(model.encode_record(r), np.asarray(r.scores)) for r in records]

    def test_grad_clip_norm_bounds_the_gradient_the_optimizer_steps_on(self, monkeypatch):
        model, records = tiny_model()
        trainer = Trainer(model, TrainConfig(batch_size=5, awp_start_epoch=1,
                                             grad_clip_norm=1e-3, seed=3))
        norms = []
        step = trainer.opt.step

        def recording_step():
            grads = [p.grad for p in trainer.params.values() if p.grad is not None]
            norms.append(np.sqrt(sum(float((g * g).sum()) for g in grads)))
            step()

        monkeypatch.setattr(trainer.opt, "step", recording_step)
        trainer.train_step(self._examples(model, records)[:5], epoch=1)
        assert len(norms) == 1 and 0.0 < norms[0] <= 1e-3 * (1 + 1e-12)

    def test_no_snapshot_before_start_epoch(self):
        model, records = tiny_model()
        trainer = Trainer(model, TrainConfig(epochs=2, batch_size=5, awp_start_epoch=2,
                                             adv_lr=1.0, adv_eps=0.01, seed=3))
        examples = self._examples(model, records)
        trainer.run_epoch(examples, epoch=1)
        assert trainer.awp_snapshots_created == 0
        trainer.run_epoch(examples, epoch=2)
        assert trainer.awp_snapshots_created == 2  # 10 records / batch 5

    def _plain_loop_matches(self, cfg):
        """Train with ``cfg`` (AWP off), and again with a hand-written loop
        over the documented rng streams, with one batch graph per step,
        ``clip_grad_norm`` and ``AdamW``; the weights must agree bit for bit."""
        model_a, records = tiny_model(seed=1)
        trainer = Trainer(model_a, cfg)
        examples = self._examples(model_a, records)
        for epoch in range(1, cfg.epochs + 1):
            trainer.run_epoch(examples, epoch)

        model_b, _ = tiny_model(seed=1)
        params = model_b.named_parameters()
        opt = AdamW(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        shuffle = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x51)))
        examples_b = self._examples(model_b, records)
        step = 0
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle.permutation(len(examples_b))
            for start in range(0, len(order), cfg.batch_size):
                step += 1
                opt.zero_grad()
                drop = np.random.Generator(
                    np.random.Philox(np.random.SeedSequence((cfg.seed, 0xD0, step, 0)))
                )
                total = None
                for i in order[start : start + cfg.batch_size]:
                    ids, targets = examples_b[i]
                    diff = model_b.forward(ids, train=True, rng=drop) - Tensor(targets)
                    loss = diff.huber(1.0).mean()
                    total = loss if total is None else total + loss
                (total / min(cfg.batch_size, len(order) - start)).backward()
                if cfg.grad_clip_norm is not None:
                    clip_grad_norm(params, cfg.grad_clip_norm)
                opt.step()

        pa, pb = model_a.named_parameters(), model_b.named_parameters()
        for name in pa:
            assert pa[name].data.tobytes() == pb[name].data.tobytes(), name

    def test_adv_lr_zero_matches_structurally_awp_free_loop(self):
        # independent oracle: a hand-written clean loop using the documented
        # rng streams, with no perturbation plumbing at all
        self._plain_loop_matches(TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3,
                                             adv_lr=0.0, adv_eps=0.01, seed=9))

    def test_clipped_and_decayed_steps_match_the_plain_loop(self):
        # the shards' squared norms are added in parameter order, as clip_grad_norm adds them
        self._plain_loop_matches(TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3,
                                             weight_decay=0.05, grad_clip_norm=1e-2,
                                             adv_lr=0.0, seed=9))

    def test_awp_on_changes_the_outcome(self):
        cfg_off = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3,
                              adv_lr=0.0, seed=9)
        cfg_on = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3,
                             adv_lr=1.0, adv_eps=0.01, awp_start_epoch=2, seed=9)
        outcomes = []
        for cfg in (cfg_off, cfg_on):
            model, records = tiny_model(seed=1)
            trainer = Trainer(model, cfg)
            examples = self._examples(model, records)
            for epoch in range(1, cfg.epochs + 1):
                trainer.run_epoch(examples, epoch)
            outcomes.append(model.parameter_snapshot())
        assert any(
            outcomes[0][n].tobytes() != outcomes[1][n].tobytes() for n in outcomes[0]
        )

    def test_restore_exactness_within_real_step(self):
        model, records = tiny_model(dropout=0.0)
        cfg = TrainConfig(epochs=2, batch_size=10, adv_lr=1.0, adv_eps=0.01,
                          awp_start_epoch=1, seed=5)
        trainer = Trainer(model, cfg)
        examples = self._examples(model, records)
        params = model.named_parameters()

        # capture pre-perturbation weights right before the optimizer step by
        # running the pieces manually
        trainer.global_step += 1
        trainer.opt.zero_grad()
        rng = dropout_stream(cfg.seed, trainer.global_step, 0, 0)
        for ids, targets in examples:
            _, grads = sequence_gradients(model, ids, targets, cfg.loss_kind,
                                          1.0 / len(examples), rng)
            for name, grad in grads.items():
                params[name].accumulate_grad(grad)
        before = {n: p.data.copy() for n, p in params.items()}
        snapshot = perturb(params, cfg.adv_lr, cfg.adv_eps)
        assert snapshot  # something actually moved
        restore(params, snapshot)
        for name, p in params.items():
            assert p.data.tobytes() == before[name].tobytes(), name

    def test_clean_graph_freed_before_adversarial_pass(self, monkeypatch):
        model, records = tiny_model(dropout=0.0)
        cfg = TrainConfig(batch_size=5, adv_lr=1.0, adv_eps=0.01, awp_start_epoch=1, seed=3)
        trainer = Trainer(model, cfg)
        clean_refs = []
        live_at_adv = []
        backward = Tensor.backward

        def recording_backward(loss, collect=None):
            if not live_at_adv:
                # Tensor has no __weakref__ slot; every interior node's data
                # array is owned by the graph alone
                stack = [loss]
                while stack:
                    node = stack.pop()
                    if node._vjp is not None:
                        clean_refs.append(weakref.ref(node.data))
                        stack.extend(node._parents)
            return backward(loss, collect)

        def recording_perturb(*args, **kwargs):
            live_at_adv.append(sum(r() is not None for r in clean_refs))
            return perturb(*args, **kwargs)

        monkeypatch.setattr(Tensor, "backward", recording_backward)
        monkeypatch.setattr(training, "perturb", recording_perturb)
        trainer.train_step(self._examples(model, records)[:5], epoch=1)
        assert len(clean_refs) > 100
        assert live_at_adv == [0]

    def test_non_finite_loss_aborts_with_diagnostics(self):
        model, records = tiny_model(dropout=0.0)
        params = model.named_parameters()
        params["enc.tok_emb"].data = np.full_like(params["enc.tok_emb"].data, np.nan)
        trainer = Trainer(model, TrainConfig(seed=0))
        with pytest.raises(NumericError, match="epoch 1"):
            trainer.train_step(self._examples(model, records)[:2], epoch=1)

    def test_empty_batch_rejected(self):
        model, _ = tiny_model()
        trainer = Trainer(model, TrainConfig())
        with pytest.raises(ValueError, match="empty"):
            trainer.train_step([], epoch=1)


class TestFit:
    def _setup(self, n=10, cfg=None, dropout=0.1):
        model, _ = tiny_model(dropout=dropout)
        records = synth_corpus(n, seed=33)
        from rubric.data import build_vocab
        from dataclasses import replace

        vocab = build_vocab(records[: n - 3])
        spec = replace(model.spec, vocab_size=vocab.size)
        model = Model.build(spec, seed=2, vocab=vocab)
        return model, records[: n - 3], records[n - 3 :]

    def test_reports_and_best_tracking(self):
        model, train_recs, valid_recs = self._setup()
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, adv_lr=1.0,
                          adv_eps=0.01, seed=7)
        report = fit(model, train_recs, valid_recs, cfg)
        assert len(report.rows) == 4
        assert [r.epoch for r in report.rows] == [1, 2, 3, 4]
        assert report.best_valid_mcrmse <= report.rows[-1].valid_mcrmse
        assert report.best_valid_mcrmse == min(r.valid_mcrmse for r in report.rows)
        assert not report.rows[0].awp_active and report.rows[1].awp_active
        # model holds the best checkpoint: re-evaluating reproduces the best metric
        assert abs(evaluate_model(model, valid_recs).mcrmse - report.best_valid_mcrmse) < 1e-12
        for row in report.rows:
            assert np.isfinite(row.train_loss)

    def test_identical_seeds_identical_reports(self):
        results = []
        for _ in range(2):
            model, train_recs, valid_recs = self._setup()
            cfg = TrainConfig(epochs=3, batch_size=4, adv_lr=1.0, adv_eps=0.01, seed=11)
            report = fit(model, train_recs, valid_recs, cfg)
            results.append((report, model.parameter_snapshot()))
        ra, rb = results[0][0], results[1][0]
        # wall-clock seconds is telemetry; every numeric field must match
        for rowa, rowb in zip(ra.rows, rb.rows):
            assert rowa.train_loss == rowb.train_loss
            assert rowa.valid_mcrmse == rowb.valid_mcrmse
            assert rowa.per_target_rmse == rowb.per_target_rmse
            assert rowa.awp_active == rowb.awp_active
        assert ra.best_epoch == rb.best_epoch
        for name in results[0][1]:
            assert results[0][1][name].tobytes() == results[1][1][name].tobytes()

    def test_overlapping_sets_rejected(self):
        model, train_recs, valid_recs = self._setup()
        with pytest.raises(ValueError, match="overlap"):
            fit(model, train_recs, train_recs[:2], TrainConfig(epochs=1))

    def test_empty_sets_rejected(self):
        model, train_recs, valid_recs = self._setup()
        with pytest.raises(ValueError, match="nonempty"):
            fit(model, [], valid_recs, TrainConfig(epochs=1))

    def test_report_csv_columns(self, tmp_path):
        model, train_recs, valid_recs = self._setup()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=1)
        report = fit(model, train_recs, valid_recs, cfg)
        path = tmp_path / "report.csv"
        report.to_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",") == [
            "epoch", "train_loss", "valid_mcrmse", "rmse_cohesion", "rmse_syntax",
            "rmse_vocabulary", "rmse_phraseology", "rmse_grammar", "rmse_conventions",
            "awp_active", "seconds",
        ]
        assert len(lines) == 3


class TestOptim:
    def test_adamw_first_step_is_signlike(self):
        # with fresh moments, mhat/(sqrt(vhat)+eps) ~= sign(g)
        from rubric.optim import AdamW

        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        p.grad = np.array([0.3, -0.7, 2.0])
        opt = AdamW({"p": p}, lr=0.01)
        opt.step()
        np.testing.assert_allclose(
            p.data, [1.0 - 0.01, -2.0 + 0.01, 0.5 - 0.01], atol=1e-6
        )

    def test_adamw_skips_gradless_params(self):
        from rubric.optim import AdamW

        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_decoupled_weight_decay(self):
        from rubric.optim import AdamW

        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.1)
        opt.step()
        # adam part ~ -lr * 1, decay part = -lr * wd * 2.0
        np.testing.assert_allclose(p.data, [2.0 - 0.01 - 0.01 * 0.1 * 2.0], atol=1e-6)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adamw_matches_reference_step_bit_for_bit(self, weight_decay):
        from rubric.optim import AdamW

        rng = np.random.default_rng(17)
        shapes = [tuple(int(n) for n in rng.integers(1, 9, size=rng.integers(1, 3)))
                  for _ in range(5)]
        params = {f"p{i}": Tensor(rng.normal(size=s), requires_grad=True)
                  for i, s in enumerate(shapes)}
        ref = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
        m = {n: np.zeros(p.shape) for n, p in params.items()}
        v = {n: np.zeros(p.shape) for n, p in params.items()}
        opt = AdamW(params, lr=3e-3, weight_decay=weight_decay)
        for t in range(1, 51):
            for i, name in enumerate(params):
                # one parameter sits out every third step, as a gradless head would
                grad = None if (t + i) % 3 == 0 else rng.normal(size=params[name].shape)
                params[name].grad = ref[name].grad = grad
            opt.step()
            reference_adamw_step(ref, m, v, t, lr=3e-3, weight_decay=weight_decay)
            for name in params:
                assert params[name].data.tobytes() == ref[name].data.tobytes(), (t, name)

    def test_clip_grad_norm_scales_in_place(self):
        from rubric.optim import clip_grad_norm

        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([0.0, 4.0])
        total = clip_grad_norm({"a": a, "b": b}, max_norm=1.0)
        assert abs(total - 5.0) < 1e-12
        np.testing.assert_allclose(a.grad, [0.6, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 0.8])

    def test_clip_noop_under_limit(self):
        from rubric.optim import clip_grad_norm

        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.0])
        clip_grad_norm({"a": a}, max_norm=1.0)
        np.testing.assert_allclose(a.grad, [0.3, 0.0])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TrainConfig(seed=-1)


class TestSplit:
    def test_split_is_disjoint_and_seeded(self):
        records = synth_corpus(20, seed=2)
        a_train, a_valid = train_valid_split(records, 0.25, seed=4)
        b_train, b_valid = train_valid_split(records, 0.25, seed=4)
        assert [r.text_id for r in a_valid] == [r.text_id for r in b_valid]
        assert len(a_valid) == 5
        assert {r.text_id for r in a_train}.isdisjoint({r.text_id for r in a_valid})

    def test_split_bounds(self):
        records = synth_corpus(4, seed=2)
        with pytest.raises(ValueError):
            train_valid_split(records, 0.0, seed=0)
        with pytest.raises(ValueError):
            train_valid_split(records[:1], 0.5, seed=0)
