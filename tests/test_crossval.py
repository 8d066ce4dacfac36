import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rubric import cli, crossval
from rubric.config import ConfigError
from rubric.crossval import (
    ORDERING_CELLS,
    SWAP_BLOCK,
    FoldPlan,
    _augmented,
    _best_swap,
    default_variants,
    mean_baseline_cv,
    random_kfold,
    run_ablation,
    run_cv,
    stratified_kfold,
)
from rubric.data import LATTICE_TOL, EssayRecord, build_vocab, synth_corpus, write_csv
from rubric.encoder import ModelSpec
from rubric.training import TrainConfig

from _oracles import (
    max_fold_mean_deviation,
    reference_best_swap,
    reference_stratified_kfold,
)


def distinct_records(n):
    """n records with pairwise-distinct label vectors (for pigeonhole tests)."""
    lattice = [1.0 + 0.5 * i for i in range(9)]
    records = []
    for i in range(n):
        scores = tuple(lattice[(i + j) % 9] for j in range(6))
        records.append(EssayRecord(f"d{i}", f"essay number {i}", scores))
    return records


class TestStratifiedKfold:
    def test_partition_is_disjoint_and_exhaustive(self):
        records = synth_corpus(53, seed=0)
        plan = stratified_kfold(records, k=5, seed=1)
        assert sorted(plan.assignment) == sorted(r.text_id for r in records)
        assert set(plan.assignment.values()) == set(range(5))

    def test_fold_sizes_differ_by_at_most_one(self):
        records = synth_corpus(53, seed=0)
        plan = stratified_kfold(records, k=5, seed=1)
        assert sorted(plan.fold_sizes) == [10, 10, 11, 11, 11]

    def test_pigeonhole_when_n_equals_k(self):
        records = distinct_records(4)
        plan = stratified_kfold(records, k=4, seed=0)
        assert sorted(plan.fold_sizes) == [1, 1, 1, 1]

    def test_deterministic_per_seed(self):
        records = synth_corpus(40, seed=3)
        a = stratified_kfold(records, k=5, seed=7)
        b = stratified_kfold(records, k=5, seed=7)
        c = stratified_kfold(records, k=5, seed=8)
        assert a.assignment == b.assignment
        assert a.assignment != c.assignment

    def test_unlabeled_record_rejected(self):
        records = [EssayRecord("u", "text")] + synth_corpus(5, seed=0)
        with pytest.raises(ValueError, match="scores"):
            stratified_kfold(records, k=2, seed=0)

    def test_k_bounds(self):
        records = synth_corpus(4, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(records, k=5, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(records, k=1, seed=0)

    def test_fold_means_stay_near_global(self):
        records = synth_corpus(300, seed=9)
        plan = stratified_kfold(records, k=5, seed=2)
        scores = np.array([r.scores for r in records])
        global_mean = scores.mean(axis=0)
        for fold in range(5):
            rows = [i for i, r in enumerate(records) if plan.assignment[r.text_id] == fold]
            np.testing.assert_allclose(scores[rows].mean(axis=0), global_mean, atol=0.1)

    def test_beats_random_split_on_max_deviation(self):
        records = synth_corpus(300, seed=12)
        wins = 0
        for seed in range(20):
            strat = max_fold_mean_deviation(records, stratified_kfold(records, 5, seed))
            rand = max_fold_mean_deviation(records, random_kfold(records, 5, seed))
            wins += strat <= rand
        assert wins >= 18

    def test_audit_statistics(self):
        records = synth_corpus(50, seed=4)
        plan = stratified_kfold(records, k=5, seed=0)
        assert len(plan.fold_target_means) == 5
        assert all(len(m) == 6 for m in plan.fold_target_means)
        total = sum(
            sum(col.values()) for fold in plan.lattice_counts for col in fold.values()
        )
        assert total == 50 * 6

    def test_json_round_trip(self, tmp_path):
        import json
        from dataclasses import asdict

        records = synth_corpus(20, seed=4)
        plan = stratified_kfold(records, k=4, seed=0)
        path = tmp_path / "plan.json"
        cli._write_json(str(path), asdict(plan))  # how the cv command writes fold_plan.json
        loaded = FoldPlan(**json.loads(path.read_text()))
        assert loaded.assignment == plan.assignment
        assert loaded.fold_sizes == plan.fold_sizes
        assert loaded == plan


def lattice_records(n, seed):
    """n records with seeded half-point scores bunched around 3, so the
    extreme lattice values are rare indicators."""
    rng = np.random.default_rng(seed)
    scores = np.clip(np.rint(rng.normal(3.0, 0.7, size=(n, 6)) * 2.0) / 2.0, 1.0, 5.0)
    return [
        EssayRecord(f"l{i}", f"essay {i}", tuple(row)) for i, row in enumerate(scores.tolist())
    ]


@pytest.fixture(scope="module")
def synth300():
    return synth_corpus(300, seed=21)


class TestMatchesReference:
    """The splitter returns the frozen reference's plan, field for field."""

    @staticmethod
    def assert_same_plan(records, k, seed):
        assert stratified_kfold(records, k, seed) == reference_stratified_kfold(records, k, seed)

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_same_plan_as_reference(self, k, synth300):
        for n in sorted({k, 7, 40, 300}):
            if n < k:
                continue
            for seed in (0, 1):
                self.assert_same_plan(synth300[:n], k, seed)
                self.assert_same_plan(distinct_records(n), k, seed)
        self.assert_same_plan(lattice_records(1000, seed=k), k, 3)
        # folds of 200-1,000 rows span several scan blocks
        self.assert_same_plan(lattice_records(2000, seed=k), k, 3)
        # each score vector three times, so equal swaps tie across blocks
        triples = [
            EssayRecord(f"{r.text_id}-{c}", r.full_text, r.scores)
            for c in range(3) for r in synth300
        ]
        self.assert_same_plan(triples, k, 2)

    def test_same_plan_off_lattice(self, synth300):
        rng = np.random.default_rng(4)
        moved = [
            EssayRecord(r.text_id, r.full_text,
                        tuple(s + rng.uniform(-0.9, 0.9) * LATTICE_TOL for s in r.scores))
            for r in synth300
        ]
        for k, seed in ((3, 0), (5, 1), (10, 2)):
            self.assert_same_plan(moved, k, seed)

    def test_same_plan_at_the_benchmark_shape(self):
        records = synth_corpus(2000, seed=23)
        for seed in range(4):
            self.assert_same_plan(records, 5, seed)


@st.composite
def half_point_rows(draw):
    """1-300 rows of six half-point scores, some of them repeated."""
    rows = draw(arrays(np.float64, (draw(st.integers(1, 300)), 6),
                       elements=st.sampled_from([1.0 + 0.5 * i for i in range(9)])))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=300 - len(rows)))
    return np.concatenate([rows, rows[repeats]])


@settings(max_examples=60)
@given(half_point_rows(), half_point_rows())
def test_augmented_product_is_exact_on_the_lattice(sa, sb):
    """The swap scan's squared distances equal the plain expression's bits."""
    left, _ = _augmented(sa)
    _, right = _augmented(sb)
    plain = ((sa * sa).sum(axis=1)[:, None] + (sb * sb).sum(axis=1)) - 2.0 * (sa @ sb.T)
    assert np.array_equal(left @ right.T, plain)


@settings(max_examples=80)
@given(half_point_rows(), half_point_rows(), st.booleans(), st.integers(0, 2**32 - 1))
def test_screened_swap_search_matches_the_blocked_scan(sa, sb, jitter, seed):
    """Same (change, p, q) as the frozen scan, ties and last bits included."""
    if jitter:
        rng = np.random.default_rng(seed)
        sa = sa + rng.uniform(-1.0, 1.0, sa.shape) * LATTICE_TOL
        sb = sb + rng.uniform(-1.0, 1.0, sb.shape) * LATTICE_TOL
    # the direction and curvature the refinement forms for a fold pair
    global_mean = np.concatenate([sa, sb]).mean(axis=0)
    na, nb = float(len(sa)), float(len(sb))
    deviation_a = sa.sum(axis=0) / na - global_mean
    deviation_b = sb.sum(axis=0) / nb - global_mean
    direction = deviation_a / na - deviation_b / nb
    curvature = 1.0 / na**2 + 1.0 / nb**2
    left_a, right_b = _augmented(sa)[0], _augmented(sb)[1].T
    buf = np.empty(min(SWAP_BLOCK, len(sa)) * len(sb))
    got = _best_swap(sa, sb, left_a, right_b, direction, curvature, buf)
    assert got == reference_best_swap(sa, sb, left_a, right_b, direction, curvature)


class TestBaseline:
    def test_matches_closed_form_double_loop(self):
        records = synth_corpus(30, seed=5)
        plan = stratified_kfold(records, k=3, seed=1)
        got = mean_baseline_cv(records, plan)

        scores = np.array([r.scores for r in records])
        total = 0.0
        for j in range(6):
            acc = 0.0
            for i, r in enumerate(records):
                fold = plan.assignment[r.text_id]
                train_rows = [
                    ii for ii, rr in enumerate(records) if plan.assignment[rr.text_id] != fold
                ]
                mean_j = scores[train_rows, j].mean()
                acc += (scores[i, j] - mean_j) ** 2
            total += math.sqrt(acc / len(records))
        assert abs(got.mcrmse - total / 6) <= 1e-12


def fast_cfg(**kw):
    base = dict(epochs=2, batch_size=4, learning_rate=1e-3, adv_lr=1.0, adv_eps=0.01,
                awp_start_epoch=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def fast_spec(**kw):
    base = dict(vocab_size=2, max_seq_len=256, d_model=16, n_layers=1, n_heads=2,
                d_ff=32, dropout_p=0.0)
    base.update(kw)
    return ModelSpec(**base)


class TestRunCv:
    def test_two_folds_on_eight_records(self):
        records = synth_corpus(8, seed=6)
        result = run_cv(records, fast_spec(), fast_cfg(), k=2, seed=0)
        assert result.plan.fold_sizes == [4, 4]
        assert len(result.train_reports) == 2
        # out-of-fold predictions cover every record exactly once
        assert sorted(result.oof) == sorted(r.text_id for r in records)
        assert result.pooled.n_records == 8
        assert np.isfinite(result.pooled.mcrmse)
        assert abs(
            result.fold_mean_mcrmse - np.mean([r.valid.mcrmse for r in result.train_reports])
        ) <= 1e-12

    def test_deterministic(self):
        records = synth_corpus(8, seed=6)
        a = run_cv(records, fast_spec(), fast_cfg(), k=2, seed=3)
        b = run_cv(records, fast_spec(), fast_cfg(), k=2, seed=3)
        assert a.oof == b.oof
        assert a.pooled == b.pooled

    def test_trained_model_beats_constant_mean_baseline(self):
        records = synth_corpus(100, seed=23)
        spec = fast_spec(d_model=24, d_ff=48, dropout_p=0.1)
        cfg = fast_cfg(epochs=10, batch_size=8, learning_rate=1.5e-3)
        result = run_cv(records, spec, cfg, k=2, seed=5)
        assert result.pooled.mcrmse < result.baseline.mcrmse

    def test_fold_vocab_excludes_validation_only_tokens(self):
        # the word "xylophone" appears only in two records; when both land in
        # the same fold, the other fold's vocabulary must not contain it
        records = synth_corpus(6, seed=6)
        special = [
            EssayRecord("sp-0", "he writes about the xylophone .", (3.0,) * 6),
            EssayRecord("sp-1", "she reads about the xylophone .", (3.0,) * 6),
        ]
        all_records = records + special
        plan = stratified_kfold(all_records, k=2, seed=0)
        for fold in range(2):
            train = [r for r in all_records if plan.assignment[r.text_id] != fold]
            vocab = build_vocab(train)
            has_special = any(r.text_id.startswith("sp-") for r in train)
            assert ("xylophone" in vocab) == has_special
            if not has_special:
                assert vocab.encode(["xylophone"]) == [1]  # unknown id


class TestAblation:
    def test_grid_rows_and_shared_plan(self):
        records = synth_corpus(12, seed=7)
        variants = [v for v in default_variants() if v.name in ("6ap+awp", "6ap")]
        result = run_ablation(
            records, fast_spec(), fast_cfg(epochs=1, awp_start_epoch=1), k=2, seeds=(0, 1),
            variants=variants,
        )
        assert len(result.rows) == len(variants) * 2
        assert {r.variant for r in result.rows} == {"6ap+awp", "6ap"}
        for name in ("6ap+awp", "6ap"):
            assert result.summary[name]["n_seeds"] == 2
        # ordering summary only reported when all three cells are present
        assert result.ordering["cells_present"] is False

    def test_a_repeated_seed_is_rejected(self):
        with pytest.raises(ValueError, match=re.escape("(0, 0)")):
            run_ablation(synth_corpus(12, seed=7), fast_spec(), fast_cfg(epochs=1), k=2,
                         seeds=(0, 0))

    @pytest.mark.parametrize("change", [
        dict(epochs=1), dict(adv_lr=0.0), dict(adv_eps=0.0),
    ])
    def test_awp_cells_that_would_never_perturb_are_rejected(self, change, monkeypatch):
        # 6ap+awp would train exactly as 6ap does, and the summary would
        # still credit AWP with the result
        class Trained(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Trained

        monkeypatch.setattr(crossval, "run_cv", refuse)
        records, cfg = synth_corpus(12, seed=7), fast_cfg(**change)
        with pytest.raises(ConfigError) as info:
            run_ablation(records, fast_spec(), cfg, k=2, seeds=(0, 1))
        for key in ("train.adv_lr", "train.adv_eps", "train.awp_start_epoch", "train.epochs"):
            assert key in str(info.value)
        # a grid without AWP cells needs no perturbation and goes on to train
        no_awp = [v for v in default_variants() if not v.awp]
        with pytest.raises(Trained):
            run_ablation(records, fast_spec(), cfg, k=2, seeds=(0,), variants=no_awp)

    def test_awp_column_is_the_only_config_difference(self):
        variants = default_variants()
        by_name = {v.name: v for v in variants}
        assert by_name["6ap+awp"].pooling_mode == by_name["6ap"].pooling_mode
        assert by_name["6ap+awp"].awp and not by_name["6ap"].awp
        assert [(v.name, v.pooling_mode, v.awp) for v in variants] == [
            ("6ap+awp", "six_metric_attention", True), ("6ap", "six_metric_attention", False),
            ("ap+awp", "single_attention", True), ("ap", "single_attention", False),
            ("mean+awp", "mean", True), ("mean", "mean", False),
        ]
        # the short grid runs the ordering's cells in the ordering's order
        assert [v.name for v in default_variants(False)] == list(ORDERING_CELLS)
        assert ORDERING_CELLS == ("6ap+awp", "ap+awp", "6ap")

    def test_a_failed_ordering_claims_no_margin_it_did_not_measure(self, tmp_path, monkeypatch,
                                                                   capsys):
        # the six-head AWP cell scores worst, so the paper's ordering fails
        worst = {"six_metric_attention": 0.9, "single_attention": 0.5, "mean": 0.6}

        def scored_cv(records, spec, config, **kwargs):
            score = worst[spec.pooling_mode] - (0.1 if config.adv_lr > 0 else 0.0)
            return SimpleNamespace(pooled=SimpleNamespace(mcrmse=score), fold_mean_mcrmse=score)

        monkeypatch.setattr(crossval, "run_cv", scored_cv)
        data, out = tmp_path / "corpus.csv", tmp_path / "out"
        write_csv(synth_corpus(12, seed=7), str(data))
        assert cli.main(["ablate", "--data", str(data), "--out", str(out), "--folds", "2",
                         "--seeds", "0"]) == 0
        ordering = json.loads((out / "summary.json").read_text())["ordering"]
        assert ordering["matched"] is False
        note = "documented deviation: toy-scale ordering differs"
        assert ordering["note"] == note
        assert f"ablate: {note}\n" in capsys.readouterr().out

    def test_csv_emission(self, tmp_path, monkeypatch):
        records = synth_corpus(12, seed=7)
        variants = [v for v in default_variants() if v.name == "mean"]
        result = run_ablation(
            records, fast_spec(pooling_mode="mean"), fast_cfg(epochs=1), k=2,
            seeds=(0,), variants=variants,
        )
        # the ablate command writes the CSVs; hand it this one-cell result
        monkeypatch.setattr(cli, "run_ablation", lambda *args, **kwargs: result)
        data = tmp_path / "corpus.csv"
        write_csv(records, str(data))
        out = tmp_path / "out"
        assert cli.main(["ablate", "--data", str(data), "--out", str(out), "--folds", "2"]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0] == "variant,pooling,awp,seed,cv_pooled,cv_fold_mean"
        assert len(rows) == 2
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert summary[0] == "variant,mean_cv,std_cv,n_seeds"
