"""Multilabel-stratified k-fold splitting, cross-validation, and ablation.

The splitter runs iterative stratification over the binary indicators
(target, lattice value): process indicators from rarest to most common,
and send each record to the fold with the largest remaining demand for
that indicator, breaking ties by remaining fold capacity and then by a
seeded draw. Fold capacities are hard, so fold sizes never differ by more
than one. A deterministic refinement phase then swaps records between
folds while each swap strictly reduces the squared deviation of per-fold
target means from the global means; count-greedy assignment alone leaves
mean imbalances around 0.15 on 300-record corpora, and downstream quality
checks need the fold means tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError
from .data import EssayRecord, TARGETS, build_vocab
from .encoder import ModelSpec
from .metrics import MetricsReport, mcrmse
from .model import Model
from .training import TrainConfig, TrainReport, fit

_KFOLD_TAG = 0xF01D
# rows of fold a per block of the swap search: 128 x 400 float64 matrices at
# 2,000 essays, k = 5, so a block's one matrix stays in a 2 MiB L2
SWAP_BLOCK = 128


@dataclass
class FoldPlan:
    """Record-to-fold assignment plus per-fold label statistics."""

    k: int
    assignment: dict[str, int]
    fold_sizes: list[int]
    fold_target_means: list[list[float]]  # [fold][target]
    lattice_counts: list[dict[str, dict[str, int]]]  # [fold][target][score]


def _check_split_inputs(records: list[EssayRecord], k: int, seed: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if k > len(records):
        raise ValueError(f"k={k} exceeds the number of records ({len(records)})")
    for r in records:
        if not r.labeled:
            raise ValueError(f"record {r.text_id!r} has no scores; splitting needs labels")
    ids = [r.text_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("records contain duplicate text_ids")


def _audit(scores: np.ndarray, fold_of: np.ndarray, k: int):
    sizes, means, counts = [], [], []
    for f in range(k):
        fold = scores[fold_of == f]  # record order, which fixes the means' rounding
        sizes.append(len(fold))
        means.append([float(v) for v in fold.mean(axis=0)])
        fold_counts: dict[str, dict[str, int]] = {}
        for j, name in enumerate(TARGETS):
            values, tallies = np.unique(fold[:, j], return_counts=True)
            fold_counts[name] = dict(zip(map(repr, values.tolist()), tallies.tolist()))
        counts.append(fold_counts)
    return sizes, means, counts


def _plan(records: list[EssayRecord], scores: np.ndarray, fold_of: np.ndarray, k: int):
    assignment = dict(zip((r.text_id for r in records), fold_of.tolist()))
    return FoldPlan(k, assignment, *_audit(scores, fold_of, k))


def stratified_kfold(records: list[EssayRecord], k: int = 5, seed: int = 0) -> FoldPlan:
    """Iterative stratification over the (target, lattice value) indicators."""
    _check_split_inputs(records, k, seed)
    n = len(records)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _KFOLD_TAG)))
    scores = np.array([r.scores for r in records], dtype=np.float64)

    # each record carries exactly one indicator per target, (j, 2 * score);
    # they are numbered in (j, 2 * score) order, so numbers break ties as the
    # pairs would
    doubled = np.rint(2.0 * scores).astype(np.int64)
    low = doubled.min()
    keys = (doubled - low) + np.arange(doubled.shape[1]) * (doubled.max() - low + 1)
    _, numbers, totals = np.unique(keys.ravel(), return_inverse=True, return_counts=True)
    rec_indicators = numbers.reshape(keys.shape).tolist()
    remaining = totals.tolist()
    capacity = [n // k + (1 if f < n % k else 0) for f in range(k)]
    # desired[x][f]: fold f's remaining demand for indicator x
    desired = [[total * capacity[f] / n for f in range(k)] for total in remaining]

    order = rng.permutation(n).tolist()  # seeded processing order inside each group
    holders: list[list[int]] = [[] for _ in remaining]  # each in `order`
    for i in order:
        for x in rec_indicators[i]:
            holders[x].append(i)
    fold_of = [-1] * n
    open_folds = list(range(k))  # the folds with room left, in order
    unassigned = n

    while unassigned:
        _, x_star = min((cnt, x) for x, cnt in enumerate(remaining) if cnt > 0)
        demand = desired[x_star]
        for i in holders[x_star]:
            if fold_of[i] >= 0:
                continue
            best_demand = max(demand[f] for f in open_folds)
            candidates = [f for f in open_folds if demand[f] == best_demand]
            if len(candidates) > 1:
                most_room = max(capacity[f] for f in candidates)
                candidates = [f for f in candidates if capacity[f] == most_room]
            fold = candidates[int(rng.integers(len(candidates)))] if len(candidates) > 1 \
                else candidates[0]

            fold_of[i] = fold
            capacity[fold] -= 1
            if not capacity[fold]:
                open_folds.remove(fold)
            unassigned -= 1
            for x in rec_indicators[i]:
                desired[x][fold] -= 1
                remaining[x] -= 1

    fold_of = np.array(fold_of)
    _refine_mean_balance(scores, fold_of, k)
    return _plan(records, scores, fold_of, k)


def _augmented(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows [-2 s, |s|^2, 1] and [s, 1, |s|^2], whose products are |s_i - s_j|^2.

    On the half-point lattice every term and partial sum of a product is a
    multiple of 1/4 below 2^10, so it equals (|s_i|^2 + |s_j|^2) - 2 s_i.s_j
    bit for bit in any summation order. Off the lattice it is within rounding.
    """
    norms = (scores * scores).sum(axis=1)[:, None]
    ones = np.ones_like(norms)
    return np.hstack([-2.0 * scores, norms, ones]), np.hstack([scores, ones, norms])


def _best_swap(
    scores_a: np.ndarray,
    scores_b: np.ndarray,
    left_a: np.ndarray,
    right_b: np.ndarray,
    direction: np.ndarray,
    curvature: float,
    buf: np.ndarray,
) -> tuple[float, int, int]:
    """The lowest objective change over swaps of a row of fold a with one of b.

    Swapping i (fold a) with j (fold b) moves the objective by
    2 d.direction + |d|^2 curvature, where d = s_j - s_i. Its exact value is
    fl(fl(gain_a_i + gain_b_j) + fl(|d|^2 curvature)), with |d|^2 from the
    product of `_augmented` rows (`left_a`, `right_b`) over blocks of
    SWAP_BLOCK rows of fold a. Returns (change, row in a, row in b); ties go
    to the first flat index. `buf` holds one block's (rows, len(b)) matrix.

    A screen first gives each change as one product of 10-column rows,
    [c (-2 s_i), c |s_i|^2, c, gain_a_i, 1] . [s_j, 1, |s_j|^2, 1, gain_b_j]
    with c the curvature. Its ten terms add up to at most `scale` in
    magnitude; the screen is within 11 * 2^-53 * scale of the real change
    and the exact value within 11 * 2^-53 * scale too (3 on the lattice,
    where |d|^2 is exact). So every exact minimum screens within the margin
    2^-39 * scale of the lowest screened value, and only the entries that
    screen there are evaluated exactly, from their block's product.
    """
    rows_a, cols = len(scores_a), len(scores_b)
    # doubling is exact, so it is done on the small operands
    gain_a = -2.0 * (scores_a @ direction)
    gain_b = 2.0 * (scores_b @ direction)
    screen_a = np.empty((rows_a, 10))
    np.multiply(left_a, curvature, out=screen_a[:, :8])
    screen_a[:, 8] = gain_a
    screen_a[:, 9] = 1.0
    screen_b = np.empty((10, cols))
    screen_b[:8] = right_b
    screen_b[8] = 1.0
    screen_b[9] = gain_b
    norms = max(left_a[:, 6].max(), right_b[7].max())  # the |s|^2 columns
    scale = 4.0 * curvature * norms + np.abs(gain_a).max() + np.abs(gain_b).max()
    margin = 2.0**-39 * scale
    lowest = np.inf
    kept = []  # (first row, rows, lowest screened value, flat indices) per block
    for start in range(0, rows_a, SWAP_BLOCK):
        rows = min(SWAP_BLOCK, rows_a - start)
        screen = buf[: rows * cols].reshape(rows, cols)
        np.matmul(screen_a[start : start + rows], screen_b, out=screen)
        low = float(screen.min())
        if low <= lowest + margin:
            lowest = min(lowest, low)
            kept.append((start, rows, low, np.flatnonzero(screen <= lowest + margin)))
    # blocks in order, the first minimum within one and a strict < across
    # them, so ties stay on the first flat index
    found = (np.inf, 0, 0)
    for start, rows, low, flat in kept:
        if low > lowest + margin:
            continue
        dist2 = buf[: rows * cols].reshape(rows, cols)
        np.matmul(left_a[start : start + rows], right_b, out=dist2)
        p, q = np.divmod(flat, cols)
        exact = (gain_a[start + p] + gain_b[q]) + dist2.flat[flat] * curvature
        first = int(np.argmin(exact))
        if exact[first] < found[0]:
            found = (float(exact[first]), start + int(p[first]), int(q[first]))
    return found


def _refine_mean_balance(
    scores: np.ndarray,
    fold_of: np.ndarray,
    k: int,
    tol: float = 1e-10,
) -> None:
    """Best-improvement swap refinement of per-fold target means, in place.

    Repeatedly applies the single cross-fold record swap that most reduces
    sum over (fold, target) of (fold mean - global mean)^2, until no swap
    improves it. Fold sizes are preserved; the procedure is deterministic.

    Each fold pair's best swap is kept between passes: a swap between folds
    a and b changes only the members, sums and deviations of a and b, so
    only the pairs containing a or b are recomputed. The pairs are scanned
    in a fixed order with a strict comparison, so ties go to the first.
    """
    n, _ = scores.shape
    idx_by_fold = [np.flatnonzero(fold_of == f) for f in range(k)]
    sums = np.stack([scores[idx].sum(axis=0) for idx in idx_by_fold])
    sizes = np.array([len(idx) for idx in idx_by_fold], dtype=np.float64)
    global_mean = scores.mean(axis=0)
    deviation = sums / sizes[:, None] - global_mean
    left, right = _augmented(scores)
    # each fold's score and augmented rows, in idx_by_fold order
    rows_by_fold = [(scores[idx], left[idx], right[idx]) for idx in idx_by_fold]
    largest = max(len(idx) for idx in idx_by_fold)
    buf = np.empty(min(SWAP_BLOCK, largest) * largest)

    def best_swap_between(a: int, b: int) -> tuple[float, int, int]:
        (scores_a, left_a, _), (scores_b, _, right_b) = rows_by_fold[a], rows_by_fold[b]
        direction = deviation[a] / sizes[a] - deviation[b] / sizes[b]
        curvature = 1.0 / sizes[a] ** 2 + 1.0 / sizes[b] ** 2
        return _best_swap(scores_a, scores_b, left_a, right_b.T, direction, curvature, buf)

    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    best = {pair: best_swap_between(*pair) for pair in pairs}
    for _ in range(4 * n):  # each swap strictly improves, so this terminates early
        best_gain = -tol
        best_swap = None
        for pair in pairs:
            gain, p, q = best[pair]
            if gain < best_gain:
                best_gain = gain
                best_swap = (*pair, p, q)
        if best_swap is None:
            break
        a, b, p, q = best_swap
        i, j = int(idx_by_fold[a][p]), int(idx_by_fold[b][q])
        idx_by_fold[a][p], idx_by_fold[b][q] = j, i
        fold_of[i], fold_of[j] = b, a
        for fold, row, record in ((a, p, j), (b, q, i)):
            for held, source in zip(rows_by_fold[fold], (scores, left, right)):
                held[row] = source[record]
        move = scores[j] - scores[i]
        sums[a] += move
        sums[b] -= move
        deviation = sums / sizes[:, None] - global_mean
        for pair in pairs:
            if a in pair or b in pair:
                best[pair] = best_swap_between(*pair)


def random_kfold(records: list[EssayRecord], k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded uniform split with balanced fold sizes; the naive baseline."""
    _check_split_inputs(records, k, seed)
    n = len(records)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _KFOLD_TAG)))
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    pos = 0
    for fold in range(k):
        size = n // k + (1 if fold < n % k else 0)
        fold_of[order[pos : pos + size]] = fold
        pos += size
    scores = np.array([r.scores for r in records], dtype=np.float64)
    return _plan(records, scores, fold_of, k)


# ----------------------------------------------------------------------
# cross-validation


@dataclass
class CvResult:
    plan: FoldPlan
    fold_reports: list[MetricsReport]
    pooled: MetricsReport  # MCRMSE over concatenated out-of-fold predictions
    fold_mean_mcrmse: float
    baseline: MetricsReport  # per-fold train-mean constant predictor
    oof: dict[str, tuple[float, ...]]
    train_reports: list[TrainReport] = field(default_factory=list)


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence((seed, fold)).generate_state(1)[0])


def mean_baseline_cv(records: list[EssayRecord], plan: FoldPlan) -> MetricsReport:
    """Pooled out-of-fold score of the per-target training-mean predictor."""
    truth = np.array([r.scores for r in records], dtype=np.float64)
    fold_of = np.array([plan.assignment[r.text_id] for r in records])
    preds = np.empty_like(truth)
    for fold in range(plan.k):
        valid = fold_of == fold
        preds[valid] = truth[~valid].mean(axis=0)  # record order keeps the means' bits
    return mcrmse(truth, preds)


def run_cv(
    records: list[EssayRecord],
    model_spec: ModelSpec,
    train_config: TrainConfig,
    k: int = 5,
    seed: int = 0,
    plan: FoldPlan | None = None,
    min_count: int = 1,
) -> CvResult:
    """Train one model per fold and score the held-out predictions.

    Per fold, the vocabulary is rebuilt from the training split only, the
    model trains with the held-out fold as its validation set, and the best
    checkpoint predicts the held-out records. The aggregate score pools all
    out-of-fold predictions; the mean of per-fold scores is also reported.
    """
    if plan is None:
        plan = stratified_kfold(records, k=k, seed=seed)
    elif plan.k != k:
        raise ValueError(f"provided plan has k={plan.k}, expected {k}")

    by_id = {r.text_id: r for r in records}
    missing = set(by_id) - set(plan.assignment)
    if missing:
        raise ValueError(f"fold plan is missing records: {sorted(missing)[:3]}")

    oof: dict[str, tuple[float, ...]] = {}
    fold_reports: list[MetricsReport] = []
    train_reports: list[TrainReport] = []
    for fold in range(plan.k):
        train_recs = [r for r in records if plan.assignment[r.text_id] != fold]
        valid_recs = [r for r in records if plan.assignment[r.text_id] == fold]
        vocab = build_vocab(train_recs, min_count=min_count)
        spec = replace(model_spec, vocab_size=vocab.size)
        fold_seed = _fold_seed(seed, fold)
        model = Model.build(spec, seed=fold_seed, vocab=vocab)
        config = replace(train_config, seed=fold_seed)
        train_reports.append(fit(model, train_recs, valid_recs, config))

        preds = model.predict_records(valid_recs, clip=True)
        truth = np.array([r.scores for r in valid_recs], dtype=np.float64)
        fold_reports.append(mcrmse(truth, preds))
        for rec, row in zip(valid_recs, preds):
            oof[rec.text_id] = tuple(float(v) for v in row)

    truth_all = np.array([r.scores for r in records], dtype=np.float64)
    pred_all = np.array([oof[r.text_id] for r in records], dtype=np.float64)
    return CvResult(
        plan=plan,
        fold_reports=fold_reports,
        pooled=mcrmse(truth_all, pred_all),
        fold_mean_mcrmse=float(np.mean([r.mcrmse for r in fold_reports])),
        baseline=mean_baseline_cv(records, plan),
        oof=oof,
        train_reports=train_reports,
    )


# ----------------------------------------------------------------------
# ablation grid


VARIANT_LABELS = {
    "six_metric_attention": "6ap",
    "single_attention": "ap",
    "mean": "mean",
}

# the three cells whose ordering mirrors the reference comparison
ORDERING_CELLS = ("6ap+awp", "ap+awp", "6ap")


@dataclass(frozen=True)
class AblationVariant:
    name: str
    pooling_mode: str
    awp: bool


def default_variants() -> list[AblationVariant]:
    variants = []
    for mode in ("six_metric_attention", "single_attention", "mean"):
        for awp in (True, False):
            label = VARIANT_LABELS[mode] + ("+awp" if awp else "")
            variants.append(AblationVariant(label, mode, awp))
    return variants


@dataclass
class AblationRow:
    variant: str
    pooling_mode: str
    awp: bool
    seed: int
    cv_pooled: float
    cv_fold_mean: float


@dataclass
class AblationResult:
    rows: list[AblationRow]
    summary: dict[str, dict[str, float]]  # variant -> {mean, std, n_seeds}
    ordering: dict
    seed_plans: dict[int, FoldPlan] = field(default_factory=dict)


def run_ablation(
    records: list[EssayRecord],
    model_spec: ModelSpec,
    train_config: TrainConfig,
    k: int = 5,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    variants: list[AblationVariant] | None = None,
    min_count: int = 1,
) -> AblationResult:
    """Controlled pooling/AWP comparison: per seed, every variant shares the
    same fold plan and derived per-fold seeds; only the configuration cell
    differs. Each seed counts once, so a repeated seed raises ValueError, and
    an AWP cell that would never perturb raises ConfigError before any fit."""
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be distinct, got {tuple(seeds)}")
    if variants is None:
        variants = default_variants()
    cfg = train_config
    if any(v.awp for v in variants) and (
        not cfg.awp_enabled or cfg.awp_start_epoch > cfg.epochs
    ):
        raise ConfigError(
            "the AWP cells would never perturb: they need train.adv_lr > 0 and "
            f"train.adv_eps > 0 (got {cfg.adv_lr!r} and {cfg.adv_eps!r}) and "
            f"train.awp_start_epoch <= train.epochs (got {cfg.awp_start_epoch} and "
            f"{cfg.epochs})"
        )
    rows: list[AblationRow] = []
    seed_plans: dict[int, FoldPlan] = {}
    for seed in seeds:
        plan = stratified_kfold(records, k=k, seed=seed)
        seed_plans[seed] = plan
        for variant in variants:
            spec = replace(model_spec, pooling_mode=variant.pooling_mode)
            config = train_config if variant.awp else replace(train_config, adv_lr=0.0)
            result = run_cv(
                records, spec, config, k=k, seed=seed, plan=plan, min_count=min_count
            )
            rows.append(
                AblationRow(
                    variant=variant.name,
                    pooling_mode=variant.pooling_mode,
                    awp=variant.awp,
                    seed=seed,
                    cv_pooled=result.pooled.mcrmse,
                    cv_fold_mean=result.fold_mean_mcrmse,
                )
            )

    summary: dict[str, dict[str, float]] = {}
    for variant in variants:
        values = [r.cv_pooled for r in rows if r.variant == variant.name]
        summary[variant.name] = {
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "n_seeds": len(values),
        }

    ordering: dict = {"cells_present": all(c in summary for c in ORDERING_CELLS)}
    if ordering["cells_present"]:
        best, single_awp, no_awp = (summary[c]["mean"] for c in ORDERING_CELLS)
        ordering["mean_cv"] = dict(zip(ORDERING_CELLS, (best, single_awp, no_awp)))
        ordering["six_ap_beats_single_ap"] = bool(best <= single_awp)
        ordering["awp_beats_no_awp"] = bool(best <= no_awp)
        ordering["matched"] = bool(best <= single_awp and best <= no_awp)
        ordering["note"] = (
            "orderings matched"
            if ordering["matched"]
            else "documented deviation: toy-scale ordering differs; margins are within noise"
        )
    return AblationResult(rows=rows, summary=summary, ordering=ordering,
                          seed_plans=seed_plans)
