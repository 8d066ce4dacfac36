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

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import EssayRecord, TARGETS, build_vocab
from .encoder import ModelSpec
from .metrics import MetricsReport, mcrmse
from .model import Model
from .training import TrainConfig, TrainReport, fit

_KFOLD_TAG = 0xF01D
# rows of fold a per block of the swap scan: 128 x 400 float64 matrices at
# 2,000 essays, k = 5, so the scan's two matrices stay in a 2 MiB L2
SWAP_BLOCK = 128


@dataclass
class FoldPlan:
    """Record-to-fold assignment plus per-fold label statistics."""

    k: int
    assignment: dict[str, int]
    fold_sizes: list[int]
    fold_target_means: list[list[float]]  # [fold][target]
    lattice_counts: list[dict[str, dict[str, int]]]  # [fold][target][score]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "assignment": self.assignment,
            "fold_sizes": self.fold_sizes,
            "fold_target_means": self.fold_target_means,
            "lattice_counts": self.lattice_counts,
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, d: dict) -> "FoldPlan":
        return cls(
            k=d["k"],
            assignment=d["assignment"],
            fold_sizes=d["fold_sizes"],
            fold_target_means=d["fold_target_means"],
            lattice_counts=d["lattice_counts"],
        )


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


def _audit(records: list[EssayRecord], assignment: dict[str, int], k: int):
    scores = np.array([r.scores for r in records], dtype=np.float64)
    fold_of = np.array([assignment[r.text_id] for r in records])
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


def stratified_kfold(records: list[EssayRecord], k: int = 5, seed: int = 0) -> FoldPlan:
    """Iterative stratification over the (target, lattice value) indicators."""
    _check_split_inputs(records, k, seed)
    n = len(records)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _KFOLD_TAG)))

    # each record carries exactly one indicator per target: (j, 2 * score)
    doubled = np.rint(2.0 * np.array([r.scores for r in records], dtype=np.float64))
    rec_indicators = [tuple(enumerate(row)) for row in doubled.astype(int).tolist()]
    capacity = [n // k + (1 if f < n % k else 0) for f in range(k)]

    remaining: dict[tuple, int] = {}
    for inds in rec_indicators:
        for ind in inds:
            remaining[ind] = remaining.get(ind, 0) + 1
    desired = [
        {ind: total * capacity[f] / n for ind, total in remaining.items()} for f in range(k)
    ]

    order = rng.permutation(n).tolist()  # seeded processing order inside each group
    holders: dict[tuple, list[int]] = {ind: [] for ind in remaining}  # each in `order`
    for i in order:
        for ind in rec_indicators[i]:
            holders[ind].append(i)
    unassigned = set(range(n))
    assignment: dict[str, int] = {}

    while unassigned:
        ind_star = min(
            (ind for ind, cnt in remaining.items() if cnt > 0),
            key=lambda ind: (remaining[ind], ind),
        )
        members = [i for i in holders[ind_star] if i in unassigned]
        for i in members:
            candidates = [f for f in range(k) if capacity[f] > 0]
            best_demand = max(desired[f][ind_star] for f in candidates)
            candidates = [f for f in candidates if desired[f][ind_star] == best_demand]
            if len(candidates) > 1:
                most_room = max(capacity[f] for f in candidates)
                candidates = [f for f in candidates if capacity[f] == most_room]
            fold = candidates[int(rng.integers(len(candidates)))] if len(candidates) > 1 \
                else candidates[0]

            assignment[records[i].text_id] = fold
            capacity[fold] -= 1
            unassigned.remove(i)
            for ind in rec_indicators[i]:
                desired[fold][ind] -= 1
                remaining[ind] -= 1

    _refine_mean_balance(records, assignment, k)
    sizes, means, counts = _audit(records, assignment, k)
    return FoldPlan(k, assignment, sizes, means, counts)


def _augmented(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows [-2 s, |s|^2, 1] and [s, 1, |s|^2], whose products are |s_i - s_j|^2.

    On the half-point lattice every term and partial sum of a product is a
    multiple of 1/4 below 2^10, so it equals (|s_i|^2 + |s_j|^2) - 2 s_i.s_j
    bit for bit in any summation order. Off the lattice it is within rounding.
    """
    norms = (scores * scores).sum(axis=1)[:, None]
    ones = np.ones_like(norms)
    return np.hstack([-2.0 * scores, norms, ones]), np.hstack([scores, ones, norms])


def _refine_mean_balance(
    records: list[EssayRecord],
    assignment: dict[str, int],
    k: int,
    tol: float = 1e-10,
) -> None:
    """Best-improvement swap refinement of per-fold target means.

    Repeatedly applies the single cross-fold record swap that most reduces
    sum over (fold, target) of (fold mean - global mean)^2, until no swap
    improves it. Fold sizes are preserved; the procedure is deterministic.

    Each fold pair's best swap is kept between passes: a swap between folds
    a and b changes only the members, sums and deviations of a and b, so
    only the pairs containing a or b are recomputed. The pairs are scanned
    in a fixed order with a strict comparison, so ties go to the first.
    """
    scores = np.array([r.scores for r in records], dtype=np.float64)
    n, _ = scores.shape
    fold_of = np.array([assignment[r.text_id] for r in records])
    idx_by_fold = [np.flatnonzero(fold_of == f) for f in range(k)]
    sums = np.stack([scores[idx].sum(axis=0) for idx in idx_by_fold])
    sizes = np.array([len(idx) for idx in idx_by_fold], dtype=np.float64)
    global_mean = scores.mean(axis=0)
    deviation = sums / sizes[:, None] - global_mean
    left, right = _augmented(scores)
    largest = max(len(idx) for idx in idx_by_fold)
    block = min(SWAP_BLOCK, largest) * largest
    buf_dist, buf_delta = np.empty(block), np.empty(block)

    def best_swap_between(a: int, b: int) -> tuple[float, int, int]:
        ia, ib = idx_by_fold[a], idx_by_fold[b]
        cols = len(ib)
        direction = deviation[a] / sizes[a] - deviation[b] / sizes[b]
        curvature = 1.0 / sizes[a] ** 2 + 1.0 / sizes[b] ** 2
        # swapping i (fold a) with j (fold b) moves the objective by
        # 2 d.direction + |d|^2 curvature, where d = s_j - s_i: the sum of
        # fl(-2 s_i.direction + 2 s_j.direction) and fl(|d|^2 curvature), in
        # this order. Doubling is exact, so it is done on the small operands.
        # Fold a is scanned in row blocks so the two matrices stay in cache;
        # the strict < keeps ties on the first flat index. Copying a column
        # and adding a row in place is faster in numpy than a ufunc that
        # broadcasts a column operand.
        gain_a = -2.0 * (scores[ia] @ direction)
        gain_b = 2.0 * (scores[ib] @ direction)
        left_a, right_b = left[ia], right[ib].T
        found = (np.inf, 0, 0)
        for start in range(0, len(ia), SWAP_BLOCK):
            rows = min(SWAP_BLOCK, len(ia) - start)
            dist2 = buf_dist[: rows * cols].reshape(rows, cols)
            delta = buf_delta[: rows * cols].reshape(rows, cols)
            np.matmul(left_a[start : start + rows], right_b, out=dist2)
            dist2 *= curvature
            np.copyto(delta, gain_a[start : start + rows, None])
            delta += gain_b
            delta += dist2
            flat = int(np.argmin(delta))
            if delta.flat[flat] < found[0]:
                p, q = divmod(flat, cols)
                found = (float(delta.flat[flat]), start + p, q)
        return found

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
        move = scores[j] - scores[i]
        sums[a] += move
        sums[b] -= move
        assignment[records[i].text_id] = b
        assignment[records[j].text_id] = a
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
    assignment = {}
    sizes = [n // k + (1 if f < n % k else 0) for f in range(k)]
    pos = 0
    for fold, size in enumerate(sizes):
        for i in order[pos : pos + size]:
            assignment[records[i].text_id] = fold
        pos += size
    sizes, means, counts = _audit(records, assignment, k)
    return FoldPlan(k, assignment, sizes, means, counts)


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

    def rows_csv(self, path: str) -> None:
        lines = ["variant,pooling,awp,seed,cv_pooled,cv_fold_mean"]
        for r in self.rows:
            lines.append(
                f"{r.variant},{r.pooling_mode},{int(r.awp)},{r.seed},"
                f"{r.cv_pooled!r},{r.cv_fold_mean!r}"
            )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def summary_csv(self, path: str) -> None:
        lines = ["variant,mean_cv,std_cv,n_seeds"]
        for name, stats in self.summary.items():
            lines.append(
                f"{name},{stats['mean']!r},{stats['std']!r},{int(stats['n_seeds'])}"
            )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


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
    differs."""
    if variants is None:
        variants = default_variants()
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
            "n_seeds": float(len(values)),
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
