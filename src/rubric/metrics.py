"""Mean columnwise RMSE: per-target RMSEs averaged across targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    mcrmse: float
    per_target_rmse: tuple[float, ...]
    n_records: int
    n_targets: int


def mcrmse(truth, pred) -> MetricsReport:
    """Columnwise root-mean-squared errors and their mean.

    Inputs are (n, n_targets) matrices of true values and predictions.
    """
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: truth {t.shape} vs pred {p.shape}")
    if t.ndim != 2:
        raise ValueError(f"expected 2-d matrices, got shape {t.shape}")
    if t.shape[0] < 1:
        raise ValueError("mcrmse needs at least one record")
    col_rmse = np.sqrt(np.mean((t - p) ** 2, axis=0))
    return MetricsReport(
        mcrmse=float(col_rmse.mean()),
        per_target_rmse=tuple(float(v) for v in col_rmse),
        n_records=t.shape[0],
        n_targets=t.shape[1],
    )
