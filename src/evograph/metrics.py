"""Evaluation metrics (RSE, CORR, RMSE, MAE) and per-horizon reports.

Inputs are ``(ρ, N)`` arrays, or ``(ρ, N, C)`` with channels evaluated
independently by flattening to ``(ρ, N·C)``.  RMSE and MAE are means over
every entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import write_csv_atomic
from .errors import DimensionError, UndefinedMetricError

Array = np.ndarray


def _as_batch(y_true, y_pred) -> tuple[Array, Array]:
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape:
        raise DimensionError(f"shape mismatch: {yt.shape} vs {yp.shape}")
    if yt.ndim == 3:
        yt = yt.reshape(yt.shape[0], -1)
        yp = yp.reshape(yp.shape[0], -1)
    if yt.ndim != 2:
        raise DimensionError(f"expected (ρ, N) or (ρ, N, C), got {yt.shape}")
    return yt, yp


def rse(y_true, y_pred) -> float:
    """Root relative squared error against the global-mean predictor."""
    yt, yp = _as_batch(y_true, y_pred)
    denom = float(np.sum((yt - yt.mean()) ** 2))
    if denom == 0.0:
        raise UndefinedMetricError("RSE undefined: ground truth is constant")
    return math.sqrt(float(np.sum((yt - yp) ** 2))) / math.sqrt(denom)


def corr(y_true, y_pred) -> float:
    """Mean per-node Pearson correlation; zero-variance nodes are skipped."""
    value, _ = corr_details(y_true, y_pred)
    return value


def corr_details(y_true, y_pred) -> tuple[float, int]:
    """CORR plus the number of zero-variance nodes excluded from the mean."""
    yt, yp = _as_batch(y_true, y_pred)
    if yt.shape[0] < 2:
        raise UndefinedMetricError("CORR needs at least 2 samples")
    dt = yt - yt.mean(axis=0)
    dp = yp - yp.mean(axis=0)
    vt = (dt**2).sum(axis=0)
    vp = (dp**2).sum(axis=0)
    ok = (vt > 0) & (vp > 0)
    excluded = int((~ok).sum())
    if not np.any(ok):
        raise UndefinedMetricError("CORR undefined: every node is zero-variance")
    r = (dt[:, ok] * dp[:, ok]).sum(axis=0) / np.sqrt(vt[ok] * vp[ok])
    return float(r.mean()), excluded


def rmse(y_true, y_pred) -> float:
    """Root mean squared error."""
    yt, yp = _as_batch(y_true, y_pred)
    return math.sqrt(float(np.sum((yt - yp) ** 2)) / yt.size)


def mae(y_true, y_pred) -> float:
    """Mean absolute error."""
    yt, yp = _as_batch(y_true, y_pred)
    return float(np.sum(np.abs(yt - yp))) / yt.size


# ---------------------------------------------------------------------------
# Reports

REPORT_HORIZONS = (3, 6, 12)


@dataclass
class MetricReport:
    """Metric values keyed by horizon label ('3', '6', '12', 'All', or '1')."""

    rows: dict[str, dict[str, float]] = field(default_factory=dict)

    def add(self, label: str, values: dict[str, float]) -> None:
        self.rows[label] = dict(values)

    def to_json(self) -> str:
        return json.dumps(self.rows, indent=2, sort_keys=False)

    def write_csv(self, path) -> None:
        columns = sorted({k for row in self.rows.values() for k in row})
        write_csv_atomic(path, [
            ["horizon", *columns],
            *([label, *[repr(row.get(c, float("nan"))) for c in columns]]
              for label, row in self.rows.items()),
        ])


def _all_metrics(yt: Array, yp: Array) -> dict[str, float]:
    out: dict[str, float] = {}
    try:
        out["rse"] = rse(yt, yp)
    except UndefinedMetricError:
        out["rse"] = float("nan")
    try:
        out["corr"] = corr(yt, yp)
    except UndefinedMetricError:
        out["corr"] = float("nan")
    out["rmse"] = rmse(yt, yp)
    out["mae"] = mae(yt, yp)
    return out


def horizon_report(
    y_true: Array,
    y_pred: Array,
    task: str = "single",
    horizon: int | None = None,
) -> MetricReport:
    """Per-horizon metrics plus an 'All' row pooling every horizon.

    Single-step inputs are ``(ρ, N[, C])`` and yield one row labelled with
    the trained horizon; multi-step inputs are ``(ρ, Q, N[, C])`` and yield
    rows for the :data:`REPORT_HORIZONS` steps that Q reaches, then 'All'.
    """
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape:
        raise DimensionError(f"shape mismatch: {yt.shape} vs {yp.shape}")
    report = MetricReport()
    if task == "single":
        report.add(str(horizon) if horizon else "1", _all_metrics(yt, yp))
        return report
    if task != "multi":
        raise DimensionError(f"task must be 'single' or 'multi', got {task!r}")
    q = yt.shape[1]
    for h in REPORT_HORIZONS:
        if 1 <= h <= q:
            report.add(str(h), _all_metrics(yt[:, h - 1], yp[:, h - 1]))
    pooled_t = yt.reshape(yt.shape[0] * q, *yt.shape[2:])
    pooled_p = yp.reshape(yp.shape[0] * q, *yp.shape[2:])
    report.add("All", _all_metrics(pooled_t, pooled_p))
    return report
