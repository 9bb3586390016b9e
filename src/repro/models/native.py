"""Calibrated native-cost estimator: a linear map of optimizer cost.

The PGSQL baseline with an intercept: latency ≈ ``slope`` × optimizer
cost + ``intercept``.  The slope/intercept linear correction follows
brad's ``AthenaNativeCostModel``; it answers in one vector op and
never needs featurization or snapshots.

Calibration is deliberately paranoid about labels: live feedback can
contain NaN/inf latencies (timeouts, clock bugs), and a single
non-finite pair must not poison the fit.  Only finite, non-negative
``(cost, latency)`` pairs participate; with no usable pairs the
current coefficients are kept.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..engine.executor import LabeledPlan
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.snapshot import SnapshotSet
from .base import CostEstimator, TrainStats


def finite_cost_pairs(
    train: Sequence[LabeledPlan],
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract the calibratable ``(cost, latency)`` pairs from *train*.

    Drops records whose optimizer cost or measured latency is NaN/inf
    or whose latency is negative; costs are floored at ``1e-9`` so
    degenerate zero-cost plans cannot divide a ratio by zero.  Returns
    two aligned float64 arrays (possibly empty).
    """
    costs = np.array(
        [record.plan.est_total_cost for record in train], dtype=np.float64
    )
    latencies = np.array(
        [record.latency_ms for record in train], dtype=np.float64
    )
    keep = np.isfinite(costs) & np.isfinite(latencies) & (latencies >= 0.0)
    return np.maximum(costs[keep], 1e-9), latencies[keep]


class NativeCostEstimator(CostEstimator):
    """Slope/intercept-corrected optimizer cost.

    ``predict`` is ``max(slope * est_total_cost + intercept, 0)``.
    :meth:`fit` least-squares-fits the two coefficients over the
    finite training pairs, falling back to a median-ratio slope
    (intercept 0) when the costs are constant — the same robust
    estimate the single-scale PGSQL baseline uses.
    """

    name = "native_cost"

    def __init__(
        self,
        slope: float = 1.0,
        intercept: float = 0.0,
        calibrated: bool = True,
    ):
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.calibrated = calibrated

    def fit(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> TrainStats:
        """Least-squares (slope, intercept) over finite (cost, latency)
        pairs; keeps the current coefficients when nothing is usable."""
        start = time.perf_counter()
        if self.calibrated:
            costs, latencies = finite_cost_pairs(train)
            if costs.size >= 2 and float(np.ptp(costs)) > 0.0:
                cost_mean = float(costs.mean())
                latency_mean = float(latencies.mean())
                centered = costs - cost_mean
                slope = float((centered * (latencies - latency_mean)).sum())
                slope /= float((centered * centered).sum())
                self.slope = slope
                self.intercept = latency_mean - slope * cost_mean
            elif costs.size:
                self.slope = float(np.median(latencies / costs))
                self.intercept = 0.0
        return TrainStats(
            epochs=0,
            final_loss=float("nan"),
            train_seconds=time.perf_counter() - start,
            n_parameters=2 if self.calibrated else 0,
        )

    def predict_many(
        self,
        labeled: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:
        """Each plan's optimizer cost mapped linearly to ms (``slope *
        cost + intercept``, floored at zero)."""
        if not labeled:
            return np.zeros(0, dtype=np.float64)
        costs = np.array(
            [record.plan.est_total_cost for record in labeled],
            dtype=np.float64,
        )
        return np.maximum(costs * self.slope + self.intercept, 0.0)

    # ------------------------------------------------------------------
    # checkpoint serialization (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The whole model: the two coefficients and the calibration
        flag."""
        return {
            "kind": "native_cost",
            "slope": float(self.slope),
            "intercept": float(self.intercept),
            "calibrated": self.calibrated,
        }

    @classmethod
    def from_state(cls, state) -> "NativeCostEstimator":
        """Rebuild from :meth:`state_dict` output."""
        return cls(
            slope=float(state.get("slope", 1.0)),
            intercept=float(state.get("intercept", 0.0)),
            calibrated=bool(state.get("calibrated", True)),
        )
