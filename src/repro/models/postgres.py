"""The PostgreSQL cost-model baseline (paper's "PGSQL" rows).

Predicts a query's cost as the optimizer's estimated total cost of the
plan root.  PG costs are abstract units, not milliseconds, and the
cardinality estimates behind them are off on skewed data — which is
precisely why the paper's Table IV shows three-to-six-digit q-errors
for this baseline while its Pearson correlation stays modest but
positive.  A calibrated variant (single multiplicative scale fitted on
the training split) is included for ablations.

Structurally this is the intercept-free special case of
:class:`~repro.models.native.NativeCostEstimator`, whose prediction
it inherits.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..engine.executor import LabeledPlan
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.snapshot import SnapshotSet
from .base import TrainStats
from .native import NativeCostEstimator, finite_cost_pairs


class PostgresCostEstimator(NativeCostEstimator):
    """Raw optimizer cost as the latency prediction."""

    name = "postgres"

    def __init__(self, calibrated: bool = False):
        super().__init__(slope=1.0, intercept=0.0, calibrated=calibrated)

    def fit(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> TrainStats:
        """Median latency/cost ratio over the *finite* training pairs.

        Live feedback can carry NaN/inf latencies (timeouts, clock
        bugs); those pairs are dropped before the median so a single
        poisoned label cannot corrupt ``slope`` for every subsequent
        prediction.  With no usable pairs the scale is left unchanged.
        """
        start = time.perf_counter()
        if self.calibrated:
            costs, latencies = finite_cost_pairs(train)
            if costs.size:
                self.slope = float(np.median(latencies / costs))
        return TrainStats(
            epochs=0,
            final_loss=float("nan"),
            train_seconds=time.perf_counter() - start,
            n_parameters=1 if self.calibrated else 0,
        )

    # ------------------------------------------------------------------
    # checkpoint serialization (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The whole model: the calibration flag and fitted scale."""
        return {
            "kind": "postgres",
            "calibrated": self.calibrated,
            "scale": float(self.slope),
        }

    @classmethod
    def from_state(cls, state) -> "PostgresCostEstimator":
        """Rebuild from :meth:`state_dict` output."""
        model = cls(calibrated=bool(state.get("calibrated", False)))
        model.slope = float(state.get("scale", 1.0))
        return model
