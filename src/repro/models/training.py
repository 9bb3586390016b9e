"""Training utilities: splits, timing, evaluation of estimators."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.executor import LabeledPlan
from ..nn.loss import numpy_q_error
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.snapshot import SnapshotSet
from ..rng import rng_for
from .base import CostEstimator


def train_test_split(
    labeled: Sequence[LabeledPlan],
    test_fraction: float = 0.2,
    seed: int = 0,
) -> Tuple[List[LabeledPlan], List[LabeledPlan]]:
    """The paper's 80/20 split, shuffled deterministically."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    indices = np.arange(len(labeled))
    rng_for("split", seed).shuffle(indices)
    cut = int(round(len(labeled) * (1.0 - test_fraction)))
    train = [labeled[i] for i in indices[:cut]]
    test = [labeled[i] for i in indices[cut:]]
    return train, test


@dataclass
class EvaluationReport:
    """Accuracy + timing, matching the paper's Table IV columns."""

    pearson: float
    mean_q_error: float
    median_q_error: float
    q_error_percentiles: Dict[int, float]
    train_seconds: float
    inference_seconds: float
    n_test: int

    def row(self) -> Dict[str, float]:
        """The paper's Table IV columns: pearson, mean q-error, time."""
        return {
            "pearson": self.pearson,
            "mean": self.mean_q_error,
            "time": self.train_seconds,
        }


def pearson_correlation(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Paper Equation 3."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    sa, sp = actual.std(), predicted.std()
    if sa < 1e-15 or sp < 1e-15:
        return 0.0
    cov = ((actual - actual.mean()) * (predicted - predicted.mean())).mean()
    return float(cov / (sa * sp))


def evaluate_estimator(
    estimator: CostEstimator,
    test: Sequence[LabeledPlan],
    snapshot_set: Optional["SnapshotSet"] = None,
    train_seconds: float = 0.0,
) -> EvaluationReport:
    """Score an estimator on held-out labelled plans."""
    start = time.perf_counter()
    predictions = estimator.predict_many(test, snapshot_set=snapshot_set)
    inference_seconds = time.perf_counter() - start
    actual = np.array([record.latency_ms for record in test])
    q_errors = numpy_q_error(predictions, actual)
    percentiles = {
        p: float(np.percentile(q_errors, p)) for p in (25, 50, 75, 90, 95, 99)
    }
    return EvaluationReport(
        pearson=pearson_correlation(actual, predictions),
        mean_q_error=float(q_errors.mean()),
        median_q_error=percentiles[50],
        q_error_percentiles=percentiles,
        train_seconds=train_seconds,
        inference_seconds=inference_seconds,
        n_test=len(test),
    )
