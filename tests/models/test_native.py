"""NativeCostEstimator: slope/intercept calibration.

Covers the calibration math, the poisoned-label guards (the regression
the PGSQL baseline shared: non-finite latencies reaching ``np.median``),
and the empty-input contracts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.models.native import NativeCostEstimator, finite_cost_pairs
from repro.models.postgres import PostgresCostEstimator


def _with_latency(record, latency_ms):
    return replace(record, latency_ms=latency_ms)


class TestFiniteCostPairs:
    def test_drops_nonfinite_and_negative_latencies(self, tpch_labeled):
        poisoned = [
            _with_latency(tpch_labeled[0], float("nan")),
            _with_latency(tpch_labeled[1], float("inf")),
            _with_latency(tpch_labeled[2], -1.0),
            tpch_labeled[3],
        ]
        costs, latencies = finite_cost_pairs(poisoned)
        assert costs.shape == latencies.shape == (1,)
        assert latencies[0] == tpch_labeled[3].latency_ms

    def test_empty_input_gives_empty_pairs(self):
        costs, latencies = finite_cost_pairs([])
        assert costs.size == 0 and latencies.size == 0
        assert costs.dtype == latencies.dtype == np.float64


class TestNativeCostEstimator:
    def test_least_squares_recovers_linear_relation(self, tpch_labeled):
        """Latencies manufactured as 3*cost + 7 must fit exactly."""
        synthetic = [
            _with_latency(r, 3.0 * r.plan.est_total_cost + 7.0)
            for r in tpch_labeled[:20]
        ]
        model = NativeCostEstimator()
        model.fit(synthetic)
        assert model.slope == pytest.approx(3.0)
        assert model.intercept == pytest.approx(7.0)
        got = model.predict_many(synthetic[:5])
        want = [r.latency_ms for r in synthetic[:5]]
        np.testing.assert_allclose(got, want)

    def test_constant_costs_fall_back_to_median_ratio(self, tpch_labeled):
        constant = [
            replace(
                r,
                plan=replace(r.plan, est_total_cost=10.0),
                latency_ms=25.0,
            )
            for r in tpch_labeled[:6]
        ]
        model = NativeCostEstimator()
        model.fit(constant)
        assert model.slope == pytest.approx(2.5)
        assert model.intercept == 0.0

    def test_all_poisoned_labels_keep_current_coefficients(self, tpch_labeled):
        model = NativeCostEstimator(slope=4.0, intercept=2.0)
        poisoned = [
            _with_latency(r, float("nan")) for r in tpch_labeled[:8]
        ]
        stats = model.fit(poisoned)
        assert (model.slope, model.intercept) == (4.0, 2.0)
        assert stats.n_parameters == 2

    def test_uncalibrated_fit_is_identity(self, tpch_labeled):
        model = NativeCostEstimator(calibrated=False)
        model.fit(tpch_labeled)
        assert (model.slope, model.intercept) == (1.0, 0.0)

    def test_predictions_clamped_nonnegative(self, tpch_labeled):
        model = NativeCostEstimator(slope=0.0, intercept=-5.0)
        assert np.all(model.predict_many(tpch_labeled[:4]) == 0.0)

    def test_empty_predict_is_empty_float64(self):
        out = NativeCostEstimator().predict_many([])
        assert out.shape == (0,)
        assert out.dtype == np.float64


class TestPostgresPoisonedCalibration:
    """Regression: ``fit`` used to push non-finite ratios (or an empty
    array) straight into ``np.median``, corrupting ``slope`` to NaN —
    or warning-crashing on zero usable pairs."""

    def test_nonfinite_latencies_do_not_poison_scale(self, tpch_labeled):
        clean = PostgresCostEstimator(calibrated=True)
        clean.fit(tpch_labeled[:10])
        poisoned_input = [
            _with_latency(tpch_labeled[0], float("nan")),
            _with_latency(tpch_labeled[1], float("inf")),
            *tpch_labeled[:10],
        ]
        poisoned = PostgresCostEstimator(calibrated=True)
        poisoned.fit(poisoned_input)
        assert np.isfinite(poisoned.slope)
        assert poisoned.slope == pytest.approx(clean.slope)

    def test_zero_usable_pairs_keep_scale_unchanged(self, tpch_labeled):
        model = PostgresCostEstimator(calibrated=True)
        model.fit(tpch_labeled[:10])
        before = model.slope
        with np.errstate(all="raise"):
            model.fit([_with_latency(r, float("nan")) for r in tpch_labeled[:4]])
            model.fit([])
        assert model.slope == before

    def test_is_a_native_cost_estimator(self):
        """The PGSQL baseline is the intercept-free native-cost model
        and shares its prediction."""
        assert isinstance(PostgresCostEstimator(), NativeCostEstimator)
