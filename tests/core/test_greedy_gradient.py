"""Greedy (Algorithm 2) and gradient (GD) reduction baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gradient import gradient_importance
from repro.core.greedy import greedy_reduction
from repro.nn.layers import Linear, ReLU, Sequential


class TestGreedy:
    def test_drops_harmful_feature(self):
        """Feature 1 adds pure noise to the evaluation: dropping it
        lowers the error, so greedy must remove it."""

        def evaluate(mask: np.ndarray) -> float:
            error = 2.0
            if mask[1]:
                error += 1.0  # feature 1 hurts
            if not mask[0]:
                error += 5.0  # feature 0 is essential
            return error

        keep, error = greedy_reduction(evaluate, dim=3)
        assert not keep[1]
        assert keep[0]
        assert error == pytest.approx(2.0)

    def test_stops_when_no_improvement(self):
        calls = []

        def evaluate(mask: np.ndarray) -> float:
            calls.append(mask.copy())
            return 1.0  # flat: nothing helps

        keep, error = greedy_reduction(evaluate, dim=4)
        assert keep.all()
        assert error == 1.0

    def test_max_rounds_caps_drops(self):
        def evaluate(mask: np.ndarray) -> float:
            return float(mask.sum())  # dropping always helps

        keep, _ = greedy_reduction(evaluate, dim=10, max_rounds=3)
        assert keep.sum() == 10 - 3

    def test_always_keep_protected(self):
        def evaluate(mask: np.ndarray) -> float:
            return float(mask.sum())

        keep, _ = greedy_reduction(evaluate, dim=4, always_keep=[0], max_rounds=10)
        assert keep[0]

    def test_misses_co_related_pairs(self):
        """The paper's criticism: two features that only help as a
        pair are never dropped because single drops raise the error."""

        def evaluate(mask: np.ndarray) -> float:
            a, b = mask[0], mask[1]
            if a and b:
                return 2.0  # both present: mediocre
            if a != b:
                return 3.0  # dropping exactly one hurts
            return 1.0  # dropping both would be best

        keep, error = greedy_reduction(evaluate, dim=2)
        assert keep.all()  # greedy is stuck at the local optimum
        assert error == 2.0


class TestGradient:
    def test_zero_weight_dim_scores_zero(self):
        layer = Linear(3, 1, seed_key=0)
        layer.weight.data = np.array([[2.0], [0.0], [-1.0]])
        layer.bias.data = np.zeros(1)
        scores = gradient_importance(Sequential(layer), np.random.default_rng(0).normal(size=(10, 3)))
        assert scores[1] == pytest.approx(0.0, abs=1e-12)
        assert scores[0] == pytest.approx(2.0)

    def test_output_weights_select_output(self):
        layer = Linear(2, 2, seed_key=1)
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 3.0]])
        layer.bias.data = np.zeros(2)
        model = Sequential(layer)
        data = np.ones((4, 2))
        first_only = gradient_importance(model, data, output_weights=np.array([1.0, 0.0]))
        np.testing.assert_allclose(first_only, [1.0, 0.0])

    def test_dead_relu_blindspot(self):
        """All-dead ReLU yields zero gradient for every input dim —
        gradient reduction would prune everything it sees here."""
        first = Linear(2, 2, seed_key=4)
        first.weight.data = np.eye(2)
        first.bias.data = np.array([-100.0, -100.0])
        second = Linear(2, 1, seed_key=5)
        model = Sequential(first, ReLU(), second)
        scores = gradient_importance(model, np.random.default_rng(2).normal(size=(10, 2)))
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)
