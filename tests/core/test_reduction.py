"""Difference propagation: Equation 1 / Algorithm 3 behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gradient import gradient_importance
from repro.core.reduction import (
    difference_importance,
    difference_multipliers,
    keep_mask_from_scores,
    reduce_features,
)
from repro.errors import FeatureError
from repro.nn.layers import Linear, ReLU, Sequential


def linear_model(weights: np.ndarray) -> Sequential:
    layer = Linear(len(weights), 1, seed_key=0)
    layer.weight.data = weights.reshape(-1, 1).astype(float)
    layer.bias.data = np.zeros(1)
    return Sequential(layer)


class TestLinearCase:
    """For a purely linear model the multipliers ARE the weights."""

    @given(arrays(np.float64, (4,), elements=st.floats(-3, 3)))
    def test_multipliers_equal_weights(self, weights):
        model = linear_model(weights)
        x = np.random.default_rng(0).normal(size=(5, 4))
        multipliers = difference_multipliers(model, x, np.zeros(4))
        np.testing.assert_allclose(multipliers, np.tile(weights, (5, 1)), atol=1e-12)

    @given(arrays(np.float64, (3,), elements=st.floats(-2, 2)))
    def test_matches_gradient_importance(self, weights):
        """Difference and gradient importance agree on linear models
        up to the |m*dx| vs |m| weighting; zero-weight dims score zero
        in both."""
        model = linear_model(weights)
        x = np.random.default_rng(1).normal(size=(8, 3))
        diff = difference_importance(model, x, n_references=4, seed=0)
        grad = gradient_importance(model, x)
        for k in range(3):
            if abs(weights[k]) < 1e-12:
                assert diff[k] == pytest.approx(0.0, abs=1e-12)
                assert grad[k] == pytest.approx(0.0, abs=1e-12)


class TestPaperFailureModes:
    """The two cases of Section IV-B where plain gradients fail."""

    def _dead_relu_model(self):
        """A unit that is dead (pre-activation < 0) at every data point
        but alive at the reference: gradient = 0, difference > 0."""
        first = Linear(1, 1, seed_key=1)
        first.weight.data = np.array([[1.0]])
        first.bias.data = np.array([-5.0])  # x - 5
        second = Linear(1, 1, seed_key=2)
        second.weight.data = np.array([[2.0]])
        second.bias.data = np.array([0.0])
        return Sequential(first, ReLU(), second)

    def test_gradient_vanishes_on_dead_relu(self):
        model = self._dead_relu_model()
        x = np.array([[0.0], [1.0], [2.0]])  # all dead (x < 5)
        grad = gradient_importance(model, x)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_difference_sees_through_dead_relu(self):
        model = self._dead_relu_model()
        x = np.array([[0.0], [1.0], [2.0]])
        reference = np.array([[10.0]])  # alive at the reference
        scores = difference_importance(model, x, references=reference)
        assert scores[0] > 0.1

    def test_one_hot_importance_positive(self):
        """Feature 0 is a one-hot flag that adds 10 when set; data where
        it is 0 gets zero gradient through the dead branch, but the
        difference against a reference with the flag set is large."""
        first = Linear(2, 1, seed_key=3)
        first.weight.data = np.array([[10.0], [1.0]])
        first.bias.data = np.array([-5.0])
        model = Sequential(first, ReLU())
        data = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        reference = np.array([[1.0, 2.0]])
        scores = difference_importance(model, data, references=reference)
        assert scores[0] > 1.0

    def test_paper_example_magnitude(self):
        """The Figure 4 style example: flipped one-hot + numeric dim."""
        first = Linear(4, 1, seed_key=4)
        first.weight.data = np.array([[-3.0], [1.0], [6.0], [-1.0]])
        first.bias.data = np.array([5.0])
        model = Sequential(first, ReLU())
        data = np.array([[0.0, 0.0, 1.0, 50.0]])
        reference = np.array([[1.0, 0.0, 0.0, 1.0]])
        scores = difference_importance(model, data, references=reference)
        assert scores[0] > 0  # flipped one-hot dim scores positive
        assert scores[1] == pytest.approx(0.0, abs=1e-9)  # never varies


class TestConstantDimensions:
    @given(st.integers(0, 4))
    def test_constant_dim_scores_zero(self, constant_dim):
        model = Sequential(Linear(5, 8, seed_key=5), ReLU(), Linear(8, 1, seed_key=6))
        rng = np.random.default_rng(2)
        data = rng.normal(size=(20, 5))
        data[:, constant_dim] = 3.14
        scores = difference_importance(model, data, n_references=6, seed=1)
        assert scores[constant_dim] == pytest.approx(0.0, abs=1e-9)
        assert scores.max() > 0


class TestSharedForwardTrace:
    """``difference_importance`` traces the data once for all
    references; scores must equal the per-reference computation."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_scores_equal_per_reference_multipliers(self, weighted):
        model = Sequential(
            Linear(6, 16, seed_key=9), ReLU(), Linear(16, 16, seed_key=10),
            ReLU(), Linear(16, 3, seed_key=11),
        )
        rng = np.random.default_rng(4)
        data = rng.normal(size=(40, 6))
        data[:, 1] = 0.5
        weights = np.array([1.0, 0.0, 0.0]) if weighted else None
        references = data[rng.choice(len(data), size=16, replace=False)]
        expected = np.zeros(data.shape[1])
        for ref in references:
            multiplier = difference_multipliers(
                model, data, ref, output_weights=weights
            )
            expected += np.abs(multiplier * (data - ref.reshape(1, -1))).mean(axis=0)
        expected /= len(references)
        scores = difference_importance(
            model, data, references=references, output_weights=weights
        )
        assert np.array_equal(scores, expected)


class TestKeepMask:
    def test_threshold_relative_to_max(self):
        scores = np.array([1.0, 1e-12, 0.5, 0.0])
        keep = keep_mask_from_scores(scores)
        np.testing.assert_array_equal(keep, [True, False, True, False])

    def test_always_keep_protects(self):
        scores = np.array([1.0, 0.0])
        keep = keep_mask_from_scores(scores, always_keep=[1])
        assert keep[1]

    def test_never_empty(self):
        keep = keep_mask_from_scores(np.zeros(4))
        assert keep.all()

    def test_reduce_features_wrapper(self):
        model = Sequential(Linear(3, 4, seed_key=7), ReLU(), Linear(4, 1, seed_key=8))
        data = np.random.default_rng(3).normal(size=(15, 3))
        data[:, 2] = 0.0
        scores, keep = reduce_features(model, data, n_references=5)
        assert scores.shape == (3,)
        assert not keep[2]


class TestErrors:
    def test_unsupported_layer_rejected(self):
        class Weird:
            def parameters(self):
                return []

        model = Sequential(Linear(2, 2), Weird())  # type: ignore[list-item]
        with pytest.raises(FeatureError):
            difference_importance(model, np.ones((3, 2)), n_references=1)
