"""Loss-function properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.loss import mse_grad, numpy_q_error

from .tensor import Tensor, mse

positive = arrays(np.float64, (6,), elements=st.floats(0.01, 1e4))


class TestMSE:
    def test_zero_at_match(self):
        loss, grad = mse_grad(np.ones(4), np.ones(4))
        assert loss == pytest.approx(0.0)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_known_value(self):
        loss, _ = mse_grad(np.array([1.0, 3.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(5.0)

    def test_gradient_direction(self):
        _, grad = mse_grad(np.array([2.0]), np.array([0.0]))
        assert grad[0] > 0  # predicting high -> decrease

    @given(positive, positive)
    def test_matches_the_graph_bits(self, pred, target):
        """Loss and gradient carry the bits of the autodiff graph's
        ``mean(diff * diff)``."""
        leaf = Tensor(pred, requires_grad=True)
        want = mse(leaf, target)
        want.backward()
        loss, grad = mse_grad(pred, target)
        assert np.float64(loss).view(np.uint64) == want.data.view(np.uint64)
        np.testing.assert_array_equal(grad.view(np.uint64), leaf.grad.view(np.uint64))


class TestNumpyQError:
    @given(positive, positive)
    def test_always_at_least_one(self, pred, actual):
        assert np.all(numpy_q_error(pred, actual) >= 1.0)

    @given(positive)
    def test_identity_is_one(self, values):
        np.testing.assert_allclose(numpy_q_error(values, values), 1.0)

    def test_matches_paper_definition(self):
        q = numpy_q_error(np.array([2.0, 0.5]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(q, [2.0, 2.0])

    def test_zero_actual_guarded(self):
        q = numpy_q_error(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(q[0])
