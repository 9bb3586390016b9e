"""The test oracle's autodiff (``tests/nn/tensor.py``): every op's gradient vs
numerical differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from .tensor import Tensor, as_tensor, concat, gather_rows, stack

_EPS = 1e-6


def numeric_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar-valued fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + _EPS
        hi = fn(x)
        flat[i] = orig - _EPS
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * _EPS)
    return grad


def check_gradient(op, x: np.ndarray, atol: float = 1e-4) -> None:
    t = Tensor(x.copy(), requires_grad=True)
    op(t).sum().backward()
    expected = numeric_gradient(lambda arr: float(op(Tensor(arr)).sum().item()), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=1e-3)


_smooth = st.sampled_from(
    [
        ("mul2", lambda t: t * 2.5),
        ("square", lambda t: t * t),
        ("sigmoid", lambda t: t.sigmoid()),
        ("tanh", lambda t: t.tanh()),
        ("exp", lambda t: t.exp()),
        ("mean", lambda t: t.mean() * 3.0),
        ("div", lambda t: t / 1.7),
        ("neg", lambda t: -t),
        ("sub", lambda t: 5.0 - t),
        ("pow3", lambda t: t**3),
    ]
)


class TestElementwiseGradients:
    @given(
        arrays(np.float64, (3, 4), elements=st.floats(-2, 2)).filter(
            lambda a: np.all(np.abs(a) > 0.05)
        ),
        _smooth,
    )
    def test_matches_numeric(self, x, named_op):
        _, op = named_op
        check_gradient(op, x)

    def test_relu_gradient_masks_negatives(self):
        t = Tensor(np.array([-1.0, 2.0, -3.0, 4.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0, 1.0])

    def test_abs_gradient_is_sign(self):
        t = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_array_equal(t.grad, [-1.0, 1.0])

    def test_log_gradient(self):
        x = np.array([[0.5, 1.5, 2.5]])
        check_gradient(lambda t: t.log(), x)

    def test_clip_min_gradient(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        t.clip_min(0.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0])


class TestMatmulGradients:
    def test_matrix_matrix(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        b = np.random.default_rng(1).normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 2)))

    def test_vector_matrix(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.random.default_rng(2).normal(size=(3, 2))
        ta = Tensor(a, requires_grad=True)
        (ta @ Tensor(b)).sum().backward()
        np.testing.assert_allclose(ta.grad, b.sum(axis=1))


class TestBroadcasting:
    def test_add_bias_broadcast(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(x.grad, np.ones((4, 3)))

    def test_mul_scalar_broadcast(self):
        x = Tensor(np.full((2, 2), 3.0), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        assert float(s.grad) == pytest.approx(12.0)

    @given(arrays(np.float64, (2, 3), elements=st.floats(-3, 3)))
    def test_row_broadcast_matches_numeric(self, x):
        row = np.array([[1.0, -2.0, 0.5]])

        def op(t):
            return t * Tensor(row)

        check_gradient(op, x)


class TestReductionsAndShapes:
    def test_sum_axis(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.sum(axis=0).sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    def test_mean_axis_keepdims(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.mean(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3), 1.0 / 3))

    def test_reshape_roundtrip(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t.reshape(2, 3).sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones(6))

    def test_transpose(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (t.T * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        assert t.grad.shape == (2, 3)

    def test_getitem_row(self):
        t = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        t[1].sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_getitem_slice_accumulates(self):
        t = Tensor(np.arange(8.0), requires_grad=True)
        (t[0:4].sum() + t[2:6].sum()).backward()
        np.testing.assert_array_equal(t.grad, [1, 1, 2, 2, 1, 1, 0, 0])


class TestConcatStack:
    def test_concat_routes_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)
        np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])

    def test_stack_new_axis(self):
        rows = [Tensor(np.ones(3), requires_grad=True) for _ in range(4)]
        stack(rows, axis=0).sum().backward()
        for row in rows:
            np.testing.assert_array_equal(row.grad, np.ones(3))

    def test_concat_axis0(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        assert concat([a, b], axis=0).shape == (4, 2)


class TestGatherRows:
    # Two child slots per output row over two sources: absent slots
    # (-1), reads from both sources, and row 2 of source 0 read twice.
    SOURCE = np.array([[0, 1], [-1, 0], [1, 1], [0, -1]])
    ROW = np.array([[2, 0], [0, 2], [2, 0], [1, 0]])

    def test_values_and_absent_slots(self):
        a = np.arange(20.0).reshape(4, 5)
        b = -np.arange(15.0).reshape(3, 5)
        out = gather_rows([Tensor(a), Tensor(b)], self.SOURCE, self.ROW, 1, 3)
        assert out.shape == (4, 6)
        np.testing.assert_array_equal(out.data[0], np.r_[a[2, 1:4], b[0, 1:4]])
        np.testing.assert_array_equal(out.data[1], np.r_[np.zeros(3), a[2, 1:4]])
        np.testing.assert_array_equal(out.data[3, 3:], np.zeros(3))
        assert not out.requires_grad

    def test_gradient_matches_numeric(self):
        x = np.random.default_rng(5).normal(size=(4, 5))
        weights = np.random.default_rng(6).normal(size=(4, 6))

        def op(t):
            sources = [t * 1.5, t[1:].tanh()]
            gathered = gather_rows(sources, self.SOURCE, self.ROW, 1, 3)
            return gathered * Tensor(weights)

        check_gradient(op, x)

    def test_row_read_twice_accumulates(self):
        a = Tensor(np.zeros((3, 4)), requires_grad=True)
        source = np.array([[0, 0], [0, -1]])
        row = np.array([[1, 1], [1, 0]])
        gather_rows([a], source, row, 1, 3).sum().backward()
        expected = np.zeros((3, 4))
        expected[1, 1:] = 3.0
        np.testing.assert_array_equal(a.grad, expected)

    def test_all_absent_reads_zeros(self):
        out = gather_rows([], np.full((2, 2), -1), np.zeros((2, 2)), 1, 4)
        np.testing.assert_array_equal(out.data, np.zeros((2, 8)))


class TestGraphMechanics:
    def test_gradient_accumulates_over_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        ((t * 3.0) + (t * 4.0)).backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_diamond_graph(self):
        t = Tensor(np.array([1.5]), requires_grad=True)
        a = t * 2.0
        (a * a).backward()  # d/dt (2t)^2 = 8t
        assert t.grad[0] == pytest.approx(12.0)

    def test_no_grad_by_default(self):
        t = Tensor(np.ones(3))
        out = (t * 2).sum()
        out.backward()
        assert t.grad is None

    def test_detach_breaks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t.detach() * 2).sum().backward()
        assert t.grad is None

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_deep_chain_does_not_overflow(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(500):
            out = out + 0.001
        out.backward()
        assert t.grad[0] == pytest.approx(1.0)

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))  # type: ignore[operator]
