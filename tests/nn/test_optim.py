"""Optimizers converge on simple problems; utilities behave."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Linear, Sequential, mlp
from repro.nn.loss import mse_grad
from repro.nn.optim import Adam, FlatParameter, Parameter, clip_grad_norm
from repro.nn.train import FlatNet, forward_trace


def _train(net: Sequential, x: np.ndarray, y: np.ndarray, lr: float, steps: int):
    """Full-batch Adam on the squared error; the loss at every step."""
    unit = FlatNet(net)
    optimizer = Adam([unit.param], lr=lr)
    losses = []
    for _ in range(steps):
        trace = forward_trace(net, x)
        loss, grad = mse_grad(trace[-1].reshape(-1), y.reshape(-1))
        optimizer.zero_grad()
        unit.backward(trace, grad.reshape(trace[-1].shape))
        optimizer.step()
        losses.append(loss)
    return losses


class TestAdam:
    def test_converges_on_linear_problem(self):
        """Fit y = 3x - 1 with a single Linear layer."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 1))
        net = Sequential(Linear(1, 1, seed_key="fit"))
        _train(net, x, 3.0 * x - 1.0, lr=0.05, steps=300)
        final = mse_grad(forward_trace(net, x)[-1].reshape(-1), (3.0 * x - 1.0).reshape(-1))
        assert final[0] < 1e-4

    def test_converges_on_nonlinear_problem(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(128, 2))
        y = np.maximum(x[:, :1], 0.0) + 0.5
        losses = _train(mlp(2, (16,), 1, seed_key="adam"), x, y, lr=0.01, steps=400)
        assert losses[-1] < 0.25 * losses[0]

    def test_bias_correction_first_step_magnitude(self):
        t = Parameter(np.array([0.0]))
        optimizer = Adam([t], lr=0.1)
        t.grad = np.array([1.0])
        optimizer.step()
        # First Adam step is ~lr regardless of gradient scale.
        assert abs(t.data[0] + 0.1) < 1e-6

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)

    def test_skips_parameters_without_grad(self):
        t = Parameter(np.ones(2))
        Adam([t], lr=0.1).step()  # no grad -> no change, no crash
        np.testing.assert_array_equal(t.data, np.ones(2))


class TestClipGradNorm:
    def test_scales_down_large_gradients(self):
        t = Parameter(np.zeros(4))
        t.grad = np.full(4, 10.0)
        norm = clip_grad_norm([t], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(t.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        t = Parameter(np.zeros(2))
        t.grad = np.array([0.1, 0.1])
        clip_grad_norm([t], max_norm=5.0)
        np.testing.assert_array_equal(t.grad, [0.1, 0.1])


def _unit_arrays(seed: int):
    """A small MLP's six parameter arrays and a gradient for each."""
    model = mlp(5, (4, 3), 2, seed_key=("flat", seed))
    rng = np.random.default_rng(seed)
    return model, [rng.normal(size=p.data.shape) * 4.0 for p in model.parameters()]


class TestFlatParameter:
    def test_parts_become_views_of_one_vector(self):
        model, _ = _unit_arrays(0)
        before = [p.data.copy() for p in model.parameters()]
        flat = FlatParameter(model.parameters())
        assert flat.data.shape == (sum(a.size for a in before),)
        for p, want, (lo, hi) in zip(model.parameters(), before, flat.bounds, strict=True):
            np.testing.assert_array_equal(p.data, want)
            assert np.shares_memory(p.data, flat.data)
            np.testing.assert_array_equal(flat.data[lo:hi], want.reshape(-1))
        flat.data[0] = 123.0
        assert model.parameters()[0].data.flat[0] == 123.0

    @pytest.mark.parametrize("max_norm", [5.0, 1e6])
    def test_adam_and_clip_match_per_array_bits(self, max_norm):
        """Three steps of clip + Adam on two units, one of them absent
        from the second step: the flat parameters end with the bits of
        the per-array run, and the clip norms agree bit for bit."""
        per_array = [_unit_arrays(seed) for seed in (1, 2)]
        flat_units = [_unit_arrays(seed) for seed in (1, 2)]
        arrays = [p for model, _ in per_array for p in model.parameters()]
        flats = [FlatParameter(model.parameters()) for model, _ in flat_units]
        per_array_opt = Adam(arrays, lr=0.01)
        flat_opt = Adam(flats, lr=0.01)
        for step in range(3):
            present = [True, step != 1]
            for (model, grads), here in zip(per_array, present, strict=True):
                for p, g in zip(model.parameters(), grads, strict=True):
                    p.grad = g * (step + 1) if here else None
            for flat, (_, grads), here in zip(flats, flat_units, present, strict=True):
                flat.grad = (
                    np.concatenate([g.reshape(-1) * (step + 1) for g in grads])
                    if here else None
                )
            want = clip_grad_norm(arrays, max_norm)
            got = clip_grad_norm(flats, max_norm)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
            per_array_opt.step()
            flat_opt.step()
        assert want > 5.0 or max_norm > 1e5
        for (model, _), (flat_model, _) in zip(per_array, flat_units, strict=True):
            for p, q in zip(model.parameters(), flat_model.parameters(), strict=True):
                np.testing.assert_array_equal(
                    q.data.view(np.uint64), p.data.view(np.uint64)
                )

    def test_unit_without_grad_is_not_updated(self):
        model, grads = _unit_arrays(3)
        flat = FlatParameter(model.parameters())
        before = flat.data.copy()
        optimizer = Adam([flat], lr=0.1)
        optimizer.step()
        np.testing.assert_array_equal(flat.data, before)
        flat.grad = np.concatenate([g.reshape(-1) for g in grads])
        optimizer.step()
        assert not np.array_equal(flat.data, before)
        np.testing.assert_array_equal(model.parameters()[1].data, flat.split(flat.data)[1])
