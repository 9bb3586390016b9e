"""Layer behaviour: shapes, parameters, checkpointing, composition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Linear, ReLU, Sequential, mlp
from repro.nn.optim import Parameter
from repro.nn.train import FlatNet, forward_trace

from .tensor import Tensor, affine, graph_forward


class TestAffine:
    """The oracle's ``affine`` is one graph node; values and all three
    gradients must equal the composed matmul and add bit for bit."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_matches_composed_ops(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 5))
        w, b = rng.normal(size=(5, 3)), rng.normal(size=3)
        upstream = rng.normal(size=(rows, 3))
        results = []
        for fused in (True, False):
            tx, tw, tb = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
            out = affine(tx, tw, tb) if fused else tx @ tw + tb
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, tx.grad, tw.grad, tb.grad))
        for got, want in zip(*results, strict=True):
            assert np.array_equal(got, want)

    def test_linear_forward_is_one_node(self):
        """On the graph a ``Linear`` is one affine node over its input
        and two parameter leaves, with the training forward's value."""
        net = Sequential(Linear(4, 2))
        out = graph_forward(net, Tensor(np.ones((3, 4)), requires_grad=True))
        assert len(out._parents) == 3
        np.testing.assert_array_equal(out.data, forward_trace(net, np.ones((3, 4)))[-1])


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3)
        assert layer.forward_batched(np.ones((7, 5))).shape == (7, 3)

    def test_parameters_are_trainable(self):
        layer = Linear(4, 2)
        assert all(isinstance(p, Parameter) and p.grad is None for p in layer.parameters())
        assert layer.num_parameters() == 4 * 2 + 2

    def test_deterministic_init_by_seed_key(self):
        a = Linear(6, 4, seed_key="x")
        b = Linear(6, 4, seed_key="x")
        c = Linear(6, 4, seed_key="y")
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        assert not np.array_equal(a.weight.data, c.weight.data)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gradient_flows(self):
        net = Sequential(Linear(3, 2))
        unit = FlatNet(net)
        trace = forward_trace(net, np.ones((4, 3)))
        unit.backward(trace, np.ones((4, 2)))
        weight_grad, bias_grad = unit.param.split(unit.param.grad)
        np.testing.assert_allclose(weight_grad, np.full((3, 2), 4.0))
        np.testing.assert_allclose(bias_grad, [4.0, 4.0])


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU])
    def test_preserves_shape(self, cls):
        out = cls().forward_batched(np.random.default_rng(0).normal(size=(3, 5)))
        assert out.shape == (3, 5)

    def test_relu_clamps(self):
        out = ReLU().forward_batched(np.array([[-1.0, 1.0]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])


class TestSequential:
    def test_composes_in_order(self):
        model = Sequential(Linear(2, 2, seed_key=1), ReLU(), Linear(2, 1, seed_key=2))
        out = model.forward_batched(np.ones((3, 2)))
        assert out.shape == (3, 1)
        assert len(model) == 3

    def test_parameters_concatenate(self):
        model = Sequential(Linear(2, 4), ReLU(), Linear(4, 1))
        assert len(model.parameters()) == 4

    def test_state_dict_roundtrip(self):
        a = mlp(4, (8,), 1, seed_key="a")
        b = mlp(4, (8,), 1, seed_key="b")
        x = np.random.default_rng(3).normal(size=(5, 4))
        assert not np.allclose(a.forward_batched(x), b.forward_batched(x))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.forward_batched(x), b.forward_batched(x))

    def test_load_state_dict_validates_shapes(self):
        a = mlp(4, (8,), 1)
        b = mlp(4, (6,), 1)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_load_state_dict_validates_length(self):
        a = mlp(4, (8,), 1)
        with pytest.raises(ValueError):
            a.load_state_dict(a.state_dict()[:-1])

    def test_zero_grad_clears_all(self):
        model = mlp(3, (4,), 1)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestMLPBuilder:
    def test_layer_structure(self):
        model = mlp(10, (16, 8), 2)
        kinds = [type(m).__name__ for m in model]
        assert kinds == ["Linear", "ReLU", "Linear", "ReLU", "Linear"]

    def test_no_hidden(self):
        model = mlp(5, (), 1)
        assert len(model) == 1

    def test_output_dims(self):
        model = mlp(7, (5,), 3)
        assert model.forward_batched(np.zeros((2, 7))).shape == (2, 3)


class TestForwardNumpy:
    """The numpy training forward must be bit-identical to the
    autodiff forward, layer by layer."""

    @pytest.mark.parametrize("activation", ["relu"])
    def test_matches_tensor_forward(self, activation):
        model = mlp(6, (8, 8), 2, seed_key=("fnp", activation))
        rng = np.random.default_rng(7)
        x = rng.normal(scale=40.0, size=(5, 6))
        via_tensor = graph_forward(model, Tensor(x)).numpy()
        trace = forward_trace(model, x)
        assert len(trace) == len(model) + 1
        assert np.array_equal(via_tensor, trace[-1])
