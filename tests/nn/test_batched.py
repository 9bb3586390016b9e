"""The pad-once fixed-block kernel (``repro.nn.batched``).

``Sequential.forward_batched`` (inherited from ``Module``) pads its
input to whole ``BLOCK_ROWS`` blocks once and runs every layer on that
block.  It must be bit-equal
to two things: the same network on each row alone, and the per-layer
chain it replaced, kept here as the oracle (every ``Linear`` padding
its own input, adding the bias to every row of the block and slicing).
Bits are compared as ``view(np.int64)``, so even a sign-of-zero
difference fails.

The nets are parametrized by their activation: the package's ReLU,
and sigmoid and tanh as row-local layers defined here, which stand in
for any layer that keeps :meth:`~repro.nn.layers.Module.forward_block`'s
contract (real rows only, padding left zero).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.batched import BLOCK_ROWS, block_gemm, pad_rows
from repro.nn.layers import Linear, Module, ReLU, Sequential

#: Empty, one row, and either side of the first two block edges
#: (BLOCK_ROWS is 32).
ROW_COUNTS = [0, 1, 31, 32, 33, 64, 65]

#: Each activation as a plain function of a row block.
FUNCTIONS = {
    "relu": lambda x: x * (x > 0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0))),
    "tanh": np.tanh,
}
ACTIVATIONS = list(FUNCTIONS)


class _Rowwise(Module):
    """A row-local layer from outside the package: its function on the
    block's real rows, in place."""

    def __init__(self, name):
        self.name = name

    def forward_block(self, block, rows):
        block[:rows] = FUNCTIONS[self.name](block[:rows])
        return block


def _activation(name):
    return ReLU() if name == "relu" else _Rowwise(name)


def _apply(module, x):
    """A non-``Linear`` layer's function on *x*, unblocked."""
    return FUNCTIONS["relu" if isinstance(module, ReLU) else module.name](x)


def _reference_blocked_matmul(x, weight, bias):
    """The per-layer kernel: pad this layer's input, one fixed-shape
    GEMM per block, bias over the whole block, slice."""
    rows = x.shape[0]
    if rows == 0:
        return np.zeros((0, weight.shape[1]))
    x = np.ascontiguousarray(x)
    pad = (-rows) % BLOCK_ROWS
    if pad:
        padded = np.zeros((rows + pad, x.shape[1]), dtype=x.dtype)
        padded[:rows] = x
        x = padded
    out = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64)
    for lo in range(0, x.shape[0], BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = x[lo:lo + BLOCK_ROWS] @ weight
    out += bias
    return out[:rows]


def _reference_chain(net, x):
    """Oracle: every ``Linear`` runs the per-layer kernel, every other
    module its plain function."""
    for module in net:
        if isinstance(module, Linear):
            x = _reference_blocked_matmul(x, module.weight.data, module.bias.data)
        else:
            x = _apply(module, x)
    return x


def _net(activation):
    """A 9 -> 24 -> 16 -> 3 MLP with *activation* after each hidden
    layer."""
    key = ("batched", activation)
    return Sequential(
        Linear(9, 24, seed_key=(key, 0)),
        _activation(activation),
        Linear(24, 16, seed_key=(key, 1)),
        _activation(activation),
        Linear(16, 3, seed_key=(key, "out")),
    )


def _inputs(rows, seed=0):
    # Wide enough that sigmoid and tanh saturate on some entries and
    # ReLU zeroes about half of each hidden layer.
    return np.random.default_rng(seed).normal(scale=3.0, size=(rows, 9))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("rows", ROW_COUNTS)
class TestSequentialForwardBatched:
    def test_each_row_equals_that_row_alone(self, rows, activation):
        net, x = _net(activation), _inputs(rows)
        out = net.forward_batched(x)
        for i in range(rows):
            alone = net.forward_batched(x[i:i + 1])[0]
            np.testing.assert_array_equal(_bits(out[i]), _bits(alone))

    def test_equals_the_per_layer_chain(self, rows, activation):
        net, x = _net(activation), _inputs(rows, seed=1)
        np.testing.assert_array_equal(
            _bits(net.forward_batched(x)), _bits(_reference_chain(net, x))
        )

    def test_padding_rows_stay_zero(self, rows, activation):
        net = _net(activation)
        block = net.forward_block(pad_rows(_inputs(rows, seed=2)), rows)
        assert block.shape[0] % BLOCK_ROWS == 0
        assert not block[rows:].any()


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_empty_input_is_an_empty_float64_array(activation):
    out = _net(activation).forward_batched(np.zeros((0, 9)))
    assert out.shape == (0, 3)
    assert out.dtype == np.float64


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_a_bare_layer_inherits_the_batch_invariant_forward(rows):
    """``Linear`` and the activations define only ``forward_block``; the
    inherited ``forward_batched`` must still be the per-layer kernel
    and the plain function."""
    x = _inputs(rows, seed=6)
    linear = Linear(9, 5, seed_key="bare")
    got = linear.forward_batched(x)
    assert got.shape == (rows, 5) and got.dtype == np.float64
    want = _reference_blocked_matmul(x, linear.weight.data, linear.bias.data)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    for activation in _net("relu").modules[1::2] + _net("tanh").modules[1::2]:
        np.testing.assert_array_equal(
            _bits(activation.forward_batched(x)), _bits(_apply(activation, x))
        )


def test_pad_rows_rounds_up_to_whole_blocks():
    for rows in ROW_COUNTS:
        x = _inputs(rows)
        block = pad_rows(x)
        assert block.shape == (-(-rows // BLOCK_ROWS) * BLOCK_ROWS, 9)
        np.testing.assert_array_equal(block[:rows], x)
        assert not block[rows:].any()


def test_block_gemm_is_one_gemm_per_block():
    """``block_gemm`` issues one GEMM per whole block: each block of its
    result equals that block's own product."""
    rng = np.random.default_rng(5)
    block, w = pad_rows(rng.normal(size=(40, 6))), rng.normal(size=(6, 4))
    out = block_gemm(block, w)
    for lo in range(0, block.shape[0], BLOCK_ROWS):
        np.testing.assert_array_equal(out[lo:lo + BLOCK_ROWS], block[lo:lo + BLOCK_ROWS] @ w)


def test_nested_sequential_pads_once_and_matches_the_chain():
    inner, outer_head = _net("tanh"), Linear(3, 2, seed_key="head")
    net = Sequential(inner, outer_head)
    x = _inputs(BLOCK_ROWS + 3, seed=4)
    want = _reference_blocked_matmul(
        _reference_chain(inner, x), outer_head.weight.data, outer_head.bias.data
    )
    np.testing.assert_array_equal(_bits(net.forward_batched(x)), _bits(want))
