"""The training forward and the hand-derived backward of an MLP.

Every network the repro trains or differentiates is a ``Sequential`` of
``Linear`` and ``ReLU`` layers, so one forward and one backward serve
QPPNet's units, MSCN's four nets and gradient importance; difference
propagation reuses the forward.  The expressions are a reverse-mode
graph's over the same layers (``x @ W + b``, ``x * mask``,
``x.T @ grad``, the bias gradient summed over rows, ``grad @ W.T``), so
the gradients carry the graph's bits; the tests check them against one.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .layers import Linear, ReLU, Sequential
from .optim import FlatParameter


def forward_trace(net: Sequential, x: np.ndarray) -> List[np.ndarray]:
    """Each layer's input on the rows of *x*, then *net*'s output.

    A plain ``x @ W`` per layer, unlike the fixed-block
    ``forward_batched``: a row's bits may depend on the other rows.
    Raises ``TypeError`` for a layer other than ``Linear`` or ``ReLU``.
    """
    trace = [x]
    for layer in net.modules:
        if isinstance(layer, Linear):
            x = x @ layer.weight.data
            x += layer.bias.data
        elif isinstance(layer, ReLU):
            x = x * (x > 0)
        else:
            raise TypeError(f"no training forward for layer {layer!r}")
        trace.append(x)
    return trace


class FlatNet:
    """A net's trainable state: ``param``, one
    :class:`~repro.nn.optim.FlatParameter` over its layers' weights and
    biases (which become views of it), and one flat gradient buffer.
    """

    def __init__(self, net: Sequential):
        self.net = net
        self.param = FlatParameter(
            [p for layer in net.modules for p in layer.parameters()]
        )
        self._grad = np.empty_like(self.param.data)
        parts = iter(self.param.split(self._grad))
        self._grads = [
            (next(parts), next(parts)) if isinstance(layer, Linear) else None
            for layer in net.modules
        ]

    def backward(
        self,
        trace: List[np.ndarray],
        grad: np.ndarray,
        want_input: bool = False,
    ) -> Optional[np.ndarray]:
        """Back-propagate *grad*, the loss gradient at the output of
        :func:`forward_trace`'s *trace*, into the buffer: the first call
        after ``param.zero_grad()`` writes the gradients and sets
        ``param.grad``, later calls add.  Returns the input gradient
        when *want_input*, else None.
        """
        first = self.param.grad is None
        layers = self.net.modules
        for index in range(len(layers) - 1, -1, -1):
            x = trace[index]
            grads = self._grads[index]
            if grads is None:
                grad = grad * (x > 0)
                continue
            weight_grad, bias_grad = grads
            # One row: each entry is one exact product either way, and
            # the outer product is far cheaper than a k=1 matmul.
            grad_weight = x.T * grad if len(grad) == 1 else x.T @ grad
            grad_bias = np.add.reduce(grad, axis=0)
            if first:
                weight_grad[...] = grad_weight
                bias_grad[...] = grad_bias
            else:
                weight_grad += grad_weight
                bias_grad += grad_bias
            if index or want_input:
                grad = grad @ layers[index].weight.data.T
        self.param.grad = self._grad
        return grad if want_input else None
