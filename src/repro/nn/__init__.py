"""Minimal numpy neural-network substrate (layers, training, optim).

Replaces the paper's PyTorch dependency, without an autodiff graph.
Layers (:mod:`~repro.nn.layers`) hold plain
:class:`~repro.nn.optim.Parameter` arrays and serve through the
fixed-block forward (:mod:`~repro.nn.batched`).  Training runs one
forward that keeps each layer's input and one hand-derived backward
into a flat gradient buffer (:mod:`~repro.nn.train`), shared by
QPPNet, MSCN and gradient importance, from the squared-error gradient
of :func:`~repro.nn.loss.mse_grad`, and steps
:class:`~repro.nn.optim.Adam` over flat parameters.
"""

from .batched import BLOCK_ROWS
from .layers import Linear, Module, ReLU, Sequential, mlp
from .loss import mse_grad, numpy_q_error
from .optim import Adam, FlatParameter, Optimizer, Parameter, clip_grad_norm
from .train import FlatNet, forward_trace

__all__ = [
    "BLOCK_ROWS",
    "Linear",
    "Module",
    "ReLU",
    "Sequential",
    "mlp",
    "mse_grad",
    "numpy_q_error",
    "Adam",
    "FlatParameter",
    "Optimizer",
    "Parameter",
    "clip_grad_norm",
    "FlatNet",
    "forward_trace",
]
