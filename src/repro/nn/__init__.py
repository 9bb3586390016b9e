"""Minimal numpy neural-network substrate (autodiff, layers, optim).

Replaces the paper's PyTorch dependency.  The dynamic-graph autodiff
:class:`Tensor` trains MSCN and computes gradient importance; QPPNet
trains on hand-derived gradients over :class:`FlatParameter` units
(:mod:`repro.models.qppnet`), with the autodiff graph as its test
oracle.
"""

from .batched import BLOCK_ROWS, blocked_matmul
from .tensor import Tensor, affine, as_tensor, concat, gather_rows, stack
from .layers import Linear, Module, ReLU, Sequential, Sigmoid, Tanh, mlp
from .loss import log_mse, mae, mse, numpy_q_error, q_error_loss
from .optim import SGD, Adam, FlatParameter, Optimizer, clip_grad_norm

__all__ = [
    "BLOCK_ROWS",
    "blocked_matmul",
    "Tensor",
    "affine",
    "as_tensor",
    "concat",
    "gather_rows",
    "stack",
    "Linear",
    "Module",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "mlp",
    "mse",
    "mae",
    "log_mse",
    "q_error_loss",
    "numpy_q_error",
    "SGD",
    "Adam",
    "FlatParameter",
    "Optimizer",
    "clip_grad_norm",
]
