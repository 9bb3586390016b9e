"""Gradient-based feature importance (the paper's GD baseline).

Scores each input dimension by the expected magnitude of the model's
partial derivative, gathered with ordinary back-propagation.  This is
the method Section IV-B shows to be unreliable for cost models: one-hot
dimensions are discrete (the local derivative is meaningless) and ReLU
units dead across the dataset contribute exactly zero gradient, so GD
prunes aggressively but partly *wrongly* — reproduced in Figure 6/7.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import Sequential
from ..nn.train import FlatNet, forward_trace
from .reduction import keep_mask_from_scores


def gradient_importance(
    model: Sequential,
    data: np.ndarray,
    output_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """I_gradient(k) = E_x |dy/dx_k| over the dataset.

    ``output_weights`` selects the model outputs to differentiate (for
    QPPNet units, a one-hot on the cost output).  The derivative is
    the training backward's input gradient (:class:`~repro.nn.train.FlatNet`,
    which makes *model*'s arrays views of one flat parameter), seeded
    with the output weights on every row.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    trace = forward_trace(model, data)
    seed = np.ones(trace[-1].shape)
    if output_weights is not None:
        seed *= np.asarray(output_weights, dtype=np.float64).reshape(1, -1)
    grad = FlatNet(model).backward(trace, seed, want_input=True)
    return np.abs(grad).mean(axis=0)


def gradient_reduction(
    model: Sequential,
    data: np.ndarray,
    always_keep: Optional[Sequence[int]] = None,
    output_weights: Optional[np.ndarray] = None,
    tolerance_ratio: float = 1e-3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scores + keep mask, GD flavour (same filter rule as FR)."""
    scores = gradient_importance(model, data, output_weights=output_weights)
    return scores, keep_mask_from_scores(
        scores, always_keep=always_keep, tolerance_ratio=tolerance_ratio
    )
