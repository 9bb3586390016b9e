"""The training loss and the q-error metric.

Both estimators train on the mean squared error of log latencies
(:func:`mse_grad`, which also returns the gradient the backward of
:mod:`repro.nn.train` starts from); models are judged by the q-error
(:func:`numpy_q_error`, paper Eq. 2).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_EPS = 1e-9


def mse_grad(pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """``mean((pred - target) ** 2)`` and its gradient at *pred*.

    The gradient is computed as a graph differentiates ``diff * diff``
    under a mean: the mean's ``1 / n`` times ``diff``, once per factor
    of the product, the two added.
    """
    diff = pred - target
    half = (1.0 / len(diff)) * diff
    return float((diff * diff).mean()), half + half


def numpy_q_error(pred: np.ndarray, actual: np.ndarray, eps: float = _EPS) -> np.ndarray:
    """Vector of q-errors ``max(actual/pred, pred/actual)`` (paper Eq. 2)."""
    p = np.maximum(np.asarray(pred, dtype=np.float64), eps)
    a = np.maximum(np.asarray(actual, dtype=np.float64), eps)
    return np.maximum(a / p, p / a)
