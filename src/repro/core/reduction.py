"""Difference-propagation feature reduction (paper Section IV-B).

Plain gradient importance fails on learned cost models for two reasons
the paper identifies: one-hot inputs are discrete (a derivative at the
point tells nothing about flipping the bit) and ReLU units that are
dead at the data points contribute zero gradient.  The fix is to
propagate *finite differences against reference inputs* instead of
derivatives — Equation 1, the Rescale rule of DeepLIFT (Shrikumar et
al., which the paper implements via the SHAP library).

For a network ``y = L_k(...L_1(x))`` and a reference ``r``:

* through a linear layer the multiplier is the weight matrix (the
  secant of a linear map is its slope);
* through ReLU the multiplier is the secant slope
  ``(relu(a_x) - relu(a_r)) / (a_x - a_r)`` (falling back to the
  derivative when the pre-activations coincide).

The importance of input dimension ``k`` is the expected magnitude of
its contribution ``m_k * (x_k - r_k)`` over data x in D and references
r in R — zero for dimensions that never vary or never move the output,
positive otherwise, even across dead ReLUs and one-hot flips.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import FeatureError
from ..nn.layers import Linear, Sequential
from ..nn.train import forward_trace
from ..rng import rng_for

_EPS = 1e-9


def _forward_trace(model: Sequential, x: np.ndarray) -> List[np.ndarray]:
    """Inputs seen by each layer during a forward pass (plus output):
    the training forward (:func:`~repro.nn.train.forward_trace`), with
    a layer it cannot run reported as a :class:`FeatureError`."""
    try:
        return forward_trace(model, x)
    except TypeError as exc:
        raise FeatureError(f"difference propagation: {exc}") from exc


def _secant(pre_x: np.ndarray, pre_r: np.ndarray, post_x: np.ndarray,
            post_r: np.ndarray, derivative: np.ndarray) -> np.ndarray:
    """Elementwise secant slope with derivative fallback at ties."""
    delta_in = pre_x - pre_r
    delta_out = post_x - post_r
    slope = np.where(np.abs(delta_in) > _EPS, delta_out / np.where(
        np.abs(delta_in) > _EPS, delta_in, 1.0), derivative)
    return slope


def difference_multipliers(
    model: Sequential,
    x: np.ndarray,
    reference: np.ndarray,
    output_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multipliers m_{k,out} of every input dim for each sample in *x*.

    ``x`` is (n, d); ``reference`` is a single reference row (d,).
    ``output_weights`` selects/weights the model outputs (defaults to
    all ones; for QPPNet units pass a one-hot on the cost output).
    Returns (n, d).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _multipliers(model, _forward_trace(model, x), reference, output_weights)


def _multipliers(
    model: Sequential,
    trace_x: List[np.ndarray],
    reference: np.ndarray,
    output_weights: Optional[np.ndarray],
) -> np.ndarray:
    """:func:`difference_multipliers` given the data's forward trace,
    which does not depend on the reference."""
    reference = np.asarray(reference, dtype=np.float64).reshape(1, -1)
    trace_r = _forward_trace(model, reference)
    n = trace_x[0].shape[0]

    # Backward sweep, seeded by the output weighting.
    out_dim = trace_x[-1].shape[-1]
    if output_weights is None:
        multiplier = np.ones((n, out_dim))
    else:
        weights = np.asarray(output_weights, dtype=np.float64).reshape(1, -1)
        multiplier = np.repeat(weights, n, axis=0)
    for index in range(len(model.modules) - 1, -1, -1):
        layer = model.modules[index]
        if isinstance(layer, Linear):
            multiplier = multiplier @ layer.weight.data.T
            continue
        # A ReLU: the trace admits no other layer.
        pre_x, post_x = trace_x[index], trace_x[index + 1]
        pre_r, post_r = trace_r[index], trace_r[index + 1]
        derivative = (pre_x > 0).astype(np.float64)
        multiplier = multiplier * _secant(pre_x, pre_r, post_x, post_r, derivative)
    return multiplier


def difference_importance(
    model: Sequential,
    data: np.ndarray,
    references: Optional[np.ndarray] = None,
    n_references: int = 16,
    output_weights: Optional[np.ndarray] = None,
    seed: object = 0,
) -> np.ndarray:
    """Per-dimension importance scores I_diff (paper Equation 1 /
    Algorithm 3, with DeepLIFT contributions |m_k * delta_x_k|)."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if references is None:
        rng = rng_for("fr-references", seed)
        take = min(n_references, len(data))
        picks = rng.choice(len(data), size=take, replace=False)
        references = data[picks]
    references = np.atleast_2d(references)
    trace_x = _forward_trace(model, data)
    scores = np.zeros(data.shape[1])
    for ref in references:
        multiplier = _multipliers(model, trace_x, ref, output_weights)
        contributions = multiplier * (data - ref.reshape(1, -1))
        scores += np.abs(contributions).mean(axis=0)
    return scores / len(references)


def keep_mask_from_scores(
    scores: np.ndarray,
    always_keep: Optional[Sequence[int]] = None,
    tolerance_ratio: float = 1e-3,
) -> np.ndarray:
    """Algorithm 3's filter: keep dimensions with score > 0.

    Floating point never yields exact zeros, so "zero" is anything
    below ``tolerance_ratio`` of the maximum score.  Difference
    contributions of genuinely useless dimensions are *exact* zeros
    (a dimension that never varies has delta_x == 0), so FR is
    insensitive to this threshold; gradient scores are small-but-
    nonzero everywhere, which is how GD ends up pruning plausible-but-
    wrong dimension sets (paper Figures 6-7).
    """
    scores = np.asarray(scores, dtype=np.float64)
    top = float(scores.max()) if scores.size else 0.0
    threshold = top * tolerance_ratio
    keep = scores > threshold
    if always_keep is not None:
        keep[np.asarray(list(always_keep), dtype=int)] = True
    if not keep.any():
        keep[:] = True  # never reduce to an empty feature set
    return keep
