"""Parameters and the Adam optimizer of the nn substrate."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


class Parameter:
    """A trainable array: ``data`` and its gradient ``grad`` (None
    until a backward pass writes one).  There is no graph; gradients
    come from :class:`repro.nn.train.FlatNet`."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Number of entries of ``data``."""
        return self.data.size

    def zero_grad(self) -> None:
        """Drop the gradient, so the next backward writes a fresh one."""
        self.grad = None


class FlatParameter(Parameter):
    """Several parameters held as one flat vector.

    On construction each parameter's ``data`` becomes a view of this
    parameter's ``data``, so an in-place optimizer step on the flat
    vector updates every part.  ``bounds`` holds each part's ``(lo,
    hi)`` slice and ``shapes`` its shape, in the given order.
    Elementwise updates give a part the bits it would get on its own,
    and :func:`clip_grad_norm` sums squares part by part, so a flat
    parameter trains exactly as its parts would.
    """

    __slots__ = ("bounds", "shapes")

    def __init__(self, parameters: Sequence[Parameter]):
        super().__init__(np.concatenate([p.data.reshape(-1) for p in parameters]))
        ends = np.cumsum([p.data.size for p in parameters]).tolist()
        self.bounds = list(zip([0, *ends[:-1]], ends))
        self.shapes = [p.data.shape for p in parameters]
        for p, view in zip(parameters, self.split(self.data), strict=True):
            p.data = view

    def split(self, flat: np.ndarray) -> List[np.ndarray]:
        """Views of *flat* (shaped like ``data``), one per part."""
        return [
            flat[lo:hi].reshape(shape)
            for (lo, hi), shape in zip(self.bounds, self.shapes, strict=True)
        ]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters: List[Parameter] = list(parameters)
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Drop every parameter's gradient."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        """Update every parameter that has a gradient."""
        raise NotImplementedError


#: Adam's moment decay rates and denominator guard, at the paper's
#: defaults (Kingma & Ba); no caller sets others.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the optimizer used to train QPPNet/MSCN,
    with :data:`BETA1`, :data:`BETA2` and :data:`EPS`.

    Updates ``data`` (and the moment estimates) in place, so views of
    a :class:`FlatParameter` stay live across steps.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3):
        super().__init__(parameters, lr)
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._t = 0

    def step(self) -> None:
        """One Adam update of every parameter that has a gradient."""
        self._t += 1
        b1, b2 = BETA1, BETA2
        m_scale = 1 - b1**self._t
        v_scale = 1 - b2**self._t
        for index, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            m = self._m[index]
            v = self._v[index]
            if m is None:
                m = self._m[index] = (1 - b1) * grad
                v = self._v[index] = (1 - b2) * grad**2
            else:
                m *= b1
                m += (1 - b1) * grad
                v *= b2
                v += (1 - b2) * grad**2
            step = self.lr * (m / m_scale)
            step /= np.sqrt(v / v_scale) + EPS
            p.data -= step


def _square_sums(p: Parameter) -> List[float]:
    """Sum of squared gradient per parameter (per part of a
    :class:`FlatParameter`)."""
    squares = p.grad**2
    if isinstance(p, FlatParameter):
        return [float(squares[lo:hi].sum()) for lo, hi in p.bounds]
    return [float(squares.sum())]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm <= max_norm."""
    total = 0.0
    for p in parameters:
        if p.grad is not None:
            for part in _square_sums(p):
                total += part
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in parameters:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
