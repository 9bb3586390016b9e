"""A small reverse-mode automatic differentiation engine: the test oracle.

The package trains and differentiates on hand-derived gradients
(:mod:`repro.nn.train`).  This module provides what those gradients
are checked against: a :class:`Tensor` wrapping a ``numpy.ndarray``
that records the operations applied to it and back-propagates
gradients through an arbitrary DAG, and :func:`graph_forward`, which
runs a package ``Sequential`` on it with the layers' parameters as
graph leaves.  The QPPNet and MSCN trainers and gradient importance
that the package used before its gradients were hand-derived are
rebuilt on it in the tests, and their bits are the reference.

Only the operations the oracles need are implemented, but each
supports full numpy broadcasting with correct gradient reduction.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.optim import Parameter

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum *grad* down to *shape*, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dims added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dims that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts; stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._backward = backward
            out._parents = parents
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim else grad * other.data)
                else:
                    g = grad if grad.ndim > 1 else grad[None, :]
                    res = g @ other.data.T
                    self._accumulate(res.reshape(self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    g = grad if grad.ndim > 1 else grad[None, :]
                    other._accumulate(self.data.T @ g if g.ndim > 1 else self.data.T @ grad)

        return self._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # nonlinearities and elementwise functions
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60.0, 60.0))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip_min(self, low: float) -> "Tensor":
        """Elementwise ``max(self, low)`` with a straight-through lower branch."""
        mask = self.data > low

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(np.maximum(self.data, low), (self,), backward)

    # ------------------------------------------------------------------
    # reductions and reshaping
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad) / count
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(self.data.mean(axis=axis, keepdims=keepdims), (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        old_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(old_shape))

        return self._make(self.data.reshape(*shape), (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-style name
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return self._make(self.data.T, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return self._make(self.data[key], (self,), backward)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (so a scalar loss needs no argument).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).copy()

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along *axis* with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:], strict=True):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors))
    if out.requires_grad:
        out._backward = backward
        out._parents = tuple(tensors)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new *axis* with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts, strict=True):
            if tensor.requires_grad:
                tensor._accumulate(part.reshape(tensor.shape))

    out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors))
    if out.requires_grad:
        out._backward = backward
        out._parents = tuple(tensors)
    return out


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` for a 2-D *x*, as one graph node.

    Same forward expression and the same backward arithmetic as the
    composed matmul and add, minus one node and one closure per call.
    """

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))

    return x._make(x.data @ weight.data + bias.data, (x, weight, bias), backward)


def gather_rows(
    sources: Sequence[Tensor],
    source_index: np.ndarray,
    row_index: np.ndarray,
    start: int,
    width: int,
) -> Tensor:
    """Read rows of several 2-D tensors into one ``(n, k * width)`` block.

    *source_index* and *row_index* are ``(n, k)``: slot ``(i, j)`` of the
    output row ``i`` is ``sources[source_index[i, j]][row_index[i, j],
    start:start + width]``, or zeros where ``source_index[i, j]`` is
    negative.  A row may be read more than once; backward scatters each
    source's share of the gradient into it with ``np.add.at``.
    """
    source_index = np.asarray(source_index, dtype=np.int64)
    row_index = np.asarray(row_index, dtype=np.int64)
    n, k = source_index.shape
    flat_source = source_index.reshape(-1)
    flat_row = row_index.reshape(-1)
    columns = slice(start, start + width)
    data = np.zeros((n * k, width))
    reads = []
    for index in sorted(i for i in set(flat_source.tolist()) if i >= 0):
        source = sources[index]
        positions = np.flatnonzero(flat_source == index)
        rows = flat_row[positions]
        data[positions] = source.data[rows, columns]
        reads.append((source, positions, rows))

    def backward(grad: np.ndarray) -> None:
        grad = grad.reshape(n * k, width)
        for source, positions, rows in reads:
            if source.requires_grad:
                full = np.zeros_like(source.data)
                np.add.at(full[:, columns], rows, grad[positions])
                source._accumulate(full)

    parents = tuple(source for source, _, _ in reads)
    out = Tensor(
        data.reshape(n, k * width),
        requires_grad=any(p.requires_grad for p in parents),
    )
    if out.requires_grad:
        out._backward = backward
        out._parents = parents
    return out


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce *value* to a (non-differentiable) Tensor."""
    return value if isinstance(value, Tensor) else Tensor(value)


def mse(pred: Tensor, target: ArrayLike) -> Tensor:
    """Mean squared error."""
    diff = pred - as_tensor(target)
    return (diff * diff).mean()


class _ParameterLeaf(Tensor):
    """A :class:`~repro.nn.optim.Parameter` as a graph leaf: its data,
    and its gradient accumulated into the parameter's ``grad``."""

    __slots__ = ("param",)

    def __init__(self, param: Parameter):
        super().__init__(param.data, requires_grad=True)
        self.param = param

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.param.grad is None:
            self.param.grad = np.array(grad, dtype=np.float64)
        else:
            self.param.grad = self.param.grad + grad


def graph_forward(net: Sequential, x: Tensor) -> Tensor:
    """*net* applied to *x* as graph nodes: one affine node per
    ``Linear`` (its weight and bias as leaves whose gradients land in
    the parameters' ``grad``) and one relu node per ``ReLU``."""
    for layer in net.modules:
        if isinstance(layer, Linear):
            x = affine(x, _ParameterLeaf(layer.weight), _ParameterLeaf(layer.bias))
        elif isinstance(layer, ReLU):
            x = x.relu()
        else:
            raise TypeError(f"no graph forward for layer {layer!r}")
    return x
