"""Neural-network layers built on the autodiff Tensor.

The layer set intentionally mirrors what QPPNet and MSCN need: dense
layers, ReLU/Sigmoid activations and sequential composition.  Layers
expose ``parameters()`` for the optimizers and a functional
``__call__``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from . import init as _init
from .batched import block_gemm, pad_rows
from .tensor import Tensor, affine


class Module:
    """Base class: anything with parameters and a forward pass."""

    def parameters(self) -> List[Tensor]:
        """Return all trainable tensors (default: none)."""
        return []

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward on raw arrays.

        Bit-identical to :meth:`forward` but skips building the
        autodiff graph — the serving hot path uses this; training
        never should.
        """
        raise NotImplementedError

    def forward_batched(self, x: np.ndarray) -> np.ndarray:
        """Batch-size-invariant inference forward.

        Like :meth:`forward_numpy`, but additionally guarantees that
        row ``i`` of the output depends only on row ``i`` of the input
        — so fusing many requests into one call cannot perturb any
        single request's result (see :mod:`repro.nn.batched`).  Pads
        *x* to whole blocks once, runs :meth:`forward_block` on the
        padded block and slices the real rows once; layers customise
        :meth:`forward_block`, never this.
        """
        rows = x.shape[0]
        return self.forward_block(pad_rows(x), rows)[:rows]

    def forward_block(self, block: np.ndarray, rows: int) -> np.ndarray:
        """One layer of a pad-once forward (see :mod:`repro.nn.batched`).

        *block* holds whole :data:`~repro.nn.batched.BLOCK_ROWS`-row
        blocks whose first *rows* rows are real and the rest zero
        padding; returns the layer's output in the same layout and may
        overwrite *block*.  The default suits elementwise layers: it
        applies :meth:`forward_numpy` to the real rows in place, so the
        padding stays zero.  Layers that change the width must override.
        """
        block[:rows] = self.forward_numpy(block[:rows])
        return block

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def state_dict(self) -> List[np.ndarray]:
        """Copy of every parameter array, for checkpoint/restore."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays, model has {len(params)} parameters"
            )
        for p, array in zip(params, state, strict=True):
            if p.data.shape != array.shape:
                raise ValueError(f"shape mismatch: {p.data.shape} vs {array.shape}")
            p.data = array.copy()


class Linear(Module):
    """Dense layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, seed_key: object = 0):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _init.kaiming_uniform(in_features, out_features, seed_key), requires_grad=True
        )
        self.bias = Tensor(
            _init.bias_uniform(in_features, out_features, seed_key), requires_grad=True
        )

    def parameters(self) -> List[Tensor]:
        return [self.weight, self.bias]

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.data + self.bias.data

    def forward_block(self, block: np.ndarray, rows: int) -> np.ndarray:
        """The fixed-block GEMM on an already padded block; the bias
        goes on the real rows only, so padding rows stay zero."""
        out = block_gemm(block, self.weight.data)
        out[:rows] += self.bias.data
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        return x * (x > 0)

    def forward_block(self, block: np.ndarray, rows: int) -> np.ndarray:
        """:meth:`forward_numpy` on the real rows, written in place."""
        real = block[:rows]
        np.multiply(real, real > 0, out=real)
        return block

    def __repr__(self) -> str:
        return "ReLU()"


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def __repr__(self) -> str:
        return "Sigmoid()"


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def __repr__(self) -> str:
        return "Tanh()"


class Sequential(Module):
    """Compose modules in order; also the hook point for difference
    propagation, which walks ``.modules`` layer by layer."""

    def __init__(self, *modules: Module):
        self.modules: List[Module] = list(modules)

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module.forward_numpy(x)
        return x

    def forward_block(self, block: np.ndarray, rows: int) -> np.ndarray:
        """Chain each layer's :meth:`forward_block` on the one padded
        block, so a whole network pads and slices once."""
        for module in self.modules:
            block = module.forward_block(block, rows)
        return block

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.modules)
        return f"Sequential({inner})"


def mlp(
    in_features: int,
    hidden: Iterable[int],
    out_features: int,
    seed_key: object = 0,
    activation: str = "relu",
) -> Sequential:
    """Build a standard MLP: Linear/act pairs ending in a bare Linear.

    ``activation`` may be ``"relu"``, ``"sigmoid"`` or ``"tanh"``; the
    paper's example models use ReLU (which is what makes plain gradient
    importance fail, Section IV-B).
    """
    acts = {"relu": ReLU, "sigmoid": Sigmoid, "tanh": Tanh}
    if activation not in acts:
        raise ValueError(f"unknown activation {activation!r}")
    layers: List[Module] = []
    last = in_features
    for index, width in enumerate(hidden):
        layers.append(Linear(last, width, seed_key=(seed_key, index)))
        layers.append(acts[activation]())
        last = width
    layers.append(Linear(last, out_features, seed_key=(seed_key, "out")))
    return Sequential(*layers)
