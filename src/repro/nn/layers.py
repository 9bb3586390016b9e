"""Dense layers, ReLU and sequential composition on plain numpy.

The layer set is what QPPNet and MSCN need: dense layers, ReLU
activations and sequential composition.  A layer holds its weights as
:class:`~repro.nn.optim.Parameter` objects (``parameters()`` for the
optimizer and checkpoints) and has one forward of its own, the
fixed-block serving forward (:meth:`Module.forward_batched`).
Training runs a ``Sequential`` through :mod:`repro.nn.train` instead,
whose forward keeps what the hand-derived backward needs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from . import init as _init
from .batched import block_gemm, pad_rows
from .optim import Parameter


class Module:
    """Base class: anything with parameters and a forward pass."""

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters (default: none)."""
        return []

    def forward_batched(self, x: np.ndarray) -> np.ndarray:
        """Batch-size-invariant inference forward.

        Guarantees that row ``i`` of the output depends only on row
        ``i`` of the input — so fusing many requests into one call
        cannot perturb any single request's result (see
        :mod:`repro.nn.batched`).  Pads *x* to whole blocks once, runs
        :meth:`forward_block` on the padded block and slices the real
        rows once; layers customise :meth:`forward_block`, never this.
        """
        rows = x.shape[0]
        return self.forward_block(pad_rows(x), rows)[:rows]

    def forward_block(self, block: np.ndarray, rows: int) -> np.ndarray:
        """One layer of a pad-once forward (see :mod:`repro.nn.batched`).

        *block* holds whole :data:`~repro.nn.batched.BLOCK_ROWS`-row
        blocks whose first *rows* rows are real and the rest zero
        padding; returns the layer's output in the same layout and may
        overwrite *block*.  Padding rows must stay zero.
        """
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Drop every parameter's gradient."""
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Number of trainable scalars."""
        return int(sum(p.size for p in self.parameters()))

    def state_dict(self) -> List[np.ndarray]:
        """Copy of every parameter array, for checkpoint/restore."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: Sequence[np.ndarray]) -> None:
        """Install copies of *state*'s arrays (shapes checked)."""
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
        self.weight = Parameter(
            _init.kaiming_uniform(in_features, out_features, seed_key)
        )
        self.bias = Parameter(_init.bias_uniform(in_features, out_features, seed_key))

    def parameters(self) -> List[Parameter]:
        """The weight and the bias."""
        return [self.weight, self.bias]

    def forward_block(self, block: np.ndarray, rows: int) -> np.ndarray:
        """The fixed-block GEMM on an already padded block; the bias
        goes on the real rows only, so padding rows stay zero."""
        out = block_gemm(block, self.weight.data)
        out[:rows] += self.bias.data
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class ReLU(Module):
    """Rectified linear activation, ``x * (x > 0)``."""

    def forward_block(self, block: np.ndarray, rows: int) -> np.ndarray:
        """The activation on the real rows, written in place."""
        real = block[:rows]
        np.multiply(real, real > 0, out=real)
        return block

    def __repr__(self) -> str:
        return "ReLU()"


class Sequential(Module):
    """Compose modules in order; also the hook point for difference
    propagation, which walks ``.modules`` layer by layer."""

    def __init__(self, *modules: Module):
        self.modules: List[Module] = list(modules)

    def parameters(self) -> List[Parameter]:
        """Every module's parameters, in module order."""
        params: List[Parameter] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params

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
) -> Sequential:
    """Build a standard MLP: Linear/ReLU pairs ending in a bare Linear.

    The paper's example models use ReLU, which is what makes plain
    gradient importance fail (Section IV-B).
    """
    layers: List[Module] = []
    last = in_features
    for index, width in enumerate(hidden):
        layers.append(Linear(last, width, seed_key=(seed_key, index)))
        layers.append(ReLU())
        last = width
    layers.append(Linear(last, out_features, seed_key=(seed_key, "out")))
    return Sequential(*layers)
