"""Deterministic fixed-block GEMM: the fused-batch inference kernel.

The serving stack promises *bit-identical* predictions whether a plan
is estimated alone or inside a micro-batch flush.  A plain
``x @ W`` cannot keep that promise: BLAS picks its reduction blocking
from the full matrix shape, so the same row produces last-ulp
different results depending on how many other rows share the call
(observed on OpenBLAS: ``X[i] @ W != (X @ W)[i]`` by ~1e-14).

The fix is to take the shape out of BLAS's hands: pad the row count to
a multiple of :data:`BLOCK_ROWS` and issue only constant-shape
``(BLOCK_ROWS, k) @ (k, m)`` multiplies.  With the block shape fixed,
a row's result depends on nothing but its own contents — not its
position, not its neighbours, not the batch size — so zero-padding is
safe and scalar/batched paths agree bit for bit by construction.
Elementwise activations and the bias add are row-local already and
need no blocking.

Pad once per network, not once per layer.
:meth:`repro.nn.layers.Module.forward_batched`, the one batch-invariant
forward of every layer and network, pads its input to whole blocks
once with :func:`pad_rows`, runs :meth:`~repro.nn.layers.Module.forward_block`
on that padded block (a ``Sequential`` chains its layers' blocks, a
``Linear`` calls :func:`block_gemm`), and slices the real rows out once
at the end.  The invariant that keeps this bit-identical to
padding before every layer: real rows see the same fixed-shape GEMM
calls, while the bias add and activations touch the real rows only.
Padding rows therefore stay zero (``0 @ W`` is zero) and are never
read back.
"""

from __future__ import annotations

import numpy as np

#: Rows per fixed-shape GEMM call.  Small enough that a single-plan
#: request pads little, large enough that big flushes still amortise
#: the Python loop (a 512-row batch is 16 calls).
BLOCK_ROWS = 32


def pad_rows(x: np.ndarray) -> np.ndarray:
    """*x* copied into a zeroed float64 block of whole
    :data:`BLOCK_ROWS`-row blocks (``(0, k)`` stays ``(0, k)``)."""
    rows = x.shape[0]
    block = np.zeros((rows + (-rows) % BLOCK_ROWS, x.shape[1]))
    block[:rows] = x
    return block


def block_gemm(block: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``block @ weight`` as one ``(BLOCK_ROWS, k) @ (k, m)`` call per
    block; *block*'s row count must be a multiple of :data:`BLOCK_ROWS`
    (see :func:`pad_rows`).  The one GEMM loop of the package."""
    if block.shape[0] == BLOCK_ROWS:
        # One block, the common small flush: the loop's single call,
        # minus the output buffer and the slicing.  Worth the branch:
        # 7.3 vs 9.6 us for a (32, 40) @ (40, 64) block, and a
        # one-plan predict runs about 16 of them (2-vCPU Xeon, numpy 2.4).
        return block @ weight
    out = np.empty((block.shape[0], weight.shape[1]))
    for lo in range(0, block.shape[0], BLOCK_ROWS):
        np.matmul(
            block[lo:lo + BLOCK_ROWS], weight, out=out[lo:lo + BLOCK_ROWS]
        )
    return out

