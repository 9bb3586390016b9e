"""Weight initialisation schemes for the nn substrate."""

from __future__ import annotations

import numpy as np

from ..rng import rng_for


def kaiming_uniform(fan_in: int, fan_out: int, seed_key: object = 0) -> np.ndarray:
    """He/Kaiming uniform init, the PyTorch default for Linear + ReLU."""
    bound = np.sqrt(6.0 / fan_in)
    return rng_for("kaiming", seed_key, fan_in, fan_out).uniform(
        -bound, bound, size=(fan_in, fan_out)
    )


def bias_uniform(fan_in: int, size: int, seed_key: object = 0) -> np.ndarray:
    """PyTorch-style bias init: uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng_for("bias", seed_key, fan_in, size).uniform(-bound, bound, size=size)
