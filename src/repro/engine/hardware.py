"""Hardware profiles: the "ignored variables" beyond knobs.

The paper's testbeds are an AMD R7-7735HS box (data collection) and an
Intel i7-12700H box (training, and the transfer target ``h2`` in
Section V-E).  A profile reduces to per-resource speed factors: how
many milliseconds one sequential page read, one random page read and
one tuple's worth of CPU work cost on that machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..rng import rng_for


@dataclass(frozen=True)
class HardwareProfile:
    """Physical machine description, reduced to timing primitives."""

    name: str
    seq_ms_per_page: float  # sequential read, disk
    rand_ms_per_page: float  # random read, disk
    cached_ms_per_page: float  # read served from buffer cache
    cpu_ms_per_ktuple: float  # per 1000 tuples of CPU processing
    memory_gb: float
    disk: str = "ssd"


#: The paper's two machines plus contrasting profiles for robustness
#: experiments.  Numbers approximate NVMe/SATA/HDD characteristics.
PROFILES: Dict[str, HardwareProfile] = {
    "h1_r7_7735hs": HardwareProfile(
        name="h1_r7_7735hs",
        seq_ms_per_page=0.0035,
        rand_ms_per_page=0.010,
        cached_ms_per_page=0.0004,
        cpu_ms_per_ktuple=0.011,
        memory_gb=16.0,
        disk="nvme",
    ),
    "h2_i7_12700h": HardwareProfile(
        name="h2_i7_12700h",
        seq_ms_per_page=0.0028,
        rand_ms_per_page=0.008,
        cached_ms_per_page=0.00032,
        cpu_ms_per_ktuple=0.008,
        memory_gb=42.0,
        disk="nvme",
    ),
    "sata_ssd_server": HardwareProfile(
        name="sata_ssd_server",
        seq_ms_per_page=0.012,
        rand_ms_per_page=0.06,
        cached_ms_per_page=0.0005,
        cpu_ms_per_ktuple=0.014,
        memory_gb=32.0,
        disk="ssd",
    ),
    "hdd_server": HardwareProfile(
        name="hdd_server",
        seq_ms_per_page=0.05,
        rand_ms_per_page=0.9,
        cached_ms_per_page=0.0005,
        cpu_ms_per_ktuple=0.012,
        memory_gb=64.0,
        disk="hdd",
    ),
}

DEFAULT_PROFILE = "h1_r7_7735hs"


def get_profile(name: str) -> HardwareProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown hardware profile {name!r}; known: {sorted(PROFILES)}"
        ) from None


def random_profile(seed: object) -> HardwareProfile:
    """Perturb the default profile — used for robustness sweeps."""
    rng = rng_for("hardware", seed)
    base = PROFILES[DEFAULT_PROFILE]

    def scale(value: float) -> float:
        return float(value * np.exp(rng.normal(0.0, 0.35)))

    return HardwareProfile(
        name=f"random-{seed}",
        seq_ms_per_page=scale(base.seq_ms_per_page),
        rand_ms_per_page=scale(base.rand_ms_per_page),
        cached_ms_per_page=scale(base.cached_ms_per_page),
        cpu_ms_per_ktuple=scale(base.cpu_ms_per_ktuple),
        memory_gb=base.memory_gb,
        disk=base.disk,
    )
