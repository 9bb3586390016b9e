"""Fixed-memory log-bucketed histograms: the one bucketing scheme.

The metrics registry records its duration series into log-spaced
buckets.  The bucket math lives here — range, resolution, index and
midpoint functions — and :class:`LogHistogram` (the registry's
instrument) is built on it.

The scheme: values from 1 microsecond to 1000 seconds (in
milliseconds), 20 buckets per decade — about 12% relative resolution
per bucket (``10^(1/20)``), which is plenty for p50/p95/p99 trend
tracking while keeping every histogram a fixed 180 ``int`` slots
regardless of how many observations stream through it.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..errors import ObservabilityError
from .lockwatch import make_lock

#: Histogram range: 1 microsecond to 1000 seconds, in milliseconds.
LOW_MS = 1e-3
HIGH_MS = 1e6
#: Buckets per decade; 20 gives ~12% relative resolution per bucket.
PER_DECADE = 20
DECADES = int(math.log10(HIGH_MS / LOW_MS))
BUCKETS = DECADES * PER_DECADE


def bucket_index(value_ms: float) -> int:
    """The bucket covering *value_ms* (clamped to the histogram range)."""
    if value_ms <= LOW_MS:
        return 0
    index = int(math.log10(value_ms / LOW_MS) * PER_DECADE)
    return min(index, BUCKETS - 1)


def bucket_mid_ms(index: int) -> float:
    """Geometric midpoint of bucket *index* in milliseconds."""
    # Midpoint of [low * 10^(i/P), low * 10^((i+1)/P)).
    return LOW_MS * 10.0 ** ((index + 0.5) / PER_DECADE)


def bucket_upper_ms(index: int) -> float:
    """Exclusive upper bound of bucket *index* in milliseconds."""
    return LOW_MS * 10.0 ** ((index + 1) / PER_DECADE)


class LogHistogram:
    """Thread-safe, fixed-memory histogram over the shared log buckets.

    The registry's duration instrument: workers :meth:`record`
    concurrently, and readers pull an atomic :meth:`snapshot` (count,
    sum, min, max, quantiles) or the non-empty cumulative buckets for
    Prometheus exposition.  Never holds per-observation samples, so a
    sustained run costs constant memory.
    """

    def __init__(self) -> None:
        self._lock = make_lock("obs.histogram")
        self._counts = [0] * BUCKETS
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    def record(self, value_ms: float) -> None:
        """Record one observation (milliseconds; negatives clamp to 0)."""
        if not math.isfinite(value_ms) or value_ms < 0:
            value_ms = 0.0
        index = bucket_index(value_ms)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value_ms
            self._min = min(self._min, value_ms)
            self._max = max(self._max, value_ms)

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """The value (ms) at quantile ``q`` in [0, 1]; 0.0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            seen = 0
            for index, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    mid = bucket_mid_ms(index)
                    # Clamp to the exact extremes so edge-bucket
                    # quantiles never lie outside the observed range.
                    return min(max(mid, self._min), self._max)
            return self._max  # pragma: no cover - unreachable

    def snapshot(self) -> Dict[str, float]:
        """Atomic summary: count, sum, mean, p50/p95/p99, min, max."""
        with self._lock:
            count, total = self._count, self._sum
            low, high = self._min, self._max
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": low if count else 0.0,
            "max": high,
        }

    def cumulative_buckets(self) -> List[tuple]:
        """Non-empty ``(upper_bound_ms, cumulative_count)`` pairs.

        Exactly the shape a Prometheus ``_bucket{le="..."}`` series
        wants; empty buckets are skipped so exposition stays small.
        """
        with self._lock:
            counts = list(self._counts)
        out: List[tuple] = []
        seen = 0
        for index, n in enumerate(counts):
            seen += n
            if n:
                out.append((bucket_upper_ms(index), seen))
        return out


__all__ = [
    "BUCKETS",
    "DECADES",
    "HIGH_MS",
    "LOW_MS",
    "PER_DECADE",
    "LogHistogram",
    "bucket_index",
    "bucket_mid_ms",
    "bucket_upper_ms",
]
