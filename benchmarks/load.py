"""A small load generator for the serving stress benches.

``run_load`` sends a weighted tenant mix to a ``send(tenant, item)``
callable from several threads, closed loop or at Poisson arrivals, and
records each request's latency from the moment it is sent.  A raised
exception or a non-finite estimate counts as an error, never as a
latency.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: ``(name, weight, items)``: a tenant's share of the traffic and the
#: items it cycles through.
Tenant = Tuple[str, float, Sequence[object]]


@dataclass
class Load:
    """What one run measured."""

    latencies: Dict[str, List[float]]
    errors: int = 0
    elapsed_s: float = 0.0

    def merged(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Latencies (ms) of the named tenants, or of all of them."""
        picked = self.latencies if names is None else {n: self.latencies[n] for n in names}
        return np.array([v for values in picked.values() for v in values])

    @property
    def completed(self) -> int:
        """Requests that returned a finite estimate."""
        return sum(len(values) for values in self.latencies.values())


def run_load(
    send: Callable[[str, object], float],
    tenants: Sequence[Tenant],
    threads: int = 4,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    rate_rps: Optional[float] = None,
    seed: int = 0,
) -> Load:
    """Drive *send* until *seconds* pass or *count* requests are sent.

    With *rate_rps* each thread sends at ``rate_rps / threads`` with
    exponential gaps (open loop); without it, each sends its next
    request as soon as the last returns.  Thread ``i`` starts at the
    ``i``-th slice of every tenant's items, so a *count*-bounded pass
    over ``len(items)`` requests visits each item about once.
    """
    weights = np.array([weight for _, weight, _ in tenants], dtype=np.float64)
    weights /= weights.sum()
    load = Load({name: [] for name, _, _ in tenants})
    lock = threading.Lock()
    budget = [count]
    stop = threading.Event()

    def claim() -> bool:
        with lock:
            if budget[0] is None:
                return True
            budget[0] -= 1
            return budget[0] >= 0

    def worker(index: int) -> None:
        rng = np.random.default_rng(seed * 4093 + index)
        cursors = [index * max(1, len(items) // threads) for _, _, items in tenants]
        due = time.monotonic()
        while not stop.is_set():
            if rate_rps is not None:
                due += rng.exponential(threads / rate_rps)
                if stop.wait(max(0.0, due - time.monotonic())):
                    break
            if not claim():
                break
            pick = int(rng.choice(len(tenants), p=weights))
            name, _, items = tenants[pick]
            item = items[cursors[pick] % len(items)]
            cursors[pick] += 1
            began = time.perf_counter()
            try:
                value = float(send(name, item))
            except Exception:
                value = math.nan
            elapsed_ms = (time.perf_counter() - began) * 1000.0
            with lock:
                if math.isfinite(value):
                    load.latencies[name].append(elapsed_ms)
                else:
                    load.errors += 1

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    started = time.perf_counter()
    for thread in workers:
        thread.start()
    if seconds is not None:
        stop.wait(seconds)
        stop.set()
    for thread in workers:
        thread.join()
    load.elapsed_s = time.perf_counter() - started
    return load


def percentile(values: np.ndarray, q: float) -> float:
    """The *q*-th percentile of *values* (0 when there are none)."""
    return float(np.percentile(values, q)) if len(values) else 0.0
