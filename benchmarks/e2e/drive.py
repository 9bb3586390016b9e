"""Load loops, failure accounting and percentile statistics.

Everything here is the benchmark's own code: it calls the program only
through the ``call``/``submit`` functions a workload hands it, so the
program can change underneath without changing how it is measured.

Two loop shapes are provided:

- **closed loop** — a fixed number of requests in flight (``clients``
  blocking threads, or ``inflight`` outstanding futures from one
  dispatcher thread); a slower service receives less load.  Used for
  saturated throughput.
- **open loop** — requests are due on a precomputed schedule whatever
  the service does.  Latency runs from when a request was *due*, not
  from when it was sent, so a stall also charges every request that
  queued behind it; how late the sender ran is reported as lag.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

#: How long an open-loop or closed-loop phase waits for stragglers
#: before counting them as timeouts.
DRAIN_TIMEOUT_S = 10.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile of *samples* (numpy's linear rule)."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them (the "exclusive" method), with the plain value for n < 2."""
    data = sorted(float(v) for v in values)
    if len(data) < 2:
        only = data[0] if data else 0.0
        return [only, only, only]
    return list(statistics.quantiles(data, n=4))


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Rate of :func:`reference_unit`, in units per second, on the host the
#: benchmark's reference numbers come from (a shared 2-core x86 VM).
REFERENCE_UNITS_PER_S = 2600.0
#: Length of one speed sample.
SPEED_SLICE_S = 0.1
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((32, 32))


def reference_unit() -> int:
    """A fixed piece of work mixing interpreter bookkeeping and small
    matrix products, the two kinds of work the program does."""
    total, table = 0, {}
    for i in range(2000):
        table[i % 97] = total
        total += i * 3 % 7
    matrix = _REFERENCE_MATRIX
    for _ in range(10):
        matrix = np.tanh(matrix @ _REFERENCE_MATRIX)
    return total


class HostSpeed:
    """How fast the host runs :func:`reference_unit`, sampled between
    timed phases.

    A shared host's speed drifts by tens of percent over seconds to
    minutes, and every timing moves with it.  Timings are reported at the
    reference speed: a time measured in a phase (the set-ups, or the
    measured part of the run) is multiplied by :meth:`scale` of the
    samples spread through that phase, a rate divided by it.  A change
    to the program leaves the reference unit's speed alone, so it still
    moves the scaled timings by its full amount."""

    def __init__(self) -> None:
        self.rates: Dict[str, List[float]] = {}

    def sample(self, phase: str) -> float:
        """Run the reference unit for :data:`SPEED_SLICE_S`; record its
        rate under *phase* and return it."""
        began = time.perf_counter()
        units = 0
        while time.perf_counter() - began < SPEED_SLICE_S:
            reference_unit()
            units += 1
        rate = units / (time.perf_counter() - began)
        self.rates.setdefault(phase, []).append(rate)
        return rate

    def scale(self, phase: str) -> float:
        """The host's speed in *phase* over the reference speed."""
        return statistics.mean(self.rates[phase]) / REFERENCE_UNITS_PER_S


def at_reference(seconds: float, rates: Sequence[float]) -> float:
    """*seconds* of one step, scaled to the reference speed by the mean
    of the speed samples taken around it."""
    return seconds * statistics.mean(rates) / REFERENCE_UNITS_PER_S


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Attempted/failed counts with failures split by kind (thread-safe:
    done-callbacks run on service threads)."""

    attempted: int = 0
    failed: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, count: int = 1) -> None:
        """Count *count* operations as attempted."""
        with self._lock:
            self.attempted += count

    def fail(self, kind: str, count: int = 1) -> None:
        """Count *count* failures of *kind*."""
        with self._lock:
            self.failed += count
            self.kinds[kind] = self.kinds.get(kind, 0) + count

    def check(self, value: object, expected: float) -> bool:
        """Record whether a served *value* is the oracle's *expected*
        estimate, bit for bit; returns True when it is."""
        try:
            number = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            self.fail("non_numeric")
            return False
        if not math.isfinite(number):
            self.fail("non_finite")
            return False
        if number != expected:
            self.fail("oracle_mismatch")
            return False
        return True

    def exception(self, exc: BaseException) -> None:
        """Count a raised exception; overload sheds get their own kind."""
        name = type(exc).__name__
        self.fail("shed" if name == "ShardOverloadError" else f"exception:{name}")


# ----------------------------------------------------------------------
# schedules and traffic order
# ----------------------------------------------------------------------
def fixed_rate_schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from phase start) evenly spaced at *rate* per
    second over *seconds*, each moved by a seeded offset of up to a
    quarter gap (order is kept).  Even spacing keeps arrival bursts out
    of the latency tail, which then reflects the service."""
    count = int(rate * seconds)
    return (np.arange(count) + 0.5 + rng.uniform(-0.25, 0.25, count)) / rate


def spread_order(groups: Sequence[object], rng: np.random.Generator) -> np.ndarray:
    """A seeded permutation of all items that spreads each group's items
    evenly over the whole order, groups interleaved in order of first
    appearance: every stretch of the order carries about the same mix of
    groups, and the first positions hold one item of each group, in the
    same group order on every seed."""
    index: Dict[object, int] = {}
    labels = np.array([index.setdefault(group, len(index)) for group in groups])
    keys = np.empty(len(labels))
    for group in range(len(index)):
        members = np.flatnonzero(labels == group)
        offset = (group + 0.5) / len(index)
        keys[members] = (rng.permutation(len(members)) + offset) / len(members)
    return np.argsort(keys, kind="stable")


def zipf_sequence(
    ranking: np.ndarray, length: int, s: float, rng: np.random.Generator
) -> np.ndarray:
    """*length* item indices drawn with Zipf(*s*) popularity: the item
    at ``ranking[r]`` has weight ``(r + 1) ** -s``."""
    weights = np.arange(1, len(ranking) + 1, dtype=np.float64) ** (-s)
    return np.asarray(ranking)[rng.choice(len(ranking), size=length, p=weights / weights.sum())]


# ----------------------------------------------------------------------
# closed loops
# ----------------------------------------------------------------------
class Window:
    """Completions inside a measurement window that starts when this is
    made and lasts *seconds*.  Its length is measured up to the last
    completion inside it, so rates carry all their digits."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.stop = self.start + seconds
        self.completed = 0
        self._last = self.start
        self._lock = threading.Lock()

    def complete(self) -> None:
        """Count one completion, if it landed inside the window."""
        now = time.perf_counter()
        if now <= self.stop:
            with self._lock:
                self.completed += 1
                self._last = max(self._last, now)

    @property
    def elapsed(self) -> float:
        """Seconds from the start to the last completion inside."""
        with self._lock:
            return self._last - self.start

    @property
    def rate(self) -> float:
        """Completions per second of the window."""
        elapsed = self.elapsed
        return self.completed / elapsed if elapsed > 0 else 0.0


def closed_loop_sync(
    call: Callable[[int, int], float],
    expected: np.ndarray,
    sequence: np.ndarray,
    clients: int,
    seconds: float,
    tally: Tally,
    cursor: "itertools.count[int]",
) -> Window:
    """Run *clients* blocking callers for *seconds*; returns the window
    of completions.  ``call(item, request_index)`` serves one request; *cursor* hands
    out request indices across phases so the traffic order continues
    where the previous phase stopped."""
    window = Window(seconds)

    def _client() -> None:
        while time.perf_counter() < window.stop:
            k = next(cursor)
            item = int(sequence[k % len(sequence)])
            tally.attempt()
            try:
                value = call(item, k)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                tally.exception(exc)
                continue
            if tally.check(value, expected[item]):
                window.complete()

    threads = [
        threading.Thread(target=_client, name=f"e2e-client-{slot}")
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + DRAIN_TIMEOUT_S)
        if thread.is_alive():
            tally.fail("timeout")
    return window


def closed_loop_async(
    submit: Callable[[int, int], Future],
    expected: np.ndarray,
    sequence: np.ndarray,
    inflight: int,
    seconds: float,
    tally: Tally,
    cursor: "itertools.count[int]",
) -> Window:
    """Keep *inflight* futures outstanding from this thread for
    *seconds*; returns the window of completions."""
    slots = threading.Semaphore(inflight)
    window = Window(seconds)

    def _done(future: Future, item: int) -> None:
        try:
            value = future.result()
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            tally.exception(exc)
        else:
            if tally.check(value, expected[item]):
                window.complete()
        finally:
            slots.release()

    while time.perf_counter() < window.stop:
        if not slots.acquire(timeout=DRAIN_TIMEOUT_S):
            tally.fail("timeout")
            break
        k = next(cursor)
        item = int(sequence[k % len(sequence)])
        tally.attempt()
        try:
            future = submit(item, k)
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            tally.exception(exc)
            slots.release()
            continue
        future.add_done_callback(lambda f, item=item: _done(f, item))
    _drain(slots, inflight, tally)
    return window


def _drain(slots: threading.Semaphore, inflight: int, tally: Tally) -> None:
    """Wait until every outstanding future released its slot; the ones
    still out after the drain timeout count as timeouts."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for taken in range(inflight):
        if not slots.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            tally.fail("timeout", inflight - taken)
            return
    for _ in range(inflight):
        slots.release()


# ----------------------------------------------------------------------
# open loops
# ----------------------------------------------------------------------
@dataclass
class OpenLoopResult:
    """Per-request latency (due → done) and send lag, in seconds.
    Failed requests carry ``inf`` latency: a failure misses any limit."""

    latency_s: np.ndarray
    lag_s: np.ndarray


def open_loop_sync(
    call: Callable[[int, int], float],
    expected: np.ndarray,
    sequence: np.ndarray,
    due: np.ndarray,
    clients: int,
    tally: Tally,
    cursor: "itertools.count[int]",
) -> OpenLoopResult:
    """Send request ``j`` at ``due[j]`` (seconds from now) from
    *clients* blocking threads that take due times in order."""
    n = len(due)
    latency = np.full(n, np.inf)
    lag = np.zeros(n)
    base = next(cursor)
    claim = itertools.count()
    start = time.perf_counter()

    def _client() -> None:
        while True:
            j = next(claim)
            if j >= n:
                return
            due_at = start + due[j]
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            lag[j] = sent - due_at
            item = int(sequence[(base + j) % len(sequence)])
            tally.attempt()
            try:
                value = call(item, base + j)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                tally.exception(exc)
                continue
            if tally.check(value, expected[item]):
                latency[j] = time.perf_counter() - due_at

    threads = [
        threading.Thread(target=_client, name=f"e2e-open-{slot}")
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    horizon = float(due[-1]) if n else 0.0
    for thread in threads:
        thread.join(horizon + DRAIN_TIMEOUT_S)
        if thread.is_alive():
            tally.fail("timeout")
    _advance(cursor, n)
    return OpenLoopResult(latency, lag)


def open_loop_async(
    submit: Callable[[int, int], Future],
    expected: np.ndarray,
    sequence: np.ndarray,
    due: np.ndarray,
    tally: Tally,
    cursor: "itertools.count[int]",
) -> OpenLoopResult:
    """Submit request ``j`` at ``due[j]`` from this one dispatcher
    thread; the done-callback stamps completion.  Futures are not kept
    (only a count of outstanding ones), so the benchmark adds no
    long-lived objects to the collector's work while it measures."""
    n = len(due)
    latency = np.full(n, np.inf)
    lag = np.zeros(n)
    base = next(cursor)
    outstanding = [0]
    settled = threading.Condition()
    start = time.perf_counter()

    def _done(future: Future, j: int, item: int, due_at: float) -> None:
        now = time.perf_counter()
        try:
            value = future.result()
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            tally.exception(exc)
        else:
            if tally.check(value, expected[item]):
                latency[j] = now - due_at
        with settled:
            outstanding[0] -= 1
            settled.notify_all()

    for j in range(n):
        due_at = start + due[j]
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        lag[j] = sent - due_at
        item = int(sequence[(base + j) % len(sequence)])
        tally.attempt()
        try:
            future = submit(item, base + j)
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            tally.exception(exc)
            continue
        with settled:
            outstanding[0] += 1
        future.add_done_callback(
            lambda f, j=j, item=item, due_at=due_at: _done(f, j, item, due_at)
        )
    with settled:
        if not settled.wait_for(lambda: outstanding[0] == 0, DRAIN_TIMEOUT_S):
            tally.fail("timeout", outstanding[0])
    _advance(cursor, n)
    return OpenLoopResult(latency, lag)


def _advance(cursor: "itertools.count[int]", n: int) -> None:
    """Move the shared request cursor past *n* requests."""
    for _ in range(max(0, n - 1)):
        next(cursor)
