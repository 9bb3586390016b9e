"""In-memory span recording around the program's public entry points.

The traced run patches each layer's entry point (a module-level name or
a class attribute) with a wrapper that records a span: name, start,
end, span id, parent span id and request id.  Parents come from a
thread-local stack, so a span opened inside another on the same thread
is its child; work handed to another thread (the micro-batcher's flush,
the process tier's reply reader) roots its own span there.  The
untraced run installs nothing.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Summed over every span, self times
add up to the summed duration of the root spans — the reconciliation
the traced run checks.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np


class Span(NamedTuple):
    """One finished span (times are ``time.perf_counter`` seconds)."""

    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    request_id: Optional[int]


class Recorder:
    """Collects spans from every thread; patches and restores entry
    points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: Per-name numeric annotations (e.g. rows per predict call).
        self.values: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name: str, fn: Callable, *args, request_id: Optional[int] = None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named *name*.

        With *request_id* the span roots a new request; otherwise it
        joins the request of the innermost open span on this thread.
        """
        stack = self._stack()
        parent_id, inherited = stack[-1] if stack else (None, None)
        rid = inherited if request_id is None else request_id
        span_id = next(self._ids)
        stack.append((span_id, rid))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL: no lock needed.
            self.spans.append(Span(name, start, end, span_id, parent_id, rid))

    def in_span(self) -> bool:
        """Whether this thread is inside a recorded span."""
        return bool(self._stack())

    def note(self, name: str, value: float) -> None:
        """Record a numeric annotation under *name*."""
        self.values.setdefault(name, []).append(float(value))

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`restore`.  Class attributes are fetched raw so plain
        functions stay functions (and bind as methods)."""
        own = vars(owner).get(attr)
        original = own if own is not None else getattr(owner, attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, make(original))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named *name* around every call of
        ``owner.attr``."""

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return self.run(name, original, *args, **kwargs)

            return traced

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> np.ndarray:
    """Each span's duration minus the union of its children's
    intervals (clipped to the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    out = np.empty(len(spans))
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(span.span_id, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[index] = (span.end - span.start) - covered
    return out


class LayerStats(NamedTuple):
    """Aggregates of every span sharing one name."""

    calls: int
    durations_s: np.ndarray
    self_s: float


def aggregate(spans: List[Span]) -> Tuple[Dict[str, LayerStats], float]:
    """Per-name aggregates plus the summed duration of root spans."""
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)
    durations = np.array([s.end - s.start for s in spans]) if spans else np.zeros(0)
    layers = {
        name: LayerStats(len(idx), durations[idx], float(selfs[idx].sum()))
        for name, idx in by_name.items()
    }
    root_total = float(sum(s.end - s.start for s in spans if s.parent_id is None))
    return layers, root_total
