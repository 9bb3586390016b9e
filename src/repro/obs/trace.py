"""Request tracing: spans, head/slow/error sampling, slow-query log.

Answers the question the counters cannot: *where did this particular
request spend its time?*  A :class:`Span` is a context manager with
monotonic timing, a trace/span id pair and a parent link; the serving
stack opens one per pipeline stage (``request`` → ``parse`` → ``plan``
→ ``featurize`` → ``predict``), the cluster tier wraps routing hops
around them, and the micro-batcher's flushes become **batch spans**
linked to every coalesced request's parent span — so a trace of an
async request shows exactly which flush served it and who it shared
the forward pass with.

Propagation is hybrid, matching how the stack threads actually run:

- **Same-thread nesting** uses a thread-local span stack — a span
  started while another is active becomes its child automatically, so
  a caller's span parents the service's request span with no API
  change.
- **Cross-thread hops** (a request parked in the batcher queue, a
  Future resolved on the worker) carry an explicit
  :class:`SpanContext` with the queued item.

Sampling is *head + tail*: a probabilistic head decision is taken at
trace start (``sample_rate``), but spans are recorded for every
request while a tracer is attached, so traces that turn out **slow**
(root duration over ``slow_ms``) or **errored** are retained even when
the head decision said no.  The retained traces live in a bounded
ring; independently, a **slow-query log** keeps the top-K roots by
duration with their full span tree and plan fingerprint.

The *null-tracer fast path*: tracing off means ``tracer is None`` —
every instrumentation site opens its span through :func:`open_span`,
which hands back the shared no-op :data:`NULL_SPAN` instead of
constructing a :class:`Span`, so the serving hot path allocates no
span per request (asserted by a tier-1 test patching span
construction) and carries one body for both modes.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
import uuid
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from ..errors import ReproError
from .lockwatch import make_lock

#: Head-sampling probability a bench run / demo uses unless told
#: otherwise, and the rate the perf gate's scenarios run with.
DEFAULT_SAMPLE_RATE = 0.05
#: Root spans at least this slow are always retained (tail sampling).
DEFAULT_SLOW_MS = 250.0


class SpanContext(NamedTuple):
    """The portable identity of a span: enough to parent across threads."""

    trace_id: str
    span_id: str


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation inside a trace.

    Use as a context manager (an exception marks the span errored and
    re-raises) or call :meth:`finish` explicitly for spans that outlive
    their opening scope (async request roots).  Annotations are free-
    form key/values (cache hit flags, worker ids, plan fingerprints).
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "annotations",
        "status",
        "duration_ms",
        "_start",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_unix = time.time()
        self.annotations: Dict[str, object] = {}
        self.status = "ok"
        self.duration_ms = 0.0
        self._start = time.perf_counter()
        self._finished = False

    def annotate(
        self, key: Optional[str] = None, value: object = None, **kwargs: object
    ) -> "Span":
        """Attach ``key=value`` (and/or keyword pairs) to the span;
        returns self for chaining."""
        if key is not None:
            self.annotations[key] = value
        if kwargs:
            self.annotations.update(kwargs)
        return self

    @property
    def context(self) -> SpanContext:
        """This span's portable (trace id, span id) identity."""
        return SpanContext(self.trace_id, self.span_id)

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Close the span (idempotent), recording *error* if given."""
        if self._finished:
            return
        self._finished = True
        self.duration_ms = (time.perf_counter() - self._start) * 1000.0
        if error is not None:
            self.status = "error"
            self.annotations.setdefault("error", repr(error))
        self.tracer._finish(self)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering of the (finished) span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "annotations": dict(self.annotations),
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(error=exc)


class _NullSpan:
    """The span every instrumentation site gets when tracing is off.

    Stateless and shared (:data:`NULL_SPAN`): entering, annotating and
    finishing it do nothing, so a stage body is written once as
    ``with open_span(tracer, "parse"):`` for both modes.  It is
    deliberately not a :class:`Span` — it has no trace identity to
    propagate.
    """

    __slots__ = ()

    def annotate(self, key=None, value=None, **kwargs) -> "_NullSpan":
        """Discard the annotation; returns self for chaining."""
        return self

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Nothing to close."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The shared no-op span (see :class:`_NullSpan`).
NULL_SPAN = _NullSpan()


def open_span(
    tracer: Optional["Tracer"], name: str, **kwargs: object
) -> Union[Span, _NullSpan]:
    """``tracer.start_span(name, **kwargs)``, or :data:`NULL_SPAN`
    when *tracer* is None — the one null-tracer guard the hot path
    needs."""
    if tracer is None:
        return NULL_SPAN
    return tracer.start_span(name, **kwargs)


class _TraceState:
    """Book-keeping for one in-flight trace (guarded by the tracer lock)."""

    __slots__ = ("root_id", "sampled", "spans", "open_spans", "errored", "kind")

    def __init__(self, root_id: str, sampled: bool, kind: str):
        self.root_id = root_id
        self.sampled = sampled
        self.spans: List[Dict[str, object]] = []
        self.open_spans = 0
        self.errored = False
        self.kind = kind


class Tracer:
    """Produces, samples and retains traces for one serving stack.

    Thread-safe.  ``sample_rate`` is the probabilistic head decision;
    ``slow_ms`` and errors force retention regardless of it.  Retained
    traces live in a bounded ring of ``capacity`` traces; the slow-query
    log independently keeps the ``slow_log_size`` slowest roots seen.
    """

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        slow_ms: float = DEFAULT_SLOW_MS,
        capacity: int = 256,
        slow_log_size: int = 32,
        seed: Optional[int] = None,
    ):
        """A tracer sampling at *sample_rate* with tail thresholds."""
        if not 0.0 <= sample_rate <= 1.0:
            raise ReproError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if capacity < 1 or slow_log_size < 1:
            raise ReproError("capacity and slow_log_size must be >= 1")
        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self.capacity = capacity
        self.slow_log_size = slow_log_size
        self._rng = random.Random(seed)
        self._lock = make_lock("obs.tracer")
        self._open: Dict[str, _TraceState] = {}
        self._retained: List[Dict[str, object]] = []
        self._slow: List[tuple] = []
        self._seq = 0
        self._local = threading.local()
        self._counts: Dict[str, int] = {
            "traces_started": 0,
            "spans_started": 0,
            "traces_retained": 0,
            "traces_dropped": 0,
            "sampled_head": 0,
            "sampled_slow": 0,
            "sampled_error": 0,
            "batch_spans": 0,
        }

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost active span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(
        self,
        name: str,
        parent: Union[Span, SpanContext, None] = None,
        activate: bool = True,
        kind: str = "request",
    ) -> Span:
        """Open a span named *name*.

        With no explicit *parent*, the innermost active span on this
        thread parents it; with none active either, a **new trace**
        starts and the head-sampling decision is taken.  ``activate``
        pushes the span onto the thread's stack so same-thread callees
        nest under it automatically; pass False (or :meth:`deactivate`
        later) for spans handed across threads.
        """
        if parent is None:
            parent = self.current()
        with self._lock:
            self._counts["spans_started"] += 1
            if parent is None:
                trace_id = _new_id()
                span_id = _new_id()
                sampled = self._rng.random() < self.sample_rate
                self._open[trace_id] = _TraceState(span_id, sampled, kind)
                self._counts["traces_started"] += 1
                parent_id = None
            else:
                trace_id = parent.trace_id
                span_id = _new_id()
                parent_id = parent.span_id
                state = self._open.get(trace_id)
                if state is None:
                    # The parent's trace already finalized (a straggler
                    # finishing after its root): adopt it into a fresh
                    # state so the span is never silently lost.
                    state = _TraceState(
                        span_id, self._rng.random() < self.sample_rate, kind
                    )
                    self._open[trace_id] = state
                    self._counts["traces_started"] += 1
            self._open[trace_id].open_spans += 1
        span = Span(self, name, trace_id, span_id, parent_id)
        if activate:
            self._stack().append(span)
        return span

    def start_batch_span(
        self,
        name: str,
        links: Sequence[SpanContext],
        activate: bool = False,
    ) -> Span:
        """Open the span for one micro-batch flush.

        A flush serves requests from *many* traces at once, so the
        batch span cannot be a child of any single one: it roots its
        own (always-retained) trace and carries every coalesced
        request's parent span as a **link** annotation instead.
        """
        span = self.start_span(name, parent=None, activate=activate, kind="batch")
        with self._lock:
            state = self._open.get(span.trace_id)
            if state is not None:
                state.sampled = True  # batch traces are always kept
            self._counts["batch_spans"] += 1
        span.annotate(
            "links",
            [
                {"trace_id": c.trace_id, "span_id": c.span_id}
                for c in links
            ],
        )
        span.annotate("batch_size", len(links))
        return span

    def deactivate(self, span: Span) -> None:
        """Pop *span* off this thread's stack without finishing it
        (the async path: the root stays open until its Future resolves
        on another thread)."""
        stack = self._stack()
        if span in stack:
            stack.remove(span)

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            state = self._open.get(span.trace_id)
            if state is None:
                return
            state.spans.append(span.as_dict())
            state.open_spans -= 1
            if span.status == "error":
                state.errored = True
            if span.span_id == state.root_id:
                self._finalize(span, state)

    def _finalize(self, span: Span, state: _TraceState) -> None:
        """Root finished: decide retention, feed the slow-query log.
        Called under the tracer lock."""
        self._open.pop(span.trace_id, None)
        sampled_by = None
        if state.errored:
            sampled_by = "error"
            self._counts["sampled_error"] += 1
        elif span.duration_ms >= self.slow_ms:
            sampled_by = "slow"
            self._counts["sampled_slow"] += 1
        elif state.sampled:
            sampled_by = "batch" if state.kind == "batch" else "head"
            self._counts["sampled_head"] += 1
        if sampled_by is None:
            self._counts["traces_dropped"] += 1
        else:
            self._counts["traces_retained"] += 1
            self._retained.append(
                {
                    "trace_id": span.trace_id,
                    "root": span.name,
                    "kind": state.kind,
                    "sampled_by": sampled_by,
                    "duration_ms": span.duration_ms,
                    "spans": list(state.spans),
                }
            )
            if len(self._retained) > self.capacity:
                del self._retained[: len(self._retained) - self.capacity]
        if state.kind != "batch":
            # The plan fingerprint is annotated on the featurize child
            # span; fall back to scanning the tree when the root lacks
            # one of its own.
            fingerprint = span.annotations.get("fingerprint")
            if fingerprint is None:
                for recorded in state.spans:
                    candidate = recorded.get("annotations", {}).get(
                        "fingerprint"
                    )
                    if candidate is not None:
                        fingerprint = candidate
                        break
            entry = {
                "trace_id": span.trace_id,
                "root": span.name,
                "duration_ms": span.duration_ms,
                "status": span.status,
                "fingerprint": fingerprint,
                "spans": list(state.spans),
            }
            # analyze: ignore[lock-discipline] _finalize's only caller holds self._lock
            self._seq += 1
            heapq.heappush(self._slow, (span.duration_ms, self._seq, entry))
            if len(self._slow) > self.slow_log_size:
                heapq.heappop(self._slow)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def traces(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Retained traces, oldest first (optionally only *kind*:
        ``"request"`` or ``"batch"``)."""
        with self._lock:
            out = list(self._retained)
        if kind is not None:
            out = [t for t in out if t.get("kind") == kind]
        return out

    def slow_queries(self) -> List[Dict[str, object]]:
        """The slow-query log: the slowest roots seen, slowest first,
        each with its full span tree and plan fingerprint."""
        with self._lock:
            entries = sorted(self._slow, key=lambda t: (-t[0], t[1]))
        return [entry for _, _, entry in entries]

    def counters(self) -> Dict[str, object]:
        """Atomic tracer counters (registered as a registry collector)."""
        with self._lock:
            out: Dict[str, object] = dict(self._counts)
            out["open_traces"] = len(self._open)
            out["retained"] = len(self._retained)
        return out

    def reset(self) -> None:
        """Drop retained traces and the slow log (counters survive)."""
        with self._lock:
            self._retained.clear()
            self._slow.clear()


def span_tree(spans: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Exported span dicts -> a parent/child forest.

    Returns the root spans, each with a ``children`` list (recursively),
    ordered by start time; spans whose parent is not in *spans* (e.g. a
    worker-side span whose routing parent lives in another export) rank
    as roots rather than being dropped.
    """
    nodes = {s["span_id"]: dict(s, children=[]) for s in spans}
    roots: List[Dict[str, object]] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    def _sort(items: List[Dict[str, object]]) -> None:
        items.sort(key=lambda n: n["start_unix"])
        for item in items:
            _sort(item["children"])
    _sort(roots)
    return roots


# ----------------------------------------------------------------------
# the process default (what bench runs and demos install)
# ----------------------------------------------------------------------
_default_lock = threading.Lock()
_default_tracer: Optional[Tracer] = None


def install_default_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Set (or, with None, clear) the process-default tracer; returns
    the previous one.  Services built afterwards pick it up unless
    given an explicit tracer."""
    global _default_tracer
    with _default_lock:
        previous = _default_tracer
        _default_tracer = tracer
    return previous


def current_tracer() -> Optional[Tracer]:
    """The process-default tracer, or None (tracing disabled)."""
    with _default_lock:
        return _default_tracer


__all__ = [
    "DEFAULT_SAMPLE_RATE",
    "DEFAULT_SLOW_MS",
    "NULL_SPAN",
    "Span",
    "SpanContext",
    "Tracer",
    "current_tracer",
    "install_default_tracer",
    "open_span",
    "span_tree",
]
