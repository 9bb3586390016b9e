"""repro.obs — observability substrate for the serving stack.

Three pieces, wired through every layer (serving, batcher, caches,
adaptation, cluster, persist):

- :class:`MetricsRegistry` — the unified counter/gauge/histogram
  registry.  Every subsystem's stats object registers its atomic
  snapshot as a *collector*; ``CostService.counters()`` and
  ``ProcClusterService.counters()`` are thin views over it, and the same
  snapshot renders as Prometheus text
  (:meth:`MetricsRegistry.render_prometheus`) or JSON.  Histograms
  use one fixed-memory log bucketing (:mod:`repro.obs.histogram`).
- :class:`Tracer` / :class:`Span` — per-request traces with context
  propagation through the sync, batched and async paths, batch spans
  linked to every coalesced request, cluster routing hops, cache
  hit/miss annotations, head + slow + error sampling, and a top-K
  slow-query log.  Tracing off is ``tracer is None``: every site opens
  its span through :func:`open_span`, which returns the shared no-op
  :data:`NULL_SPAN`, so the hot path allocates no span.
- :class:`EventLog` — typed, subscribable structured events (deploys,
  promotions/rollbacks, drift trips, worker deaths/revivals/ejections,
  checkpoint writes/restores, admission sheds).

See ``docs/OBSERVABILITY.md`` for the naming scheme, span taxonomy,
event vocabulary and sampling knobs.
"""

from .events import EVENT_TYPES, Event, EventLog
from .histogram import LogHistogram
from .registry import Counter, Gauge, MetricsRegistry
from .trace import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SLOW_MS,
    NULL_SPAN,
    Span,
    SpanContext,
    Tracer,
    current_tracer,
    install_default_tracer,
    open_span,
    span_tree,
)

__all__ = [
    "EVENT_TYPES",
    "Event",
    "EventLog",
    "LogHistogram",
    "Counter",
    "Gauge",
    "MetricsRegistry",
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
