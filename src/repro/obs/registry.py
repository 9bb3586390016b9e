"""The unified metrics registry: one snapshot path for every counter.

Before this module each subsystem rolled its own snapshot plumbing —
``ServiceStats``, ``CacheStats``, ``StoreStats``, ``BatcherStats``,
``AdaptationStats``, the admission gate, the router health map and the
checkpointer all exposed hand-wired ``snapshot()``/``counters()``
methods that :meth:`repro.serving.CostService.counters` and
:meth:`repro.cluster.ProcClusterService.counters` stitched together by
hand.  :class:`MetricsRegistry` replaces the stitching: each stats
object registers a **collector** (its existing atomic snapshot
function) under a section name, and the registry becomes the single
place that assembles them — the services' ``counters()`` are now thin
views over it, and the same snapshot drives the Prometheus text
exposition (:meth:`MetricsRegistry.render_prometheus`) and the JSON
dump (:meth:`MetricsRegistry.to_json`).

Two kinds of series live side by side:

- **Collectors** — callables returning a plain (possibly nested)
  counter dict, snapshotted atomically under the owning component's
  own lock.  Nested tables with dynamic keys (per-batcher, per-stage,
  per-replica, per-tenant) render as labeled Prometheus series.
- **Direct instruments** — :class:`Counter` / :class:`Gauge` /
  log-bucketed histograms (:class:`~repro.obs.histogram.LogHistogram`)
  created via :meth:`MetricsRegistry.counter` & friends, for new code
  (the tracer, the event log) that has no legacy dataclass to bridge.

Metric naming scheme (see ``docs/OBSERVABILITY.md``): every exposed
series is ``<namespace>_<section>_<path...>`` with dynamic dict keys
lifted into labels, e.g. ``repro_service_stages_seconds{stage="parse"}``
or ``repro_batchers_submitted{batcher="sysbench:qppnet"}``.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from .histogram import LogHistogram
from .lockwatch import make_lock

#: A collector: zero-arg callable returning a (nested) counter dict.
#: Returning ``None`` omits the section from the snapshot.
Collector = Callable[[], Optional[Dict[str, object]]]

#: Dict keys whose sub-keys are dynamic identifiers, not metric-name
#: parts: their children render as labeled series under the mapped
#: label name (``batchers.<name>.submitted`` ->
#: ``..._batchers_submitted{batcher="<name>"}``).
_LABEL_KEYS: Dict[str, str] = {
    "batchers": "batcher",
    "stages": "stage",
    "per_shard": "shard",
    "routed": "shard",
    "per_tenant": "tenant",
    "by_type": "type",
}

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _sanitize(part: str) -> str:
    """A dict key as a legal Prometheus metric-name component."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", str(part))
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    """A label value escaped per the Prometheus text format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Counter:
    """A monotonically increasing direct instrument."""

    def __init__(self) -> None:
        self._lock = make_lock("obs.counter")
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value


class Gauge:
    """A direct instrument that can go up and down (or be set)."""

    def __init__(self) -> None:
        self._lock = make_lock("obs.gauge")
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current level."""
        with self._lock:
            return self._value


class MetricsRegistry:
    """Process-wide (or per-service) registry of every metric series.

    Thread-safe.  Sections keep registration order, so a snapshot's
    key order matches the order components attached — the services
    register theirs in the order their old hand-rolled ``counters()``
    emitted them, keeping snapshot diffs and bench deltas stable.
    """

    def __init__(self, namespace: str = "repro"):
        """An empty registry exposing series under *namespace*."""
        if not _NAME_OK.match(namespace):
            raise ReproError(f"bad metrics namespace {namespace!r}")
        self.namespace = namespace
        self._lock = make_lock("obs.metrics_registry")
        self._collectors: Dict[str, Collector] = {}
        #: (name, sorted label items) -> instrument.
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        self._instrument_types: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # collector bridge (the migration path for existing stats objects)
    # ------------------------------------------------------------------
    def register_collector(self, section: str, collector: Collector) -> None:
        """Attach *collector* under *section* (replacing any previous).

        The collector is the component's existing atomic snapshot
        function; the registry never adds locking of its own around it,
        so each section stays exactly as consistent as it was before
        the migration (copied under the lock that guards its mutation).
        """
        with self._lock:
            self._collectors[section] = collector

    def unregister_collector(self, section: str) -> None:
        """Detach *section* (no-op when absent)."""
        with self._lock:
            self._collectors.pop(section, None)

    def sections(self) -> List[str]:
        """Registered section names, in registration order."""
        with self._lock:
            return list(self._collectors)

    def sections_snapshot(self) -> Dict[str, object]:
        """{section: collector()} for every registered collector.

        Sections whose collector returns ``None`` are omitted (a
        component that is configured off).  This is exactly what the
        services' ``counters()`` return.
        """
        with self._lock:
            collectors = list(self._collectors.items())
        out: Dict[str, object] = {}
        for section, collector in collectors:
            value = collector()
            if value is not None:
                out[section] = value
        return out

    # ------------------------------------------------------------------
    # direct instruments
    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        """Get-or-create the :class:`Counter` series (*name*, *labels*)."""
        return self._instrument(name, labels, "counter", Counter)

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        """Get-or-create the :class:`Gauge` series (*name*, *labels*)."""
        return self._instrument(name, labels, "gauge", Gauge)

    def histogram(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> LogHistogram:
        """Get-or-create the log-bucketed histogram (*name*, *labels*)."""
        return self._instrument(name, labels, "histogram", LogHistogram)

    def _instrument(self, name, labels, kind, factory):
        key = (
            _sanitize(name),
            tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items())),
        )
        with self._lock:
            existing_kind = self._instrument_types.get(key[0])
            if existing_kind is not None and existing_kind != kind:
                raise ReproError(
                    f"metric {key[0]!r} already registered as "
                    f"{existing_kind}, not {kind}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
                self._instrument_types[key[0]] = kind
            return instrument

    def _instruments_snapshot(self):
        with self._lock:
            return list(self._instruments.items()), dict(self._instrument_types)

    # ------------------------------------------------------------------
    # snapshots & exposition
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Everything: collector sections plus direct instruments.

        Instruments land under an ``"instruments"`` key as
        ``{name: {label-signature: value-or-histogram-summary}}``;
        collector sections keep their own shapes.
        """
        out = self.sections_snapshot()
        instruments, kinds = self._instruments_snapshot()
        if instruments:
            rendered: Dict[str, Dict[str, object]] = {}
            for (name, labels), instrument in instruments:
                signature = ",".join(f"{k}={v}" for k, v in labels) or ""
                value = (
                    instrument.snapshot()
                    if kinds[name] == "histogram"
                    else instrument.value
                )
                rendered.setdefault(name, {})[signature] = value
            out["instruments"] = rendered
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """The full :meth:`snapshot` as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True, default=str)

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Collector sections flatten into ``<ns>_<section>_<path>``
        series, with dynamic tables (see ``_LABEL_KEYS``) lifted into
        labels; direct instruments render with their declared type
        (histograms as ``_bucket``/``_sum``/``_count``).  Output parses
        under ``tools/check_prom.py`` — a tier-1 test holds that line.
        """
        lines: List[str] = []
        typed: Dict[str, str] = {}
        series: List[Tuple[str, Dict[str, str], object]] = []
        for section, value in self.sections_snapshot().items():
            self._flatten(
                [self.namespace, _sanitize(section)], value, {}, series
            )
        for name, _labels, _value in series:
            typed.setdefault(name, "untyped")
        instruments, kinds = self._instruments_snapshot()
        for (name, labels), instrument in instruments:
            full = f"{self.namespace}_{name}"
            label_map = dict(labels)
            kind = kinds[name]
            if kind == "histogram":
                typed.setdefault(full, "histogram")
                total = 0
                for upper, cumulative in instrument.cumulative_buckets():
                    total = cumulative
                    series.append(
                        (
                            f"{full}_bucket",
                            dict(label_map, le=repr(upper)),
                            cumulative,
                        )
                    )
                series.append(
                    (f"{full}_bucket", dict(label_map, le="+Inf"), total)
                )
                summary = instrument.snapshot()
                series.append((f"{full}_sum", label_map, summary["sum"]))
                series.append((f"{full}_count", label_map, summary["count"]))
            else:
                typed.setdefault(full, kind)
                series.append((full, label_map, instrument.value))
        emitted_types: set = set()
        for name, labels, value in series:
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and typed.get(name[: -len(suffix)]) == "histogram":
                    base = name[: -len(suffix)]
            if base not in emitted_types:
                emitted_types.add(base)
                lines.append(f"# TYPE {base} {typed.get(base, 'untyped')}")
            if labels:
                rendered = ",".join(
                    f'{_sanitize(k)}="{_escape_label(v)}"'
                    for k, v in labels.items()
                )
                lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def _flatten(
        self,
        path: List[str],
        value: object,
        labels: Dict[str, str],
        out: List[Tuple[str, Dict[str, str], object]],
    ) -> None:
        """Recursively flatten a collector snapshot into series rows."""
        if isinstance(value, dict):
            for key, child in value.items():
                label_name = _LABEL_KEYS.get(str(key))
                if label_name is not None and isinstance(child, dict) and child:
                    entries = list(child.items())
                    if all(isinstance(v, dict) for _, v in entries):
                        # A table of sub-sections: lift keys to labels.
                        for sub_key, sub_value in entries:
                            self._flatten(
                                path + [_sanitize(key)],
                                sub_value,
                                dict(labels, **{label_name: str(sub_key)}),
                                out,
                            )
                        continue
                    if all(_numeric(v) or isinstance(v, bool) for _, v in entries):
                        # A table of numerics: one labeled series.
                        for sub_key, sub_value in entries:
                            out.append(
                                (
                                    "_".join(path + [_sanitize(key)]),
                                    dict(labels, **{label_name: str(sub_key)}),
                                    sub_value,
                                )
                            )
                        continue
                self._flatten(path + [_sanitize(key)], child, labels, out)
        elif _numeric(value) or isinstance(value, bool):
            out.append(("_".join(path), labels, value))
        # Strings, None and anything else are not series: skipped.


__all__ = ["Collector", "Counter", "Gauge", "MetricsRegistry"]
