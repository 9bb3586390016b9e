"""MetricsRegistry: collectors, instruments, snapshots, exposition."""

from __future__ import annotations

import json
import sys

import pytest

sys.path.insert(0, "tools")
from check_prom import check_prometheus_text  # noqa: E402

from repro.errors import ReproError
from repro.obs import LogHistogram, MetricsRegistry


class TestCollectors:
    def test_sections_snapshot_in_registration_order(self):
        registry = MetricsRegistry()
        registry.register_collector("beta", lambda: {"x": 1})
        registry.register_collector("alpha", lambda: {"y": 2})
        snapshot = registry.sections_snapshot()
        assert list(snapshot) == ["beta", "alpha"]
        assert snapshot == {"beta": {"x": 1}, "alpha": {"y": 2}}

    def test_none_returning_collector_is_omitted(self):
        registry = MetricsRegistry()
        registry.register_collector("absent", lambda: None)
        registry.register_collector("present", lambda: {"n": 3})
        assert registry.sections_snapshot() == {"present": {"n": 3}}

    def test_reregister_replaces_and_unregister_removes(self):
        registry = MetricsRegistry()
        registry.register_collector("s", lambda: {"v": 1})
        registry.register_collector("s", lambda: {"v": 2})
        assert registry.sections_snapshot() == {"s": {"v": 2}}
        registry.unregister_collector("s")
        registry.unregister_collector("s")  # no-op when absent
        assert registry.sections_snapshot() == {}


class TestInstruments:
    def test_counter_gauge_histogram_lifecycle(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        assert registry.counter("requests") is counter  # get-or-create
        with pytest.raises(ReproError):
            counter.inc(-1)
        gauge = registry.gauge("inflight")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value == 3
        histogram = registry.histogram("latency_ms")
        assert isinstance(histogram, LogHistogram)
        histogram.record(12.0)
        assert histogram.snapshot()["count"] == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ReproError):
            registry.gauge("thing")

    def test_labeled_series_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", labels={"cache": "feature"})
        b = registry.counter("hits", labels={"cache": "snapshot"})
        assert a is not b
        a.inc()
        snapshot = registry.snapshot()["instruments"]["hits"]
        assert snapshot["cache=feature"] == 1
        assert snapshot["cache=snapshot"] == 0


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "service",
            lambda: {
                "requests": 7,
                "stages": {"parse": {"calls": 7, "seconds": 0.1}},
                "note": "strings are skipped",
            },
        )
        registry.register_collector(
            "batchers", lambda: {"batchers": {"sys:qpp": {"submitted": 3}}}
        )
        registry.counter("errors", labels={"kind": "parse"}).inc()
        registry.histogram("latency_ms").record(5.0)
        return registry

    def test_render_prometheus_parses_under_check_prom(self):
        text = self._registry().render_prometheus()
        assert check_prometheus_text(text) == []

    def test_dynamic_tables_lift_to_labels(self):
        text = self._registry().render_prometheus()
        assert 'repro_service_stages_calls{stage="parse"} 7' in text
        assert (
            'repro_batchers_batchers_submitted{batcher="sys:qpp"} 3' in text
        )
        assert "# TYPE repro_errors counter" in text
        assert "# TYPE repro_latency_ms histogram" in text
        assert 'le="+Inf"' in text
        assert "note" not in text  # strings are not series

    def test_to_json_round_trips(self):
        registry = self._registry()
        parsed = json.loads(registry.to_json())
        assert parsed["service"]["requests"] == 7
        assert parsed["instruments"]["errors"]["kind=parse"] == 1

    def test_bad_namespace_rejected(self):
        with pytest.raises(ReproError):
            MetricsRegistry(namespace="")


class TestHistogramBucketing:
    def test_quantiles_and_clamping(self):
        histogram = LogHistogram()
        for value in (1.0, 2.0, 4.0, 8.0, 1000.0):
            histogram.record(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["min"] == 1.0
        assert snapshot["max"] == 1000.0
        assert snapshot["p50"] <= snapshot["p95"] <= snapshot["p99"]
        # Non-finite and negative inputs clamp to the zero bucket
        # rather than raising (spans must never crash the hot path).
        histogram.record(float("nan"))
        histogram.record(-3.0)
        assert histogram.count == 7

    def test_cumulative_buckets_monotone(self):
        histogram = LogHistogram()
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.record(value)
        pairs = histogram.cumulative_buckets()
        uppers = [u for u, _ in pairs]
        counts = [c for _, c in pairs]
        assert uppers == sorted(uppers)
        assert counts == sorted(counts)
        assert counts[-1] == 4
