"""The traced run: span wrappers per layer and the per-layer metrics.

Every wrapper is installed from here, around public entry points, only
for the traced phases; the untraced run never imports a wrapper into
the program.  Span names and the entry points they wrap:

======================  ==============================================
``request``             the benchmark's own call into the service (one
                        per request; one per ``QCFE.fit`` on train)
``sql.parse``           ``parse_sql`` at the name the service calls
``engine.plan``         ``PlanBuilder.build``
``engine.simulate``     ``ExecutionSimulator.run_query``
``serving.featurize``   ``FeatureCache.get_or_compute`` on
                        ``service.cache``
``featurization.encode`` ``EstimatorBundle.prepare_one`` and
                        ``prepare_from_template``
``models.predict``      ``EstimatorBundle.predict_prepared`` and
                        ``predict_prepared_batch``
``proc.submit``         ``WorkerHandle.submit`` (estimate frames)
``proc.encode_frame``   ``encode_frame`` as the supervisor calls it
``proc.decode_frame``   ``decode_header``, the decode step of the
                        supervisor's ``recv_frame``
``core.snapshot``       ``QCFE.fit_snapshot``
``core.reduction.score`` ``difference_importance`` as the pipeline
                        calls it
``models.train``        ``QPPNet.fit``
======================  ==============================================
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List

import numpy as np

import drive
from spans import Recorder, aggregate

import repro.cluster.proc.supervisor as supervisor_module
import repro.core.pipeline as pipeline_module
import repro.serving.service as service_module
from repro.cluster.proc import ProcClusterService, WorkerHandle
from repro.core import QCFE
from repro.engine.executor import ExecutionSimulator
from repro.engine.optimizer import PlanBuilder
from repro.models.qppnet import QPPNet
from repro.serving import EstimatorBundle

#: Every per-layer metric with its unit, in report order (BENCHMARK.json
#: lists the same names).  ``*.calls``, ``*.s`` and ``*_per_req`` are
#: per request — per fit on ``tpch-train``; ``*.share`` is the layer's
#: self time over the summed root-span time.
PER_LAYER = {
    "sql.parse.calls_per_req": "count",
    "sql.parse.p50_us": "us",
    "sql.parse.p99_us": "us",
    "sql.parse.share": "fraction",
    "engine.plan.calls_per_req": "count",
    "engine.plan.p50_us": "us",
    "engine.plan.p99_us": "us",
    "engine.plan.share": "fraction",
    "engine.simulate.calls": "count",
    "engine.simulate.s": "s",
    "serving.featurize.p50_us": "us",
    "serving.featurize.p99_us": "us",
    "serving.featurize.share": "fraction",
    "featurization.encode.calls_per_req": "count",
    "featurization.encode.p50_us": "us",
    "serving.feature_cache.hit_rate": "fraction",
    "serving.feature_cache.evictions_per_req": "count",
    "serving.template_cache.hit_rate": "fraction",
    "models.predict.calls": "count",
    "models.predict.rows_per_call": "count",
    "models.predict.p50_us": "us",
    "models.predict.p99_us": "us",
    "models.predict.us_per_row": "us",
    "models.predict.share": "fraction",
    "serving.batcher.queue_wait_p50_ms": "ms",
    "serving.batcher.queue_wait_p99_ms": "ms",
    "serving.batcher.mean_batch_size": "count",
    "serving.batcher.size_flush_share": "fraction",
    "serving.service.self_share": "fraction",
    "proc.submit.p50_us": "us",
    "proc.encode_frame.p50_us": "us",
    "proc.decode_frame.p50_us": "us",
    "proc.roundtrip.p50_ms": "ms",
    "proc.roundtrip.p99_ms": "ms",
    "proc.worker.busy_share": "fraction",
    "proc.routed_imbalance": "fraction",
    "proc.shed": "count",
    "proc.reroutes": "count",
    "proc.deaths": "count",
    "core.snapshot.s": "s",
    "core.reduction.score_s": "s",
    "models.train.calls": "count",
    "models.train.s": "s",
    "core.reduction_ratio": "fraction",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.lag_max_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Share of requests whose full span trees go into ``TRACE_*.json``.
SAMPLE_SHARE = 0.01
#: Allowed gap between summed self times and summed root-span time.
RECONCILE_TOLERANCE = 0.05


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def install(rec: Recorder, service, flush: threading.local) -> None:
    """Wrap every layer's entry point (see the module docstring)."""
    rec.wrap(service_module, "parse_sql", "sql.parse")
    rec.wrap(PlanBuilder, "build", "engine.plan")
    rec.wrap(ExecutionSimulator, "run_query", "engine.simulate")
    rec.wrap(EstimatorBundle, "prepare_one", "featurization.encode")
    rec.wrap(EstimatorBundle, "prepare_from_template", "featurization.encode")
    rec.wrap(QCFE, "fit_snapshot", "core.snapshot")
    rec.wrap(pipeline_module, "difference_importance", "core.reduction.score")
    rec.wrap(QPPNet, "fit", "models.train")

    def predict(original):
        def traced(bundle, labeled, *args, **kwargs):
            flush.entry = time.perf_counter()
            rec.note("models.predict.rows", len(labeled))
            return rec.run("models.predict", original, bundle, labeled, *args, **kwargs)

        return traced

    rec.patch(EstimatorBundle, "predict_prepared", predict)
    rec.patch(EstimatorBundle, "predict_prepared_batch", predict)

    if isinstance(service, ProcClusterService):
        protocol = supervisor_module.protocol

        def submit(original):
            def traced(handle, kind, *args, **kwargs):
                if kind != "estimate":  # heartbeats and counter pulls
                    return original(handle, kind, *args, **kwargs)
                began = time.perf_counter()
                future = rec.run("proc.submit", original, handle, kind, *args, **kwargs)
                future.add_done_callback(
                    lambda _f: rec.note("proc.roundtrip", time.perf_counter() - began)
                )
                return future

            return traced

        def encode(original):
            def traced(*args, **kwargs):
                if not rec.in_span():  # frames outside a request
                    return original(*args, **kwargs)
                return rec.run("proc.encode_frame", original, *args, **kwargs)

            return traced

        rec.patch(WorkerHandle, "submit", submit)
        rec.patch(protocol, "encode_frame", encode)
        rec.wrap(protocol, "decode_header", "proc.decode_frame")
    elif service is not None and hasattr(service, "cache"):
        rec.wrap(service.cache, "get_or_compute", "serving.featurize")


def traced_call(rec: Recorder, target, flush: threading.local):
    """The target's call inside a ``request`` root span; async futures
    also report their batch-queue wait (flush entry minus the
    submission's return), read on the thread that resolved them."""

    def sync_call(i: int, k: int):
        return rec.run("request", target.call, i, k, request_id=k)

    def async_call(i: int, k: int):
        future = rec.run("request", target.call, i, k, request_id=k)
        returned = time.perf_counter()

        def _queue_wait(_future) -> None:
            entry = getattr(flush, "entry", None)
            if entry is not None:
                rec.note("queue_wait", max(0.0, entry - returned))

        future.add_done_callback(_queue_wait)
        return future

    return sync_call if target.mode == "sync" else async_call


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def snapshot_counters(service) -> Dict[str, object]:
    """The service's counter sections; on the process tier, each
    worker's own counters pulled fresh over IPC."""
    if service is None or not hasattr(service, "counters"):
        return {}
    sections = dict(service.counters())
    if isinstance(service, ProcClusterService):
        sections["workers"] = {
            worker_id: service.worker(worker_id).rpc("counters", {})[0]["value"]
            for worker_id in service.router.shard_ids()
        }
    return sections


def _service_sections(counters: Dict[str, object]) -> List[Dict[str, object]]:
    """The ``CostService`` counter sections behind *counters* (one
    in-process service, or one per worker)."""
    if "workers" in counters and isinstance(counters["workers"], dict):
        return [w["sections"] for w in counters["workers"].values() if "sections" in w]
    return [counters] if "feature_cache" in counters else []


def _summed(sections: List[Dict[str, object]], path: List[str]) -> float:
    total = 0.0
    for section in sections:
        node = section
        for key in path:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        total += float(node) if isinstance(node, (int, float)) else 0.0
    return total


def _delta(before, after, path) -> float:
    return _summed(_service_sections(after), path) - _summed(_service_sections(before), path)


def _cache_hit_rate(before, after, cache: str) -> float:
    hits = sum(_delta(before, after, [cache, f]) for f in ("hits", "coalesced"))
    lookups = hits + _delta(before, after, [cache, "misses"])
    return hits / lookups if lookups else 0.0


def _batchers(counters) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for section in _service_sections(counters):
        for stats in section.get("batchers", {}).values():
            for key in ("submitted", "batches", "flushed_on_size"):
                totals[key] = totals.get(key, 0.0) + float(stats[key])
    return totals


def _busy_seconds(counters) -> float:
    return sum(
        float(stage["seconds"])
        for section in _service_sections(counters)
        for stage in section.get("service", {}).get("stages", {}).values()
    )


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
class Traced:
    """A finished traced run's spans, aggregated once."""

    def __init__(self, rec: Recorder):
        self.spans = rec.spans
        self.values = rec.values
        self.stats, self.root_s = aggregate(rec.spans)
        #: Summed self time of every span over summed root-span time
        #: (1.0 when child spans nest inside their parents).
        self.self_time_ratio = (
            sum(s.self_s for s in self.stats.values()) / self.root_s if self.root_s else 0.0
        )


def _us(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * 1e6


def layer_metrics(
    traced: Traced, before, after, wall_s: float, workers: int
) -> Dict[str, float]:
    """Per-layer metrics from the spans and counter deltas."""
    stats, root_s, values = traced.stats, traced.root_s, traced.values
    empty = np.zeros(0)

    def layer(name):
        found = stats.get(name)
        return (found.calls, found.durations_s, found.self_s) if found else (0, empty, 0.0)

    requests = max(layer("request")[0], 1)
    out: Dict[str, float] = {}

    def share(self_s: float) -> float:
        return self_s / root_s if root_s else 0.0

    for key, span in (("sql.parse", "sql.parse"), ("engine.plan", "engine.plan")):
        calls, durations, self_s = layer(span)
        out[f"{key}.calls_per_req"] = calls / requests
        out[f"{key}.p50_us"] = drive.percentile(_us(durations), 50)
        out[f"{key}.p99_us"] = drive.percentile(_us(durations), 99)
        out[f"{key}.share"] = share(self_s)
    calls, durations, _ = layer("engine.simulate")
    out["engine.simulate.calls"] = calls / requests
    out["engine.simulate.s"] = float(durations.sum()) / requests
    _, durations, self_s = layer("serving.featurize")
    out["serving.featurize.p50_us"] = drive.percentile(_us(durations), 50)
    out["serving.featurize.p99_us"] = drive.percentile(_us(durations), 99)
    out["serving.featurize.share"] = share(self_s)
    calls, durations, _ = layer("featurization.encode")
    out["featurization.encode.calls_per_req"] = calls / requests
    out["featurization.encode.p50_us"] = drive.percentile(_us(durations), 50)
    out["serving.feature_cache.hit_rate"] = _cache_hit_rate(before, after, "feature_cache")
    out["serving.feature_cache.evictions_per_req"] = (
        _delta(before, after, ["feature_cache", "evictions"]) / requests
    )
    out["serving.template_cache.hit_rate"] = _cache_hit_rate(before, after, "template_cache")

    calls, durations, self_s = layer("models.predict")
    rows = float(sum(values.get("models.predict.rows", ())))
    out["models.predict.calls"] = calls / requests
    out["models.predict.rows_per_call"] = rows / calls if calls else 0.0
    out["models.predict.p50_us"] = drive.percentile(_us(durations), 50)
    out["models.predict.p99_us"] = drive.percentile(_us(durations), 99)
    out["models.predict.us_per_row"] = float(durations.sum()) * 1e6 / rows if rows else 0.0
    out["models.predict.share"] = share(self_s)

    waits_ms = np.asarray(values.get("queue_wait", ()), dtype=np.float64) * 1000.0
    out["serving.batcher.queue_wait_p50_ms"] = drive.percentile(waits_ms, 50)
    out["serving.batcher.queue_wait_p99_ms"] = drive.percentile(waits_ms, 99)
    b0, b1 = _batchers(before), _batchers(after)
    batches = b1.get("batches", 0.0) - b0.get("batches", 0.0)
    out["serving.batcher.mean_batch_size"] = (
        (b1.get("submitted", 0.0) - b0.get("submitted", 0.0)) / batches if batches else 0.0
    )
    out["serving.batcher.size_flush_share"] = (
        (b1.get("flushed_on_size", 0.0) - b0.get("flushed_on_size", 0.0)) / batches
        if batches
        else 0.0
    )
    out["serving.service.self_share"] = share(layer("request")[2])

    for key in ("proc.submit", "proc.encode_frame", "proc.decode_frame"):
        out[f"{key}.p50_us"] = drive.percentile(_us(layer(key)[1]), 50)
    roundtrip_ms = np.asarray(values.get("proc.roundtrip", ()), dtype=np.float64) * 1000.0
    out["proc.roundtrip.p50_ms"] = drive.percentile(roundtrip_ms, 50)
    out["proc.roundtrip.p99_ms"] = drive.percentile(roundtrip_ms, 99)
    out["proc.worker.busy_share"] = (
        (_busy_seconds(after) - _busy_seconds(before)) / (wall_s * workers) if workers else 0.0
    )
    cluster0, cluster1 = before.get("cluster", {}), after.get("cluster", {})
    routed = [
        cluster1.get("routed", {}).get(w, 0) - cluster0.get("routed", {}).get(w, 0)
        for w in cluster1.get("routed", {})
    ]
    out["proc.routed_imbalance"] = (
        (max(routed) - min(routed)) / sum(routed) if routed and sum(routed) else 0.0
    )
    for key in ("shed", "reroutes"):
        out[f"proc.{key}"] = float(cluster1.get(key, 0) - cluster0.get(key, 0))
    out["proc.deaths"] = float(
        after.get("supervisor", {}).get("deaths", 0) - before.get("supervisor", {}).get("deaths", 0)
    )

    out["core.snapshot.s"] = float(layer("core.snapshot")[1].sum()) / requests
    out["core.reduction.score_s"] = float(layer("core.reduction.score")[1].sum()) / requests
    calls, durations, _ = layer("models.train")
    out["models.train.calls"] = calls / requests
    out["models.train.s"] = float(durations.sum()) / requests
    return out


def reconcile(name: str, metrics: Dict[str, float], traced: Traced) -> List[str]:
    """Problems with the traced counts (empty when they reconcile)."""
    problems = []
    ratio = traced.self_time_ratio
    if not abs(ratio - 1.0) <= RECONCILE_TOLERANCE:
        problems.append(f"summed self times are {ratio:.4f} of request time")
    expected_calls = {"tpch-sql-sync": 1.0, "tpch-plan-async": 0.0, "tpch-plan-proc": 0.0}
    if name in expected_calls:
        for key in ("sql.parse.calls_per_req", "engine.plan.calls_per_req"):
            if metrics[key] != expected_calls[name]:
                problems.append(f"{key} is {metrics[key]}, expected {expected_calls[name]}")
    return problems


def trace_document(traced: Traced, name: str, seed: int, metrics: Dict[str, float]) -> dict:
    """``TRACE_<workload>.json``: full spans of a seeded 1% of requests
    plus per-layer aggregates over all of them."""
    spans = traced.spans
    request_ids = sorted({s.request_id for s in spans if s.request_id is not None})
    count = max(1, math.ceil(SAMPLE_SHARE * len(request_ids))) if request_ids else 0
    rng = np.random.default_rng([seed, 7])
    sampled = set(rng.choice(request_ids, size=count, replace=False).tolist()) if count else set()
    return {
        "workload": name,
        "seed": seed,
        "requests": len(request_ids),
        "root_s": traced.root_s,
        "self_time_ratio": traced.self_time_ratio,
        "layers": {
            layer: {
                "calls": found.calls,
                "total_s": float(found.durations_s.sum()),
                "self_s": found.self_s,
                "p50_us": drive.percentile(_us(found.durations_s), 50),
                "p99_us": drive.percentile(_us(found.durations_s), 99),
            }
            for layer, found in sorted(traced.stats.items())
        },
        "sampled_requests": sorted(sampled),
        "spans": [s._asdict() for s in spans if s.request_id in sampled],
        "metrics": metrics,
    }
