"""End-to-end observability: cluster traces, thin-view counters,
live Prometheus exposition, report rendering."""

from __future__ import annotations

import sys

import pytest

sys.path.insert(0, "tools")
from check_prom import check_prometheus_text  # noqa: E402

from repro.cluster import ClusterService
from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.eval.reporting import render_obs_report
from repro.obs import EventLog, Tracer
from repro.serving import CostService, SnapshotStore
from repro.workload.collect import collect_labeled_plans


@pytest.fixture(scope="module")
def serving_envs():
    return random_environments(2, seed=3)


@pytest.fixture(scope="module")
def trained_bundle(sysbench, serving_envs):
    labeled = collect_labeled_plans(sysbench, serving_envs, 40, seed=1)
    pipeline = QCFE(
        sysbench,
        serving_envs,
        QCFEConfig(model="qppnet", epochs=2, template_scale=4),
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle(), labeled


def test_cluster_trace_links_five_plus_spans(trained_bundle, serving_envs):
    """The acceptance trace: one retained trace holding the full
    route -> request -> parse/plan/featurize/predict chain."""
    bundle, labeled = trained_bundle
    tracer = Tracer(sample_rate=1.0, seed=11)
    with ClusterService(shard_count=2, tracer=tracer) as cluster:
        cluster.deploy(bundle)
        cluster.estimate(labeled[0].query_sql, serving_envs[0])

    routed = [
        t
        for t in tracer.traces(kind="route")
        if any(s["name"] == "route" for s in t["spans"])
    ]
    assert routed, "the routing hop must share the request trace"
    trace = routed[-1]
    spans = trace["spans"]
    assert len(spans) >= 5
    names = {span["name"] for span in spans}
    assert {"route", "request", "parse", "plan", "featurize", "predict"} <= names

    # All spans belong to one trace and chain to the single root.
    assert {span["trace_id"] for span in spans} == {trace["trace_id"]}
    by_id = {span["span_id"]: span for span in spans}
    roots = [span for span in spans if span["parent_id"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "route"
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in by_id
    request = next(span for span in spans if span["name"] == "request")
    assert request["parent_id"] == roots[0]["span_id"]
    assert "shard" in roots[0]["annotations"]


def test_service_counters_is_a_registry_view(trained_bundle, serving_envs):
    bundle, labeled = trained_bundle
    service = CostService(snapshot_store=SnapshotStore(), tracer=Tracer(seed=1))
    try:
        service.deploy(bundle)
        for record in labeled[:3]:
            service.estimate(record.query_sql, serving_envs[0])
        counters = service.counters()
        assert counters == service.metrics.sections_snapshot()
        assert list(counters)[:6] == [
            "service", "registry", "feature_cache", "template_cache",
            "snapshot_store", "batchers",
        ]
        assert "events" in counters and "tracer" in counters
        assert counters["service"]["requests"] == 3
        assert counters["events"]["by_type"] == {"deploy": 1}
        assert counters["tracer"]["traces_started"] == 3
    finally:
        service.close()


def test_optional_sections_are_omitted(trained_bundle):
    bundle, _ = trained_bundle
    service = CostService()
    try:
        service.deploy(bundle)
        counters = service.counters()
        assert "snapshot_store" not in counters
        assert "adaptation" not in counters
        assert "tracer" not in counters
    finally:
        service.close()


def test_live_expositions_parse_under_check_prom(
    trained_bundle, serving_envs
):
    bundle, labeled = trained_bundle
    tracer = Tracer(sample_rate=1.0, seed=3)
    with ClusterService(shard_count=2, tracer=tracer) as cluster:
        cluster.deploy(bundle)
        for record in labeled[:4]:
            cluster.estimate(record.query_sql, serving_envs[0])
        cluster_text = cluster.metrics.render_prometheus()
        service_text = (
            cluster.shard(cluster.shard_of(bundle.name))
            .service.metrics.render_prometheus()
        )
    assert check_prometheus_text(cluster_text) == []
    assert check_prometheus_text(service_text) == []
    assert "repro_cluster_routed" in cluster_text
    assert "repro_service_requests" in service_text


def test_render_obs_report(trained_bundle, serving_envs):
    bundle, labeled = trained_bundle
    tracer = Tracer(sample_rate=1.0, slow_ms=0.0, seed=2)
    events = EventLog()
    service = CostService(tracer=tracer, events=events)
    try:
        service.deploy(bundle)
        service.estimate(labeled[0].query_sql, serving_envs[0])
    finally:
        service.close()
    report = render_obs_report(tracer=tracer, events=events)
    for needle in ("request", "parse", "featurize", "predict", "deploy"):
        assert needle in report
    assert "slow" in report.lower()
    assert render_obs_report() == "(no observability data)"


def test_restore_emits_checkpoint_events(
    trained_bundle, serving_envs, tmp_path
):
    bundle, labeled = trained_bundle
    service = CostService(snapshot_store=SnapshotStore())
    try:
        service.deploy(bundle)
        service.estimate(labeled[0].query_sql, serving_envs[0])
        service.save(tmp_path)
    finally:
        service.close()

    fresh = CostService(snapshot_store=SnapshotStore())
    try:
        assert fresh.restore(tmp_path) is True
        [event] = fresh.events.events(event_type="checkpoint_restore")
        assert event.data["warm"] is True
        assert fresh.events.events(event_type="checkpoint_failover_older") == []
    finally:
        fresh.close()
