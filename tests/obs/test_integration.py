"""End-to-end observability: thin-view counters, live Prometheus
exposition, report rendering."""

from __future__ import annotations

import sys
import time

import pytest

sys.path.insert(0, "tools")
from check_prom import check_prometheus_text  # noqa: E402

from repro.cluster.proc import ProcClusterService
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
    """The process tier's exposition, with every worker's folded
    sections, and one service's both lint clean."""
    bundle, labeled = trained_bundle
    tracer = Tracer(sample_rate=1.0, seed=3)
    with ProcClusterService(worker_count=2, tracer=tracer) as tier:
        tier.deploy(bundle)
        for record in labeled[:4]:
            tier.estimate(record.query_sql, serving_envs[0])
        home = tier.worker_of(bundle.name)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            workers = tier.counters()["workers"]
            if all("sections" in snap for snap in workers.values()):
                break
            time.sleep(0.05)
        tier_text = tier.metrics.render_prometheus()
    with CostService(snapshot_store=SnapshotStore()) as service:
        service.deploy(bundle)
        service.estimate(labeled[0].query_sql, serving_envs[0])
        service_text = service.metrics.render_prometheus()
    assert check_prometheus_text(tier_text) == []
    assert check_prometheus_text(service_text) == []
    assert "repro_cluster_routed" in tier_text
    assert f'repro_cluster_routed{{shard="{home}"}} 4' in tier_text
    assert "repro_workers_" in tier_text
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
