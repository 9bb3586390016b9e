"""ProcClusterService API coverage: parity, admission, timeouts,
observability folding, persistence."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster.proc import ProcClusterService
from repro.errors import (
    ClusterError,
    ParseError,
    ServingError,
    ShardOverloadError,
    WorkerTimeoutError,
)

from .conftest import fast_config


# ----------------------------------------------------------------------
# API parity with the single-service surface
# ----------------------------------------------------------------------
def test_estimate_surface(proc_service, cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    sql = labeled[0].query_sql
    value = proc_service.estimate(sql, env)
    assert np.isfinite(value) and value > 0
    many = proc_service.estimate_many(
        [record.query_sql for record in labeled[:6]], env, batch_size=4
    )
    assert many.shape == (6,) and many.dtype == np.float64
    assert proc_service.estimate_async(sql, env).result(timeout=30.0) == value
    proc_service.record_feedback(sql, env, actual_ms=12.5)
    assert np.isfinite(
        proc_service.estimate(labeled[0].plan, env, bundle=bundle.name)
    )


def test_request_errors_cross_the_wire_typed_without_health_damage(
    proc_service, cluster_envs
):
    """Worker-side request errors rehydrate as the same class on the
    parent, and — exactly like the thread tier — charge no health."""
    env = cluster_envs[0]
    with pytest.raises(ParseError):
        proc_service.estimate("SELEC oops FORM nowhere", env)
    with pytest.raises(ServingError):
        proc_service.estimate("SELECT 1", env, bundle="no-such-bundle")
    with pytest.raises(ParseError):
        proc_service.estimate_async("SELEC nope", env).result(timeout=30.0)
    health = proc_service.router.health()
    assert all(state.alive for state in health.values())
    assert all(state.failures == 0 for state in health.values())


def test_counters_fold_worker_sections(proc_service, cluster_bundle,
                                       cluster_envs):
    _, labeled = cluster_bundle
    proc_service.estimate(labeled[0].query_sql, cluster_envs[0])
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        workers = proc_service.counters()["workers"]
        if all("pid" in snap for snap in workers.values()) and workers:
            break
        time.sleep(0.05)
    counters = proc_service.counters()
    assert {"cluster", "workers", "supervisor", "events"} <= set(counters)
    tier = counters["cluster"]
    assert set(tier) >= {"routed", "reroutes", "shed", "ejections",
                         "per_shard"}
    for worker_id, info in tier["per_shard"].items():
        assert info["state"] == "up"
        assert info["pid"] == proc_service.worker(worker_id).pid
    for worker_id, snap in counters["workers"].items():
        assert snap["worker_id"] == worker_id
        assert snap["pid"] == proc_service.worker(worker_id).pid
        assert "sections" in snap  # the worker's own registry, folded
    assert counters["supervisor"]["alive"] == counters["supervisor"]["workers"]
    report = proc_service.report()
    assert "worker-0" in report and "routed" in report


def test_tenant_affinity_is_stable(proc_service):
    tenant = proc_service.deployed_names()[0]
    home = proc_service.worker_of(tenant)
    assert all(
        proc_service.worker_of(tenant) == home for _ in range(16)
    )


# ----------------------------------------------------------------------
# admission + timeout semantics
# ----------------------------------------------------------------------
def test_full_worker_sheds_instead_of_queueing(cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    with ProcClusterService(
        worker_count=1, config=fast_config(), max_inflight_per_worker=1
    ) as tier:
        tier.deploy(bundle)
        handle = tier.worker("worker-0")
        # Wedge the (single-threaded) worker, then take the only slot.
        blocker = handle.submit("delay", {"seconds": 1.0}, timeout_s=30.0)
        inflight = tier.estimate_async(sql, env)
        with pytest.raises(ShardOverloadError):
            tier.estimate(sql, env)
        # Shedding is deliberate: no failover, no health damage.
        assert tier.router.is_alive("worker-0")
        assert tier.stats.snapshot()["reroutes"] == 0
        assert tier.counters()["cluster"]["shed"] == 1
        blocker.result(timeout=30.0)
        assert inflight.result(timeout=30.0) > 0  # slot released on resolve
        assert tier.estimate(sql, env) > 0


def test_timeout_charges_health_but_never_fails_over(
    cluster_bundle, cluster_envs
):
    """Slow is not dead: a request deadline raises WorkerTimeoutError
    and charges health, but is never retried on another worker — and
    the slow worker, once it catches up, keeps its place."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    config = fast_config(request_timeout_s=0.6, heartbeat_miss_limit=120)
    with ProcClusterService(worker_count=2, config=config) as tier:
        tier.deploy(bundle)
        home = tier.worker_of(tier.deployed_names()[0])
        blocker = tier.worker(home).submit(
            "delay", {"seconds": 2.5}, timeout_s=60.0
        )
        with pytest.raises(WorkerTimeoutError):
            tier.estimate(sql, env)
        assert tier.stats.snapshot()["reroutes"] == 0
        assert tier.router.health()[home].failures == 1
        blocker.result(timeout=30.0)
        assert tier.wait_workers(2, timeout_s=20.0)
        assert tier.estimate(sql, env) > 0  # the slow worker recovered
        assert tier.supervisor.counters()["timeouts_swept"] >= 1


def test_async_timeout_charges_health_but_never_fails_over(
    cluster_bundle, cluster_envs
):
    """The async twin: a deadline swept on a wedged worker fails the
    future with WorkerTimeoutError and charges the worker's health
    once — without retrying the request elsewhere."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    config = fast_config(request_timeout_s=0.6, heartbeat_miss_limit=120)
    with ProcClusterService(worker_count=2, config=config) as tier:
        tier.deploy(bundle)
        home = tier.worker_of(tier.deployed_names()[0])
        blocker = tier.worker(home).submit(
            "delay", {"seconds": 2.5}, timeout_s=60.0
        )
        with pytest.raises(WorkerTimeoutError):
            tier.estimate_async(sql, env).result(timeout=30.0)
        assert tier.stats.snapshot()["reroutes"] == 0
        assert tier.router.health()[home].failures == 1
        blocker.result(timeout=30.0)
        assert tier.wait_workers(2, timeout_s=20.0)
        assert tier.estimate_async(sql, env).result(timeout=30.0) > 0


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_save_restore_round_trip_is_bit_identical(
    proc_service, cluster_bundle, cluster_envs, tmp_path
):
    _, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    expected = proc_service.estimate(sql, env)
    proc_service.save(tmp_path / "ckpt")
    with ProcClusterService(worker_count=1, config=fast_config()) as fresh:
        with pytest.raises(ClusterError):
            fresh.estimate(sql, env)  # nothing deployed yet
        assert fresh.restore(tmp_path / "ckpt") is True
        assert fresh.deployed_names() == proc_service.deployed_names()
        assert fresh.estimate(sql, env) == expected


def test_warm_boot_from_spool(cluster_bundle, cluster_envs, tmp_path):
    """With a checkpoint spool, every publish writes a retained
    checkpoint and freshly spawned workers warm-boot from it before
    their first sync — a cold tier restart resumes bit-identically."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    spool = tmp_path / "spool"
    with ProcClusterService(
        worker_count=1, config=fast_config(), checkpoint_spool=str(spool)
    ) as first:
        first.deploy(bundle)
        expected = first.estimate(sql, env)
        spawned = first.events.events("worker_spawned")
        assert spawned and spawned[0].data["warm"] is False  # nothing yet
    with ProcClusterService(
        worker_count=1, config=fast_config(), checkpoint_spool=str(spool)
    ) as second:
        spawned = second.events.events("worker_spawned")
        assert spawned and spawned[0].data["warm"] is True
        assert second.restore(spool) is True
        assert second.estimate(sql, env) == expected
