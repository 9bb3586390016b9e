"""ProcClusterService API coverage: parity, admission, timeouts,
observability folding, persistence."""

from __future__ import annotations

import copy
import dataclasses
import time

import numpy as np
import pytest

from repro.cluster.proc import ProcClusterService
from repro.engine.environment import DatabaseEnvironment, random_environments
from repro.engine.hardware import PROFILES
from repro.errors import ClusterError, ProtocolError, WorkerTimeoutError
from repro.serving import CostService, SnapshotStore

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


def test_unencodable_request_fails_typed_before_routing(
    proc_service, cluster_bundle, cluster_envs
):
    """A request the wire codec cannot encode (a numpy integer in a
    predicate) raises ProtocolError before any worker is picked: no
    health charge, no reroute, nothing left pending."""
    _, labeled = cluster_bundle
    env = cluster_envs[0]
    plan = copy.deepcopy(labeled[0].plan)
    node = next(n for n in plan.walk() if n.predicates)
    node.predicates[0] = dataclasses.replace(
        node.predicates[0], value=np.int64(7)
    )
    before = proc_service.stats.snapshot()
    for call in (
        lambda: proc_service.estimate(plan, env),
        lambda: proc_service.estimate_async(plan, env),
        lambda: proc_service.estimate_many([plan], env),
        lambda: proc_service.record_feedback(plan, env, actual_ms=1.0),
    ):
        with pytest.raises(ProtocolError):
            call()
    handle = next(iter(proc_service.supervisor.handles.values()))
    with pytest.raises(ProtocolError):
        handle.submit("estimate", {"bundle": np.int64(1)})
    after = proc_service.stats.snapshot()
    assert after == before
    health = proc_service.router.health()
    assert all(s.alive and s.failures == 0 for s in health.values())
    for handle in proc_service.supervisor.handles.values():
        with handle._lock:
            kinds = [entry.kind for entry in handle._pending.values()]
        assert set(kinds) <= {"ping", "counters"}  # supervision traffic


def test_custom_hardware_under_a_profile_name_matches_the_thread_tier(
    cluster_bundle,
):
    """An environment whose hardware reuses a stock profile's name with
    other fields is fitted and served with its own fields in a worker,
    exactly as in-process."""
    bundle, labeled = cluster_bundle
    hardware = dataclasses.replace(
        PROFILES["h1_r7_7735hs"], seq_ms_per_page=0.5, rand_ms_per_page=2.0
    )
    env = DatabaseEnvironment(
        knobs=random_environments(1, seed=99)[0].knobs,
        hardware=hardware,
        name="custom-hardware",
    )
    plans = [record.plan for record in labeled[:6]]
    with ProcClusterService(worker_count=1, config=fast_config()) as tier:
        tier.deploy(bundle)
        served = tier.estimate_many(plans, env)
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        expected = single.estimate_many(plans, env)
    np.testing.assert_array_equal(served, expected)


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


def test_the_newest_spool_file_is_the_sync_image(cluster_bundle, tmp_path):
    """One image on disk and on the wire: the spool's newest checkpoint
    holds exactly the bytes every worker was sent."""
    from repro.persist import list_checkpoints

    bundle, _ = cluster_bundle
    spool = tmp_path / "spool"
    with ProcClusterService(
        worker_count=1, config=fast_config(), checkpoint_spool=str(spool)
    ) as tier:
        tier.deploy(bundle)
        tier.deploy(bundle, name="tenant-b")
        _, image = tier._current_sync
        _, newest = list_checkpoints(spool)[-1]
        assert newest.read_bytes() == image


def test_every_sync_is_in_flight_before_a_reply_is_awaited(
    cluster_bundle, monkeypatch
):
    """A deploy sends every live worker its sync before it waits on
    any reply, so it pays for one sync, not one per worker."""
    from repro.cluster.proc.supervisor import WorkerHandle

    bundle, _ = cluster_bundle
    log = []
    submit, await_reply = WorkerHandle.submit, WorkerHandle.await_reply

    def logged_submit(self, kind, *args, **kwargs):
        if kind == "sync":
            log.append(("send", self.worker_id))
        return submit(self, kind, *args, **kwargs)

    def logged_await(self, future, kind, timeout):
        if kind == "sync":
            log.append(("await", self.worker_id))
        return await_reply(self, future, kind, timeout)

    monkeypatch.setattr(WorkerHandle, "submit", logged_submit)
    monkeypatch.setattr(WorkerHandle, "await_reply", logged_await)
    with ProcClusterService(worker_count=3, config=fast_config()) as tier:
        tier.deploy(bundle)
    assert [step for step, _ in log] == ["send"] * 3 + ["await"] * 3
    assert {worker for _, worker in log} == {"worker-0", "worker-1", "worker-2"}


def test_the_callers_config_is_never_mutated(tmp_path):
    """One ``ProcConfig`` can build many tiers: a tier merges its
    service knobs and its checkpoint spool into a copy, so the
    caller's config — and its ``service`` dict — stay as they were."""
    config = fast_config()
    knobs = config.service
    before = dataclasses.asdict(config)
    spool = str(tmp_path / "spool")
    with ProcClusterService(
        worker_count=1, config=config, checkpoint_spool=spool,
        cache_capacity=64,
    ) as tier:
        assert tier.config.service["cache_capacity"] == 64
        assert tier.config.checkpoint_dir == spool
    assert dataclasses.asdict(config) == before
    assert config.service is knobs and knobs == {}
