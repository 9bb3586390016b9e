"""The sharded tier under concurrent load.

A replica killed while threads send traffic must cost no request:
failover ejects it, re-routes its tenants and serves them the same
bits.  A hot tenant stays on its own shard, so none of its load lands
on the quiet tenants' replicas.  A mixed fleet routes each backend's
tenant to the right bundle, auto-deploys the second backend's native
fallback, and keeps each backend's q-error and cache hit rate.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro.backends import DEFAULT_BACKEND, get_backend
from repro.cluster import ClusterService
from repro.nn.loss import numpy_q_error
from repro.serving import CostService, SnapshotStore

from ..conftest import hammer


def make_cluster(shard_count):
    return ClusterService(
        shard_count=shard_count,
        service_factory=lambda sid: CostService(snapshot_store=SnapshotStore()),
    )


def _items(labeled, envs):
    env_by_name = {env.name: env for env in envs}
    return [(record.plan, env_by_name[record.env_name]) for record in labeled]


def test_kill_under_load_fails_over_with_zero_errors(cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    items = _items(labeled, cluster_envs)
    names = [f"tenant-{i}" for i in range(4)]
    with make_cluster(3) as cluster:
        for name in names:
            cluster.deploy(bundle, name=name)
        oracle = {
            (name, i): cluster.estimate(plan, env, bundle=name)
            for name in names
            for i, (plan, env) in enumerate(items)
        }
        victim = cluster.shard_of(names[0])
        displaced = [name for name in names if cluster.shard_of(name) == victim]
        sent = itertools.count()
        killed = threading.Event()
        served = []

        def work(index):
            for step in range(40):
                if next(sent) == 40:
                    cluster.kill_shard(victim)
                    killed.set()
                name = names[(index + step) % len(names)]
                i = (index * 7 + step) % len(items)
                served.append(((name, i), cluster.estimate(*items[i], bundle=name)))

        errors = hammer(work)
        tier = cluster.counters()["cluster"]
        moved = all(cluster.shard_of(name) != victim for name in displaced)
    assert killed.is_set()
    assert errors == []
    assert len(served) == 4 * 40
    assert all(value == oracle[key] for key, value in served)
    assert tier["ejections"] >= 1
    assert tier["reroutes"] >= 1
    assert tier["shed"] == 0 and tier["exhausted"] == 0
    assert moved


def test_hot_tenant_stays_on_its_own_shard_under_load(cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    items = _items(labeled, cluster_envs)
    with make_cluster(3) as cluster:
        hot = "hot-tenant"
        hot_shard = cluster.shard_of(hot)
        probes = [
            name for name in (f"probe-{i}" for i in range(64))
            if cluster.shard_of(name) != hot_shard
        ][:3]
        assert len(probes) == 3
        for name in probes + [hot]:
            cluster.deploy(bundle, name=name)
        before = cluster.counters()["cluster"]["routed"]

        def work(index):
            for step in range(44):
                # Ten hot requests for every quiet tenant's one.
                name = probes[step // 11 % 3] if step % 11 == 0 else hot
                cluster.estimate(*items[(index + step) % len(items)], bundle=name)

        errors = hammer(work)
        tier = cluster.counters()["cluster"]
    routed = {
        shard: count - before.get(shard, 0) for shard, count in tier["routed"].items()
    }
    assert errors == []
    assert tier["shed"] == 0 and tier["reroutes"] == 0
    assert all(cluster.shard_of(name) != hot_shard for name in probes)
    # 4 threads x 40 hot requests went to the hot shard, and nothing else.
    assert routed[hot_shard] == 4 * 40
    assert sum(routed.values()) == 4 * 44


def test_mixed_fleet_routes_both_backends_with_bounded_q_error(
    cluster_bundle, cluster_envs
):
    bundle, labeled = cluster_bundle
    second = "aurora"
    profile = get_backend(second)
    items = {
        DEFAULT_BACKEND: _items(labeled, cluster_envs),
        # The second fleet's optimizer reports the same queries in its
        # own cost units and cardinality habits.
        second: [(profile.native_plan(plan), env) for plan, env in _items(labeled, cluster_envs)],
    }
    actual = np.array([record.latency_ms for record in labeled])
    with make_cluster(2) as cluster:
        cluster.deploy(bundle, name="fleet-learned")
        # One pass per backend: the second one auto-deploys its
        # fallback on the shards it reaches, and every item's features
        # are cached before the probes below.
        for backend, pairs in items.items():
            for plan, env in pairs:
                cluster.estimate(plan, env, backend=backend)

        def work(index):
            for step in range(30):
                backend = DEFAULT_BACKEND if (index + step) % 3 else second
                plan, env = items[backend][(index * 5 + step) % len(labeled)]
                assert np.isfinite(cluster.estimate(plan, env, backend=backend))

        errors = hammer(work)
        quality = {}
        for backend, pairs in items.items():
            hits_before = _cache_hits(cluster)
            predicted = np.array(
                [cluster.estimate(plan, env, backend=backend) for plan, env in pairs]
            )
            hits = _cache_hits(cluster) - hits_before
            q = numpy_q_error(predicted, actual)
            quality[backend] = (np.median(q), np.quantile(q, 0.95), hits / len(pairs))
        totals = {"routed": {}, "learned": {}, "native_fallback": {}, "auto_deployed": 0,
                  "unknown_backend_errors": 0, "mismatch_errors": 0}
        for shard in cluster.counters()["shards"].values():
            section = shard.get("backends") or {}
            for kind in ("routed", "learned", "native_fallback"):
                for backend, count in (section.get(kind) or {}).items():
                    totals[kind][backend] = totals[kind].get(backend, 0) + count
            for key in ("auto_deployed", "unknown_backend_errors", "mismatch_errors"):
                totals[key] += section.get(key, 0)
    assert errors == []
    assert totals["routed"].get(DEFAULT_BACKEND, 0) > 0 and totals["routed"].get(second, 0) > 0
    assert totals["learned"].get(DEFAULT_BACKEND, 0) > 0
    assert totals["native_fallback"].get(second, 0) > 0
    assert totals["auto_deployed"] > 0
    assert totals["unknown_backend_errors"] == totals["mismatch_errors"] == 0
    default_p50, default_p95, default_hits = quality[DEFAULT_BACKEND]
    second_p50, second_p95, second_hits = quality[second]
    assert default_p50 <= 1.83 and default_p95 <= 4.10
    assert second_p50 <= 186.0 and second_p95 <= 1437.0
    assert default_hits >= 0.95 and second_hits >= 0.95


def _cache_hits(cluster):
    return sum(
        shard["feature_cache"]["hits"] for shard in cluster.counters()["shards"].values()
    )
