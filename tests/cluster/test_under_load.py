"""The process tier under concurrent load.

A worker SIGKILLed while threads send traffic must cost no request:
failover re-routes its tenants and serves them the same bits, and the
revived worker serves them again.  A hot tenant stays on its own
worker, so none of its load lands on the quiet tenants' workers.
Worker-side counts are read through the ``counters`` frame.
"""

from __future__ import annotations

import itertools

from repro.cluster.proc import ProcClusterService
from repro.errors import WorkerDiedError

from ..conftest import hammer
from .proc.conftest import fast_config, poll


def make_tier(worker_count=3):
    return ProcClusterService(worker_count=worker_count, config=fast_config())


def _items(labeled, envs):
    env_by_name = {env.name: env for env in envs}
    return [(record.plan, env_by_name[record.env_name]) for record in labeled]


def _worker_sections(tier):
    """Each worker's own counter sections, pulled now."""
    return {
        worker_id: tier.worker(worker_id).rpc("counters", {})[0]["value"]["sections"]
        for worker_id in tier.router.shard_ids()
    }


def test_kill_under_load_fails_over_with_zero_errors(cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    items = _items(labeled, cluster_envs)
    names = [f"tenant-{i}" for i in range(4)]
    with make_tier() as tier:
        for name in names:
            tier.deploy(bundle, name=name)
        oracle = {
            (name, i): tier.estimate(plan, env, bundle=name)
            for name in names
            for i, (plan, env) in enumerate(items)
        }
        victim = tier.worker_of(names[0])
        displaced = [name for name in names if tier.worker_of(name) == victim]
        old_pid = tier.worker(victim).pid
        sent = itertools.count()
        held = []
        served = []

        def kill_with_requests_in_flight():
            # A slow frame holds the victim, so the requests routed to
            # it behind the frame are in flight when the kill lands.
            held.append(
                tier.worker(victim).submit("delay", {"seconds": 5.0}, timeout_s=30.0)
            )
            assert poll(lambda: tier._admission[victim].inflight >= 1, 10.0)
            tier.kill_worker(victim)

        def work(index):
            for step in range(40):
                if next(sent) == 40:
                    kill_with_requests_in_flight()
                name = names[(index + step) % len(names)]
                i = (index * 7 + step) % len(items)
                served.append(((name, i), tier.estimate(*items[i], bundle=name)))

        errors = hammer(work)
        counts = tier.counters()
        # The revived pid takes its tenants back and serves their bits.
        assert poll(
            lambda: tier.worker(victim).pid != old_pid and tier.router.is_alive(victim),
            timeout_s=30.0,
        )
        home = [tier.worker_of(name) for name in displaced]
        after = {name: tier.estimate(*items[0], bundle=name) for name in displaced}
    assert errors == []
    (delay,) = held
    assert isinstance(delay.exception(timeout=30.0), WorkerDiedError)
    assert len(served) == 4 * 40
    assert all(value == oracle[key] for key, value in served)
    cluster = counts["cluster"]
    assert cluster["ejections"] >= 1
    assert cluster["reroutes"] >= 1
    assert cluster["shed"] == 0 and cluster["exhausted"] == 0
    assert counts["supervisor"]["deaths"] == 1
    assert home == [victim] * len(displaced)
    assert after == {name: oracle[(name, 0)] for name in displaced}


def test_hot_tenant_stays_on_its_own_shard_under_load(cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    items = _items(labeled, cluster_envs)
    with make_tier() as tier:
        hot = "hot-tenant"
        hot_worker = tier.worker_of(hot)
        probes = [
            name for name in (f"probe-{i}" for i in range(64))
            if tier.worker_of(name) != hot_worker
        ][:3]
        assert len(probes) == 3
        for name in probes + [hot]:
            tier.deploy(bundle, name=name)
        before = tier.counters()["cluster"]["routed"]
        requests_before = {
            worker_id: sections["service"]["requests"]
            for worker_id, sections in _worker_sections(tier).items()
        }

        def work(index):
            for step in range(44):
                # Ten hot requests for every quiet tenant's one.
                name = probes[step // 11 % 3] if step % 11 == 0 else hot
                tier.estimate(*items[(index + step) % len(items)], bundle=name)

        errors = hammer(work)
        cluster = tier.counters()["cluster"]
        served = {
            worker_id: sections["service"]["requests"] - requests_before[worker_id]
            for worker_id, sections in _worker_sections(tier).items()
        }
        placement = [tier.worker_of(name) for name in probes]
    routed = {
        worker: count - before.get(worker, 0)
        for worker, count in cluster["routed"].items()
    }
    assert errors == []
    assert cluster["shed"] == 0 and cluster["reroutes"] == 0
    assert hot_worker not in placement
    # 4 threads x 40 hot requests went to the hot worker, and nothing
    # else; each worker served exactly what was routed to it.
    assert routed[hot_worker] == 4 * 40
    assert sum(routed.values()) == 4 * 44
    assert served == routed
