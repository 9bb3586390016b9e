"""The process tier is *bit-identical* to the thread tier.

Exact equality, not closeness: the parent template's state crosses
the worker boundary through the byte-exact persist codec (weights via
shared memory, predictions back as raw float64), so a worker process
must produce the same 64 bits as an in-process service holding the
same bundles.  Any tolerance here would hide a codec bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.cluster.proc import ProcClusterService
from repro.engine.environment import random_environments
from repro.errors import UnknownBackendError
from repro.serving import CostService, SnapshotStore

from .conftest import fast_config


@pytest.fixture(scope="module")
def thread_tier(cluster_bundle):
    """The existing thread tier over the same bundle, for comparison."""
    bundle, _ = cluster_bundle
    tier = ClusterService(
        shard_count=2,
        service_factory=lambda sid: CostService(
            snapshot_store=SnapshotStore()
        ),
    )
    tier.deploy(bundle)
    yield tier
    tier.close()


def test_estimates_bit_identical_to_thread_tier(
    proc_service, thread_tier, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    for env in cluster_envs:
        for record in labeled[:8]:
            assert proc_service.estimate(
                record.query_sql, env
            ) == thread_tier.estimate(record.query_sql, env)


def test_batched_estimates_bit_identical_to_thread_tier(
    proc_service, thread_tier, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    queries = [record.query_sql for record in labeled[:12]]
    for env in cluster_envs:
        np.testing.assert_array_equal(
            proc_service.estimate_many(queries, env, batch_size=4),
            thread_tier.estimate_many(queries, env, batch_size=4),
        )


def test_plan_shipped_queries_bit_identical(
    proc_service, thread_tier, cluster_bundle, cluster_envs
):
    """Plan trees cross the boundary through the persist plan codec;
    the re-hydrated plan must estimate to the same 64 bits."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    for record in labeled[:5]:
        assert proc_service.estimate(
            record.plan, env, bundle=bundle.name
        ) == thread_tier.estimate(record.plan, env, bundle=bundle.name)


def test_bit_identical_to_a_single_inprocess_service(
    proc_service, cluster_bundle, cluster_envs
):
    """Ground truth: a plain CostService in this very process."""
    bundle, labeled = cluster_bundle
    queries = [record.query_sql for record in labeled[:10]]
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        for env in cluster_envs:
            np.testing.assert_array_equal(
                proc_service.estimate_many(queries, env, batch_size=4),
                single.estimate_many(queries, env, batch_size=4),
            )
            assert proc_service.estimate(
                queries[0], env
            ) == single.estimate(queries[0], env)


def test_async_path_bit_identical_to_sync(
    proc_service, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    env = cluster_envs[1]
    sql = labeled[0].query_sql
    sync = proc_service.estimate(sql, env)
    assert proc_service.estimate_async(sql, env).result(timeout=30.0) == sync


def test_coalesced_burst_is_bit_identical_and_isolates_bad_requests(
    cluster_bundle,
):
    """A burst of async estimates reaches one worker as coalesced
    writes and is served by fused batches: every value still equals an
    in-process ``estimate_many``, the 3 unknown-backend requests mixed
    in fail alone (typed), a ping in the middle is answered, and the
    worker's counters reconcile."""
    bundle, labeled = cluster_bundle
    # Two of the four environments are new to the bundle.  Grafting a
    # snapshot changes the bundle every later estimate uses, so both
    # sides first see each environment once, in the same order.
    envs = random_environments(4, seed=3)
    plans = [record.plan for record in labeled[:32]]
    items = [(plans[i % len(plans)], envs[i % len(envs)]) for i in range(128)]
    with ProcClusterService(
        worker_count=1, config=fast_config(), max_inflight_per_worker=256
    ) as tier:
        tier.deploy(bundle)
        handle = tier.worker("worker-0")
        for env in envs:
            tier.estimate(plans[0], env)
        before = handle.rpc("counters", {})[0]["value"]
        good, bad = [], []
        for i, (plan, env) in enumerate(items):
            if i in (10, 60, 100):
                bad.append(
                    tier.estimate_async(plan, env, backend="no-such-engine")
                )
            if i == 64:
                ping = handle.submit("ping", {})
            good.append(tier.estimate_async(plan, env))
        values = np.array([future.result(timeout=60.0) for future in good])
        for future in bad:
            with pytest.raises(UnknownBackendError):
                future.result(timeout=60.0)
        assert ping.result(timeout=60.0)[0]["value"] == "pong"
        after = handle.rpc("counters", {})[0]["value"]

    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        for env in envs:
            single.estimate(plans[0], env)
        for env in envs:
            indices = [i for i, (_, e) in enumerate(items) if e is env]
            np.testing.assert_array_equal(
                values[indices],
                single.estimate_many([items[i][0] for i in indices], env),
            )

    def delta(key):
        return after["sections"]["service"][key] - (
            before["sections"]["service"][key]
        )

    assert delta("requests") == len(good)
    assert after["errors"] - before["errors"] == len(bad)
    assert 0 < delta("predict_batches") < len(good) + len(bad)
