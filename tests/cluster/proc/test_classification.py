"""Failure classification on the process tier: request errors and a
full worker charge no health and never fail over."""

from __future__ import annotations

import pytest

from repro.cluster.proc import ProcClusterService
from repro.errors import ParseError, ServingError, ShardOverloadError

from .conftest import fast_config


@pytest.fixture(scope="module")
def tier(cluster_bundle):
    bundle, _labeled = cluster_bundle
    with ProcClusterService(worker_count=2, config=fast_config()) as tier:
        tier.deploy(bundle)
        yield tier


def assert_untouched(tier, reroutes_before):
    health = tier.router.health()
    assert all(state.alive for state in health.values())
    assert all(state.failures == 0 for state in health.values())
    assert tier.stats.snapshot()["reroutes"] == reroutes_before


def test_request_errors_charge_no_health(tier, cluster_envs):
    """A bad client request must not eject healthy replicas — neither
    a ServingError (unknown bundle) nor any other library ReproError
    (malformed SQL raises ParseError), sync or async; both cross
    the wire as the same class."""
    env = cluster_envs[0]
    before = tier.stats.snapshot()["reroutes"]
    for _ in range(6):  # 2x the failure threshold
        with pytest.raises(ServingError):
            tier.estimate("SELECT 1", env, bundle="no-such-bundle")
        with pytest.raises(ParseError):
            tier.estimate("SELEC oops FORM nowhere", env)
    with pytest.raises(ParseError):
        tier.estimate_async("SELEC nope", env).result(timeout=30.0)
    assert_untouched(tier, before)


def test_full_replica_sheds_instead_of_queueing(cluster_bundle, cluster_envs):
    """An async request holds the home replica's only slot: the next
    request sheds — no failover, no health damage, one shed counted —
    and the slot comes back when the held request resolves."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    with ProcClusterService(
        worker_count=2, config=fast_config(), max_inflight_per_worker=1
    ) as tier:
        tenant = tier.deploy(bundle)
        home = tier.worker_of(tenant)
        # Wedge the (single-threaded) worker behind a slow frame.
        blocker = tier.worker(home).submit(
            "delay", {"seconds": 1.0}, timeout_s=30.0
        )
        inflight = tier.estimate_async(sql, env)
        with pytest.raises(ShardOverloadError):
            tier.estimate(sql, env)
        assert_untouched(tier, 0)
        assert tier.counters()["cluster"]["shed"] == 1
        blocker.result(timeout=30.0)
        assert inflight.result(timeout=30.0) > 0  # slot released on resolve
        assert tier.estimate(sql, env) > 0
