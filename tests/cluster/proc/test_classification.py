"""Failure classification on both tiers: every check runs once on the
thread tier (``ClusterService``) and once on the process tier
(``ProcClusterService``) — request errors, a full replica and an
unknown backend charge no health and never fail over."""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.cluster import ClusterService
from repro.cluster.proc import ProcClusterService
from repro.errors import (
    ParseError,
    ServingError,
    ShardOverloadError,
    UnknownBackendError,
)
from repro.serving import CostService, SnapshotStore

from .conftest import fast_config

TIERS = ["thread", "proc"]


def build(kind, max_inflight=None):
    """A 3-shard thread tier or a 2-worker process tier."""
    if kind == "thread":
        limit = {} if max_inflight is None else {
            "max_inflight_per_shard": max_inflight
        }
        return ClusterService(
            shard_count=3,
            service_factory=lambda sid: CostService(
                snapshot_store=SnapshotStore()
            ),
            **limit,
        )
    limit = {} if max_inflight is None else {
        "max_inflight_per_worker": max_inflight
    }
    return ProcClusterService(worker_count=2, config=fast_config(), **limit)


@pytest.fixture(scope="module", params=TIERS)
def tier(request, cluster_bundle):
    bundle, _labeled = cluster_bundle
    with build(request.param) as tier:
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
    (malformed SQL raises ParseError), sync or async; on the process
    tier both cross the wire as the same class."""
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


def test_unknown_backend_is_typed_and_charges_no_health(
    tier, cluster_bundle, cluster_envs
):
    """An unknown backend tag is a caller bug surfaced by the serving
    replica's router: typed error back to the caller, zero replica
    health damage, zero failover — same discipline as an unknown
    bundle name."""
    _, labeled = cluster_bundle
    before = tier.stats.snapshot()["reroutes"]
    for _ in range(6):  # 2x the failure threshold
        with pytest.raises(UnknownBackendError):
            tier.estimate(
                labeled[0].query_sql, cluster_envs[0], backend="oracle"
            )
    assert_untouched(tier, before)


def hold_next_async(tier, home):
    """Keep the next async request on *home* in flight; returns the
    function that lets it finish."""
    if isinstance(tier, ClusterService):
        service = tier.shard(home).service
        real = service.estimate_async
        pending: Future = Future()
        service.estimate_async = lambda *args, **kwargs: pending

        def release():
            service.estimate_async = real
            pending.set_result(1.0)

        return release
    # Wedge the (single-threaded) worker behind a slow frame.
    blocker = tier.worker(home).submit("delay", {"seconds": 1.0}, timeout_s=30.0)
    return lambda: blocker.result(timeout=30.0)


@pytest.mark.parametrize("kind", TIERS)
def test_full_replica_sheds_instead_of_queueing(
    kind, cluster_bundle, cluster_envs
):
    """An async request holds the home replica's only slot: the next
    request sheds — no failover, no health damage, one shed counted —
    and the slot comes back when the held request resolves."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    with build(kind, max_inflight=1) as tier:
        tenant = tier.deploy(bundle)
        home = tier.router.shard_for(tenant)
        release = hold_next_async(tier, home)
        inflight = tier.estimate_async(sql, env)
        with pytest.raises(ShardOverloadError):
            tier.estimate(sql, env)
        assert_untouched(tier, 0)
        assert tier.counters()["cluster"]["shed"] == 1
        release()
        assert inflight.result(timeout=30.0) > 0  # slot released on resolve
        assert tier.estimate(sql, env) > 0
