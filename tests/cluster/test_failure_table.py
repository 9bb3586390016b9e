"""The failure-classification table, row by row, with no processes.

Each row of the table in ``docs/SERVING.md`` is checked on the sync
retry loop and through an async done-callback, on the thread tier
(a real ``ClusterService`` over stand-in replica services) and on the
shared ``ReplicaTier`` core under both replica kinds — ``"shard"`` and
``"worker"`` — so the process tier's naming is covered without
spawning a worker.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.cluster import AdmissionController, ClusterService
from repro.cluster.tier import ReplicaTier
from repro.errors import (
    ClusterError,
    ParseError,
    ShardDownError,
    ShardOverloadError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from repro.obs import Tracer

#: (error raised by the home replica, charges health, fails over).
ROWS = [
    pytest.param(ShardDownError("replica down"), True, True, id="shard-down"),
    pytest.param(WorkerDiedError("pid gone"), True, True, id="worker-died"),
    pytest.param(WorkerTimeoutError("too slow"), True, False, id="timeout"),
    pytest.param(ParseError("bad sql"), False, False, id="repro-error"),
    pytest.param(RuntimeError("poison"), False, True, id="other-exception"),
]


class FakeService:
    """A ``CostService`` stand-in: answers 1.0, or fails with the error
    it is armed with (raised on the sync path, set on the async
    Future after submission)."""

    tracer = None

    def __init__(self):
        self.error = None

    def estimate(self, query, env, bundle=None, backend=None):
        if self.error is not None:
            raise self.error
        return 1.0

    def estimate_async(self, query, env, bundle=None, backend=None):
        future = Future()
        if self.error is None:
            future.set_result(1.0)
        else:
            future.set_exception(self.error)
        return future

    def counters(self):
        return {}

    def close(self):
        pass


class FakeTier(ReplicaTier):
    """The bare core over string replicas; ids in ``down`` raise
    ShardDownError."""

    def __init__(self, kind, tracer=None, max_inflight=4):
        self.replica_kind = kind
        super().__init__(3, None, 3, None, tracer, None)
        self._admission = {
            replica_id: AdmissionController(max_inflight)
            for replica_id in self.router.shard_ids()
        }
        self.down = set()
        self._register_collectors()

    def _replica(self, replica_id):
        if replica_id in self.down:
            raise ShardDownError(f"{replica_id} is down")
        return replica_id

    def close(self):
        pass


def thread_tier():
    return ClusterService(
        shard_count=3, service_factory=lambda shard_id: FakeService()
    )


def assert_outcome(tier, home, charged):
    health = tier.router.health()
    assert health[home].failures == (1 if charged else 0)
    assert all(
        state.failures == 0 for rid, state in health.items() if rid != home
    )
    assert all(gate.inflight == 0 for gate in tier._admission.values())


# ----------------------------------------------------------------------
# the thread tier, end to end through its public API
# ----------------------------------------------------------------------
@pytest.mark.parametrize("error, charged, fails_over", ROWS)
def test_thread_tier_sync_row(error, charged, fails_over):
    with thread_tier() as tier:
        home = tier.shard_of("tenant")
        tier.shard(home).service.error = error
        if fails_over:
            assert tier.estimate("q", None, bundle="tenant") == 1.0
        else:
            with pytest.raises(type(error)):
                tier.estimate("q", None, bundle="tenant")
        assert tier.stats.snapshot()["reroutes"] == (1 if fails_over else 0)
        assert_outcome(tier, home, charged)


@pytest.mark.parametrize("error, charged, fails_over", ROWS)
def test_thread_tier_async_callback_row(error, charged, fails_over):
    """After submission nothing fails over: the Future resolves with
    the error and the done-callback charges health per the table."""
    with thread_tier() as tier:
        home = tier.shard_of("tenant")
        tier.shard(home).service.error = error
        future = tier.estimate_async("q", None, bundle="tenant")
        assert type(future.exception(timeout=1.0)) is type(error)
        assert tier.stats.snapshot()["reroutes"] == 0
        assert_outcome(tier, home, charged)


# ----------------------------------------------------------------------
# the shared core under both replica kinds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["shard", "worker"])
@pytest.mark.parametrize("error, charged, fails_over", ROWS)
def test_core_sync_row(kind, error, charged, fails_over):
    tier = FakeTier(kind)
    home = tier.router.shard_for("tenant")

    def call(replica):
        if replica == home:
            raise error
        return replica

    if fails_over:
        assert tier._with_failover("tenant", call) != home
    else:
        with pytest.raises(type(error)):
            tier._with_failover("tenant", call)
    assert tier.stats.snapshot()["reroutes"] == (1 if fails_over else 0)
    assert_outcome(tier, home, charged)


@pytest.mark.parametrize("kind", ["shard", "worker"])
@pytest.mark.parametrize("error, charged, fails_over", ROWS)
def test_core_async_callback_row(kind, error, charged, fails_over):
    tier = FakeTier(kind)
    home = tier.router.shard_for("tenant")
    pending = Future()

    def submit(replica):
        pending.add_done_callback(lambda done: tier._settle(replica, done))
        return pending

    assert tier._with_failover("tenant", submit, release_on_success=False) is (
        pending
    )
    assert tier._admission[home].inflight == 1  # the slot rides along
    pending.set_exception(error)
    assert tier.stats.snapshot()["reroutes"] == 0
    assert_outcome(tier, home, charged)


@pytest.mark.parametrize("kind", ["shard", "worker"])
def test_core_overload_row_sheds_without_failover_or_charge(kind):
    tier = FakeTier(kind, max_inflight=1)
    home = tier.router.shard_for("tenant")
    assert tier._admission[home].try_acquire()
    with pytest.raises(ShardOverloadError, match=f"^{kind} {home!r} is at"):
        tier._with_failover("tenant", lambda replica: replica)
    tier._admission[home].release()
    assert tier.stats.snapshot()["reroutes"] == 0
    assert_outcome(tier, home, charged=False)
    (shed,) = tier.events.events("admission_shed")
    assert shed.data == {kind: home, "tenant": "tenant"}


@pytest.mark.parametrize("kind", ["shard", "worker"])
def test_core_names_follow_the_replica_kind(kind):
    """Events, span annotations and messages keep each tier's names."""
    tracer = Tracer(sample_rate=1.0, seed=3)
    tier = FakeTier(kind, tracer=tracer)
    home = tier.router.shard_for("tenant")
    tier.down.add(home)
    for _ in range(3):  # the failure threshold
        tier._with_failover("tenant", lambda replica: replica)
    (ejected,) = tier.events.events(f"{kind}_ejected")
    assert ejected.data == {kind: home, "reason": "health"}

    served = tier._with_failover("tenant", lambda replica: replica)
    route = tracer.traces(kind="route")[-1]["spans"][0]
    expected = {"tenant": "tenant", kind: served, "rerouted": False}
    if kind == "worker":
        expected["tier"] = "proc"
    assert route["name"] == "route" and route["annotations"] == expected

    tier.down.update(tier.router.shard_ids())
    with pytest.raises(
        ClusterError, match=f"failed on every alive {kind}$"
    ) as raised:
        tier._with_failover("tenant", lambda replica: replica)
    assert isinstance(raised.value.__cause__, ShardDownError)

    tier.eject(home)
    assert tier.events.events(f"{kind}_ejected")[-1].data == {
        kind: home,
        "reason": "operator",
    }
    assert tier.counters()["cluster"]["per_shard"][home]["alive"] is False
