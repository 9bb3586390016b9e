"""The failure-classification table, row by row, with no processes.

Each row of the table in ``docs/SERVING.md`` is checked on the sync
retry loop and through an async done-callback of the process-free
``ReplicaTier`` core, over a subclass whose replicas are plain
strings: the process tier inherits exactly this code, and no test here
spawns a worker.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.cluster import AdmissionController
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


class FakeTier(ReplicaTier):
    """The bare core over string replicas; ids in ``down`` raise
    ShardDownError."""

    def __init__(self, tracer=None, max_inflight=4):
        super().__init__(3, None, tracer, None)
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


def assert_outcome(tier, home, charged):
    health = tier.router.health()
    assert health[home].failures == (1 if charged else 0)
    assert all(
        state.failures == 0 for rid, state in health.items() if rid != home
    )
    assert all(gate.inflight == 0 for gate in tier._admission.values())


# ----------------------------------------------------------------------
# the core, row by row
# ----------------------------------------------------------------------
@pytest.mark.parametrize("error, charged, fails_over", ROWS)
def test_core_sync_row(error, charged, fails_over):
    tier = FakeTier()
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


@pytest.mark.parametrize("error, charged, fails_over", ROWS)
def test_core_async_callback_row(error, charged, fails_over):
    tier = FakeTier()
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


def test_core_overload_row_sheds_without_failover_or_charge():
    tier = FakeTier(max_inflight=1)
    home = tier.router.shard_for("tenant")
    assert tier._admission[home].try_acquire()
    with pytest.raises(ShardOverloadError, match=f"^worker {home!r} is at"):
        tier._with_failover("tenant", lambda replica: replica)
    tier._admission[home].release()
    assert tier.stats.snapshot()["reroutes"] == 0
    assert_outcome(tier, home, charged=False)
    (shed,) = tier.events.events("admission_shed")
    assert shed.data == {"worker": home, "tenant": "tenant"}


def test_core_names_its_replicas_workers():
    """Events, span annotations and messages name a replica a worker;
    a request that fails on every replica counts as exhausted."""
    tracer = Tracer(sample_rate=1.0, seed=3)
    tier = FakeTier(tracer=tracer)
    home = tier.router.shard_for("tenant")
    tier.down.add(home)
    for _ in range(3):  # the failure threshold
        tier._with_failover("tenant", lambda replica: replica)
    (ejected,) = tier.events.events("worker_ejected")
    assert ejected.data == {"worker": home, "reason": "health"}

    served = tier._with_failover("tenant", lambda replica: replica)
    route = tracer.traces(kind="route")[-1]["spans"][0]
    expected = {"tenant": "tenant", "worker": served, "rerouted": False}
    assert route["name"] == "route" and route["annotations"] == expected

    tier.down.update(tier.router.shard_ids())
    with pytest.raises(
        ClusterError, match="failed on every alive worker$"
    ) as raised:
        tier._with_failover("tenant", lambda replica: replica)
    assert isinstance(raised.value.__cause__, ShardDownError)
    assert tier.counters()["cluster"]["exhausted"] == 1

    tier.eject(home)
    assert tier.events.events("worker_ejected")[-1].data == {
        "worker": home,
        "reason": "operator",
    }
    assert tier.counters()["cluster"]["per_shard"][home]["alive"] is False


def test_async_replica_failures_accumulate_to_ejection():
    """Submissions between resolutions do not reset the failure
    streak: a replica whose futures keep dying is ejected at the
    threshold."""
    tier = FakeTier()
    home = tier.router.shard_for("tenant")

    def submit(replica):
        future = Future()
        future.add_done_callback(lambda done: tier._settle(replica, done))
        return future

    for _ in range(3):  # the failure threshold
        assert tier.router.is_alive(home)
        future = tier._with_failover("tenant", submit, release_on_success=False)
        future.set_exception(ShardDownError("replica died"))
    assert not tier.router.is_alive(home)
    assert [e.data["worker"] for e in tier.events.events("worker_ejected")] == [
        home
    ]


def test_several_bundles_need_a_name():
    """With more than one bundle deployed a request must name one; a
    request naming one routes on it."""
    tier = FakeTier()
    tier._deployed.extend(["tenant-a", "tenant-b"])
    with pytest.raises(ClusterError, match="bundle name required"):
        tier._resolve_key(None, None)
    assert tier._resolve_key("tenant-a", None) == ("tenant-a", "tenant-a")
