"""EventLog: vocabulary, ring bounds, subscription, counters."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.obs import EVENT_TYPES, EventLog


def test_emit_retains_and_counts():
    log = EventLog()
    event = log.emit("deploy", bundle="b", version=1)
    assert event.type == "deploy"
    assert event.as_dict()["bundle"] == "b"
    assert len(log) == 1
    counters = log.counters()
    assert counters["emitted"] == 1
    assert counters["by_type"] == {"deploy": 1}


def test_unknown_type_fails_loudly():
    log = EventLog()
    with pytest.raises(ReproError):
        log.emit("deployy")
    assert len(log) == 0


def test_ring_is_bounded_keeping_newest():
    log = EventLog(capacity=3)
    for index in range(5):
        log.emit("deploy", seq=index)
    assert len(log) == 3
    assert [e.data["seq"] for e in log.events()] == [2, 3, 4]
    assert log.counters()["emitted"] == 5


def test_filter_and_limit():
    log = EventLog()
    log.emit("deploy", seq=0)
    log.emit("worker_killed", worker="w0")
    log.emit("deploy", seq=1)
    deploys = log.events(event_type="deploy")
    assert [e.data["seq"] for e in deploys] == [0, 1]
    assert [e.data["seq"] for e in log.events(event_type="deploy", limit=1)] == [1]
    assert [d["type"] for d in log.as_dicts(limit=2)] == ["worker_killed", "deploy"]


def test_subscribers_fire_and_crashes_are_contained():
    log = EventLog()
    seen = []
    unsubscribe = log.subscribe(seen.append)
    log.subscribe(lambda event: 1 / 0)
    log.emit("deploy")
    assert [e.type for e in seen] == ["deploy"]
    assert log.counters()["subscriber_errors"] == 1
    unsubscribe()
    unsubscribe()  # idempotent
    log.emit("promotion")
    assert len(seen) == 1


def test_vocabulary_covers_the_stack():
    expected = {
        "deploy", "promotion", "rollback", "drift_trip", "miss_rate_trip",
        "checkpoint_write", "checkpoint_error", "checkpoint_restore",
        "checkpoint_failover_older", "admission_shed",
        # replica tier: real-pid lifecycle
        "worker_spawned", "worker_killed", "worker_died", "worker_revived",
        "worker_ejected", "worker_sync_failed", "bundle_deployed",
        "tier_restored",
    }
    assert expected == set(EVENT_TYPES)


def test_capacity_must_be_positive():
    with pytest.raises(ReproError):
        EventLog(capacity=0)
