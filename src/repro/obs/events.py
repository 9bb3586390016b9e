"""Structured, typed events from the serving stack's control plane.

Counters say *how much*; events say *what happened and when*.  The
interesting moments in this stack are rare, discrete transitions —
a bundle deploy, an adaptation promotion or rollback, a drift or
miss-rate trip, a worker death/revival/ejection, a checkpoint write, a warm
restore (possibly failing over to an older retained checkpoint), an
admission shed — and each subsystem emits them into one
:class:`EventLog`: a bounded, thread-safe ring of :class:`Event`
records that is **subscribable** (callbacks fire on emit, off the
emitting component's locks) and **dumpable** (plain dicts, rendered by
:func:`repro.eval.reporting.render_obs_report`).

Event types are an enumerated vocabulary (:data:`EVENT_TYPES`), so a
subscriber can filter without string-guessing and a typo'd emit fails
loudly at the source instead of silently creating a new type.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from .lockwatch import make_lock

#: The event vocabulary.  Emitters must use one of these; see
#: ``docs/OBSERVABILITY.md`` for who emits what and with which fields.
EVENT_TYPES: Tuple[str, ...] = (
    "deploy",
    "promotion",
    "rollback",
    "drift_trip",
    "miss_rate_trip",
    "checkpoint_write",
    "checkpoint_error",
    "checkpoint_restore",
    "checkpoint_failover_older",
    "admission_shed",
    # replica tier (repro.cluster.proc): real-pid lifecycle
    "worker_spawned",
    "worker_killed",
    "worker_died",
    "worker_revived",
    "worker_ejected",
    "worker_sync_failed",
    "bundle_deployed",
    "tier_restored",
)


@dataclass(frozen=True)
class Event:
    """One structured event: a type, a wall-clock stamp, and fields."""

    type: str
    unix_ts: float
    data: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready plain-dict rendering."""
        return {"type": self.type, "unix_ts": self.unix_ts, **self.data}


class EventLog:
    """A bounded, subscribable ring buffer of typed events.

    ``emit`` is hot-path-safe: one lock-guarded list append plus the
    subscriber callbacks (which run on the emitting thread, outside
    the log's lock — a slow or crashing subscriber is counted, never
    propagated into the emitter).
    """

    def __init__(self, capacity: int = 512):
        """An empty log retaining the newest *capacity* events."""
        if capacity < 1:
            raise ReproError(f"event log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = make_lock("obs.events")
        self._events: List[Event] = []
        self._subscribers: List[Callable[[Event], None]] = []
        self._emitted = 0
        self._by_type: Dict[str, int] = {}
        self._subscriber_errors = 0

    # ------------------------------------------------------------------
    def emit(self, event_type: str, **data: object) -> Event:
        """Record (and fan out) one event of *event_type* with *data*."""
        if event_type not in EVENT_TYPES:
            raise ReproError(
                f"unknown event type {event_type!r} "
                f"(types: {', '.join(EVENT_TYPES)})"
            )
        event = Event(type=event_type, unix_ts=time.time(), data=dict(data))
        with self._lock:
            self._events.append(event)
            if len(self._events) > self.capacity:
                del self._events[: len(self._events) - self.capacity]
            self._emitted += 1
            self._by_type[event_type] = self._by_type.get(event_type, 0) + 1
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:
                with self._lock:
                    self._subscriber_errors += 1
        return event

    def subscribe(
        self, callback: Callable[[Event], None]
    ) -> Callable[[], None]:
        """Call *callback* on every future emit; returns an unsubscribe
        function (idempotent)."""
        with self._lock:
            self._subscribers.append(callback)

        def _unsubscribe() -> None:
            with self._lock:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)

        return _unsubscribe

    # ------------------------------------------------------------------
    def events(
        self, event_type: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Event]:
        """The retained events, oldest first (optionally filtered to
        *event_type*, optionally only the newest *limit*)."""
        with self._lock:
            out = list(self._events)
        if event_type is not None:
            out = [e for e in out if e.type == event_type]
        if limit is not None:
            out = out[-limit:]
        return out

    def as_dicts(self, **kwargs) -> List[Dict[str, object]]:
        """The retained events as JSON-ready dicts (see :meth:`events`)."""
        return [event.as_dict() for event in self.events(**kwargs)]

    def counters(self) -> Dict[str, object]:
        """Atomic counter snapshot: emitted totals, per-type counts,
        subscriber-error count.  Registered as a metrics-registry
        collector by the services that own a log."""
        with self._lock:
            return {
                "emitted": self._emitted,
                "retained": len(self._events),
                "subscriber_errors": self._subscriber_errors,
                "by_type": dict(self._by_type),
            }

    def __len__(self) -> int:
        """How many events are currently retained."""
        with self._lock:
            return len(self._events)


__all__ = ["EVENT_TYPES", "Event", "EventLog"]
