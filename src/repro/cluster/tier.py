"""`ReplicaTier` — the process-free routing/failover core.

:class:`~repro.cluster.proc.ProcClusterService` serves through worker
processes; how a request *reaches* a worker lives here, apart from the
processes: routing and its counters, admission, deployment
bookkeeping, the failover loop under one ``route`` span, the failure
classification (the table in ``docs/SERVING.md``) and the ``cluster``
metrics section behind ``counters()`` / ``report()``.  Keeping it
process-free lets the failure-table tests drive every row through a
subclass over stand-in replicas without spawning a worker.

A subclass supplies :meth:`ReplicaTier._replica` (the replica by id,
looked up afresh on every attempt) and its admission gates
(:attr:`ReplicaTier._admission`).  Replicas are workers: ids are
``worker-<i>``, and events, span annotations and error messages name
them ``worker``.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import (
    ClusterError,
    ReproError,
    ShardDownError,
    ShardOverloadError,
    WorkerTimeoutError,
)
from ..obs import EventLog, MetricsRegistry
from ..obs.lockwatch import make_lock
from ..obs.trace import Tracer, current_tracer, open_span
from .admission import AdmissionController
from .router import ShardRouter


class ClusterStats:
    """Cluster-level routing counters (replica-local counts live on the
    workers' own admission gates and services)."""

    def __init__(self, worker_ids: Sequence[str]):
        """Zeroed counters over *worker_ids*."""
        self._lock = make_lock("cluster.stats")
        self._routed: Dict[str, int] = {worker_id: 0 for worker_id in worker_ids}
        self.reroutes = 0
        self.exhausted = 0

    def count_routed(self, worker_id: str) -> None:
        """One request routed to *worker_id* (sync: served to
        completion; async: successfully submitted — its outcome
        resolves later on the Future)."""
        with self._lock:
            self._routed[worker_id] = self._routed.get(worker_id, 0) + 1

    def count_reroute(self) -> None:
        """One request retried on a different worker after a failure."""
        with self._lock:
            self.reroutes += 1

    def count_exhausted(self) -> None:
        """One request that failed on every alive worker."""
        with self._lock:
            self.exhausted += 1

    def snapshot(self) -> Dict[str, object]:
        """Atomic plain-dict copy of the routing counters."""
        with self._lock:
            return {
                "routed": dict(self._routed),
                "reroutes": self.reroutes,
                "exhausted": self.exhausted,
            }


class ReplicaTier:
    """Routing, failover and tier-level observability over N replicas."""

    #: Admission gate per replica id, set by the subclass constructor.
    _admission: Dict[str, AdmissionController]

    def __init__(
        self,
        count: int,
        metrics: Optional[MetricsRegistry],
        tracer: Optional[Tracer],
        events: Optional[EventLog],
    ):
        """Shared state over *count* replicas, ``worker-0`` onwards."""
        if count < 1:
            raise ClusterError(f"worker_count must be >= 1, got {count}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.tracer = tracer if tracer is not None else current_tracer()
        self.router = ShardRouter([f"worker-{i}" for i in range(count)])
        self.stats = ClusterStats(self.router.shard_ids())
        self._lock = make_lock("cluster.tier")
        self._deployed: List[str] = []

    def _replica(self, replica_id: str):
        """The replica ``call`` receives; ShardDownError if not serving."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _register_collectors(self, **sections: Callable[[], object]) -> None:
        """Register ``cluster`` (routing/health/admission), the tier's
        own *sections* in order, ``events`` and — when tracing —
        ``tracer`` into :attr:`metrics`."""
        register = self.metrics.register_collector
        register("cluster", self._cluster_section)
        for name, collect in sections.items():
            register(name, collect)
        register("events", self.events.counters)
        register(
            "tracer",
            lambda: None if self.tracer is None else self.tracer.counters(),
        )

    def _replica_status(self, replica_id: str) -> Dict[str, object]:
        """Tier-specific fields for *replica_id*'s ``per_shard`` entry."""
        return {}

    def _cluster_section(self) -> Dict[str, object]:
        """The ``cluster`` collector: routing totals plus per-replica
        health/admission/liveness (the data :meth:`report` renders)."""
        health = self.router.health()
        routing = self.stats.snapshot()
        routed: Dict[str, int] = routing["routed"]
        per_shard: Dict[str, object] = {}
        shed_total = 0
        for replica_id, gate in sorted(self._admission.items()):
            admission = gate.counters()
            shed_total += int(admission["shed"])
            per_shard[replica_id] = {
                "admission": admission,
                "failures": health[replica_id].failures,
                "ejections": health[replica_id].ejections,
                "alive": health[replica_id].alive,
                "routed": routed.get(replica_id, 0),
                **self._replica_status(replica_id),
            }
        return {
            "routed": routed,
            "reroutes": routing["reroutes"],
            "exhausted": routing["exhausted"],
            "shed": shed_total,
            "ejections": sum(h.ejections for h in health.values()),
            "per_shard": per_shard,
        }

    def _emit_ejected(self, replica_id: str, reason: str) -> None:
        """The ``worker_ejected`` event for *replica_id*."""
        self.events.emit("worker_ejected", worker=replica_id, reason=reason)

    # ------------------------------------------------------------------
    # routing core
    # ------------------------------------------------------------------
    def deployed_names(self) -> List[str]:
        """Every deployed bundle name, in deployment order."""
        with self._lock:
            return list(self._deployed)

    def _resolve_key(
        self, bundle: Optional[str], tenant: Optional[str]
    ) -> Tuple[str, str]:
        """(routing key, bundle name) for a request.

        The routing key defaults to the bundle name — tenants are
        bundles unless the caller says otherwise — and a missing
        bundle name falls back to the sole deployment, mirroring
        ``CostService`` semantics.
        """
        with self._lock:
            deployed = list(self._deployed)
        if bundle is None:
            if len(deployed) != 1:
                raise ClusterError(
                    "bundle name required when "
                    f"{len(deployed)} bundles are deployed"
                )
            bundle = deployed[0]
        return (tenant or bundle), bundle

    def _classify(self, replica_id: str, exc: BaseException) -> bool:
        """Apply the failure table to *exc* raised by *replica_id*:
        charge its health when the row says so (ejecting it at the
        threshold) and return True when the request fails over.

        - **Replica failures** (:class:`ShardDownError`, which the
          tier itself raises for a dead replica) charge health and
          retry on the next alive replica: a mid-run crash costs
          re-routed requests a cache warm-up, not an error.
        - **Timeouts** (:class:`WorkerTimeoutError`) charge health —
          a wedged worker drifts toward ejection — but never retry
          elsewhere: slow is not dead, and the request may still
          complete on the worker.
        - **Request errors** (any other
          :class:`~repro.errors.ReproError`: unparseable SQL is a
          ``ParseError``, an unknown bundle or missing snapshot a
          ``ServingError``, a bad plan a ``PlanError`` — the library
          raises its hierarchy for everything deterministic)
          propagate untouched.  Replicas are identical, so these
          would fail the same way everywhere, and a single bad client
          must not be able to eject healthy replicas three requests at
          a time.
        - **Unexpected exceptions** (a ``TypeError`` from a malformed
          query object, a numpy shape error) retry on the next
          replica — cheap, bounded, and it rescues transient
          replica-local corruption — but do *not* charge health: they
          may be deterministic request poison, and a poison request
          must never eject replicas.
        """
        if isinstance(exc, (ShardDownError, WorkerTimeoutError)):
            if self.router.record_failure(replica_id):
                self._emit_ejected(replica_id, "health")
            return isinstance(exc, ShardDownError)
        return not isinstance(exc, ReproError)

    def _with_failover(self, key: str, call, release_on_success: bool = True):
        """Run ``call(replica)`` on *key*'s replica, failing over down
        the tenant's rendezvous preference chain as :meth:`_classify`
        decides.  If every replica fails, the last error is chained
        into the raised :class:`ClusterError`.  **Overload**
        (:class:`ShardOverloadError`) does not fail over: shedding is
        deliberate degradation, and spilling a saturated tenant onto
        other tenants' replicas would defeat the isolation the
        replicas exist to provide.

        ``release_on_success=False`` transfers ownership of the
        admission slot *and* of success/failure health recording to
        the successful ``call``, which must resolve it through
        :meth:`_settle` (the async path holds the slot, and judges
        health, at Future resolution — recording a submission as a
        success here would reset the failure streak before the
        previous future's verdict arrived, and a sick replica would
        never accumulate enough consecutive failures to be ejected).
        Every failure path still releases and records here.

        With a tracer attached, the whole attempt chain runs under one
        ``route`` span annotated with the tenant, the serving worker
        and whether failover rerouted it.
        """
        excluded: Set[str] = set()
        rerouted = False
        last_error: Optional[Exception] = None
        with open_span(self.tracer, "route", kind="route") as span:
            span.annotate(tenant=key)
            while True:
                try:
                    replica_id = self.router.shard_for(key, exclude=excluded)
                except ClusterError:
                    self.stats.count_exhausted()
                    raise ClusterError(
                        f"request for tenant {key!r} failed on every alive worker"
                    ) from last_error
                admission = self._admission[replica_id]
                if not admission.try_acquire():
                    self.events.emit(
                        "admission_shed", worker=replica_id, tenant=key
                    )
                    raise ShardOverloadError(
                        f"worker {replica_id!r} is at its admission limit "
                        f"({admission.max_inflight} in flight); request shed"
                    )
                try:
                    value = call(self._replica(replica_id))
                except Exception as exc:
                    admission.release()
                    if not self._classify(replica_id, exc):
                        raise
                    last_error = exc
                    excluded.add(replica_id)
                    rerouted = True
                    continue
                if release_on_success:
                    admission.release()
                    self.router.record_success(replica_id)
                self.stats.count_routed(replica_id)
                if rerouted:
                    self.stats.count_reroute()
                span.annotate(worker=replica_id, rerouted=rerouted)
                return value

    def _settle(self, replica_id: str, done: Future) -> Optional[BaseException]:
        """Done-callback of a request routed with
        ``release_on_success=False``: release its slot (it rode with
        the request, which is what bounds the async backlog), judge
        health by :meth:`_classify` unless it was cancelled, and
        return its error (None on success or cancellation)."""
        self._admission[replica_id].release()
        if done.cancelled():
            return None
        exc = done.exception()
        if exc is None:
            self.router.record_success(replica_id)
        else:
            self._classify(replica_id, exc)
        return exc

    # ------------------------------------------------------------------
    # operations / introspection / lifecycle
    # ------------------------------------------------------------------
    def eject(self, replica_id: str) -> None:
        """Remove *replica_id* from routing immediately (no failures
        needed — an operator or external health probe decision; a
        worker process keeps running until ``close()``)."""
        self.router.eject(replica_id)
        self._emit_ejected(replica_id, "operator")

    def counters(self) -> Dict[str, object]:
        """Machine-readable counter snapshot for the whole tier.

        A thin view over :attr:`metrics`: ``cluster`` carries
        routing/admission/health totals, then come the subclass's own
        sections (``workers``/``supervisor`` on the process tier),
        ``events`` and — when tracing — ``tracer``.  The same registry renders the
        Prometheus exposition.
        """
        return self.metrics.sections_snapshot()

    def report(self) -> str:
        """Human-readable per-replica routing/health/admission report,
        rendered from the same registry snapshot :meth:`counters`
        serves."""
        from ..eval.reporting import render_cluster_report

        cluster = self.metrics.sections_snapshot()["cluster"]
        rows = [
            (
                replica_id,
                "up" if info["alive"] else "down",
                info["routed"],
                info["failures"],
                info["admission"]["shed"],
                info["admission"]["peak_inflight"],
            )
            for replica_id, info in sorted(cluster["per_shard"].items())
        ]
        totals = {
            "reroutes": cluster["reroutes"],
            "exhausted": cluster["exhausted"],
            "ejections": cluster["ejections"],
        }
        return render_cluster_report(rows, totals)

    def __enter__(self):
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` the tier."""
        self.close()


__all__ = ["ClusterStats", "ReplicaTier"]
