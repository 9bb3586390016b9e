"""`ProcClusterService` — the process tier behind the service API.

The thread tier (:class:`~repro.cluster.ClusterService`) multiplies
*isolation*; this tier multiplies *hardware*: every replica is a real
worker process with its own interpreter (own GIL), fed over the
:mod:`.protocol` frame socket and supervised by
:class:`~repro.cluster.proc.supervisor.ProcSupervisor`.

State flows one way.  The parent keeps a hidden **template**
``CostService`` that never serves requests: ``deploy``/``restore``
mutate the template, its full state is encoded once with the
``repro.persist`` codec, the array blobs are published read-only via
:mod:`multiprocessing.shared_memory` (N workers, one physical copy of
the weights) and each worker installs the manifest over a ``sync``
frame.  Because the persist codec is byte-exact for float64 weights,
a worker's predictions are **bit-identical** to an in-process service
holding the same bundles — asserted by the equivalence tests.

Request routing mirrors the thread tier exactly — rendezvous-hashed
tenant affinity, per-worker admission gates, and the same failure
classification: a dead worker (:class:`~repro.errors.WorkerDiedError`,
a :class:`~repro.errors.ShardDownError`) charges health and fails
over; request-shaped :class:`~repro.errors.ReproError` propagates;
overload sheds without failover; a worker that answers nothing within
the deadline raises :class:`~repro.errors.WorkerTimeoutError` without
failover (it may merely be slow — the supervisor's heartbeat, not the
request path, decides whether it lives).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...errors import (
    ClusterError,
    ReproError,
    ShardDownError,
    ShardOverloadError,
    WorkerTimeoutError,
)
from ...obs import EventLog, MetricsRegistry
from ...obs.lockwatch import make_lock
from ...obs.trace import Tracer, current_tracer
from ...persist import BlobStore, encode_state, service_state, write_retained
from ...serving import CostService, EstimatorBundle
from ..admission import AdmissionController
from ..router import ShardRouter
from ..service import ClusterStats
from . import protocol
from .shm import BlobSegment, cleanup_orphans, pack_blobs
from .supervisor import ProcConfig, ProcSupervisor, WorkerHandle


class ProcClusterService:
    """N worker *processes* behind the single-service API."""

    def __init__(
        self,
        worker_count: int = 2,
        worker_ids: Optional[Sequence[str]] = None,
        config: Optional[ProcConfig] = None,
        failure_threshold: int = 3,
        max_inflight_per_worker: int = 64,
        checkpoint_spool=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        **service_kwargs,
    ):
        """Spawn the fleet (cold) and start supervision.

        *service_kwargs* are JSON-able ``CostService`` knobs shipped to
        every worker (``cache_capacity``, ``batch_max``, ...); the
        hidden template service is built from the same knobs so the
        state it publishes matches what workers expect.
        *checkpoint_spool* (a directory) enables the persist spool:
        every deploy/restore writes a retained checkpoint there and
        revived workers warm-boot from it before their first sync.
        """
        if worker_ids is None:
            if worker_count < 1:
                raise ClusterError(
                    f"worker_count must be >= 1, got {worker_count}"
                )
            worker_ids = [f"worker-{i}" for i in range(worker_count)]
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.tracer = tracer if tracer is not None else current_tracer()
        self.config = config or ProcConfig()
        if service_kwargs:
            merged = dict(self.config.service)
            merged.update(service_kwargs)
            self.config.service = merged
        self._spool = str(checkpoint_spool) if checkpoint_spool else None
        if self._spool and not self.config.checkpoint_dir:
            self.config.checkpoint_dir = self._spool
        #: The hidden state-authority service (never serves requests).
        self.template = CostService(
            metrics=MetricsRegistry(),
            tracer=None,
            **{
                k: v
                for k, v in self.config.service.items()
                if k
                in (
                    "cache_capacity",
                    "batch_max",
                    "batch_window_s",
                    "snapshot_scale",
                )
            },
        )
        self.router = ShardRouter(
            worker_ids, failure_threshold=failure_threshold
        )
        self.stats = ClusterStats(self.router.shard_ids())
        self._admission: Dict[str, AdmissionController] = {
            worker_id: AdmissionController(max_inflight_per_worker)
            for worker_id in self.router.shard_ids()
        }
        self._lock = make_lock("cluster.proc.service")
        self._deployed: List[str] = []
        self._generation = 0
        self._segment: Optional[BlobSegment] = None
        self._current_sync: Optional[Tuple[Dict[str, object], bytes]] = None
        self._closed = False
        cleanup_orphans()
        self.supervisor = ProcSupervisor(
            self.config,
            on_death=self._on_worker_death,
            on_revived=self._on_worker_revived,
            on_ejected=self._on_worker_ejected,
        )
        try:
            for worker_id in self.router.shard_ids():
                handle = WorkerHandle(worker_id, self.config)
                hello = handle.spawn()
                self.supervisor.adopt(handle)
                self.events.emit(
                    "worker_spawned",
                    worker=worker_id,
                    pid=handle.pid,
                    warm=bool(hello.get("warm")),
                )
        except ReproError:
            self.close()
            raise
        self.supervisor.start()
        self._register_collectors()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _register_collectors(self) -> None:
        """Register the tier's sections into :attr:`metrics`:
        ``cluster`` (routing/health/admission, thread-tier shaped),
        ``workers`` (each worker's last pulled counter snapshot folded
        into the parent registry), ``supervisor`` (deaths, revives,
        ejections), ``events`` and — when tracing — ``tracer``."""
        register = self.metrics.register_collector
        register("cluster", self._cluster_section)
        register(
            "workers",
            lambda: {
                worker_id: handle.cached_counters
                for worker_id, handle in sorted(
                    self.supervisor.handles.items()
                )
            },
        )
        register("supervisor", self.supervisor.counters)
        register("events", self.events.counters)
        register(
            "tracer",
            lambda: None if self.tracer is None else self.tracer.counters(),
        )

    def _cluster_section(self) -> Dict[str, object]:
        """The ``cluster`` collector (same shape as the thread tier,
        so :func:`~repro.eval.reporting.render_cluster_report` and the
        bench counters-delta tooling work unchanged)."""
        health = self.router.health()
        routing = self.stats.snapshot()
        routed: Dict[str, int] = routing["routed"]
        per_shard: Dict[str, object] = {}
        shed_total = 0
        for worker_id in sorted(self._admission):
            admission = self._admission[worker_id].counters()
            shed_total += int(admission["shed"])
            handle = self.supervisor.handles.get(worker_id)
            per_shard[worker_id] = {
                "admission": admission,
                "failures": health[worker_id].failures,
                "ejections": health[worker_id].ejections,
                "alive": health[worker_id].alive,
                "routed": routed.get(worker_id, 0),
                "pid": handle.pid if handle is not None else None,
                "state": handle.state if handle is not None else "gone",
            }
        return {
            "routed": routed,
            "reroutes": routing["reroutes"],
            "exhausted": routing["exhausted"],
            "shed": shed_total,
            "ejections": sum(h.ejections for h in health.values()),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # state publication
    # ------------------------------------------------------------------
    def _publish(self) -> Tuple[Dict[str, object], bytes]:
        """Encode the template's full state and publish its blobs.

        Returns the ``sync`` payload + tail.  Blobs go through shared
        memory when the host supports it (one copy for N workers); the
        fallback packs them inline in the frame tail — same bytes,
        just not shared.
        """
        state = service_state(self.template)
        store = BlobStore()
        tree = encode_state(state, store)
        with self._lock:
            self._generation += 1
            generation = self._generation
        payload: Dict[str, object] = {
            "manifest": tree,
            "shm": None,
            "generation": generation,
        }
        tail = b""
        segment: Optional[BlobSegment] = None
        if store.blobs:
            try:
                segment = BlobSegment.create(store.blobs, generation)
                payload["shm"] = segment.name
            except ReproError:
                tail = pack_blobs(store.blobs)
        previous, self._segment = self._segment, segment
        self._current_sync = (payload, tail)
        if self._spool:
            write_retained(
                state, self._spool, retain=3, meta={"kind": "cost_service"}
            )
        if previous is not None:
            # POSIX keeps existing worker mappings valid after unlink;
            # the old generation's memory frees as workers re-sync.
            previous.close()
        return payload, tail

    def _sync_worker(self, handle: WorkerHandle) -> None:
        """Install the current published state in *handle*."""
        if self._current_sync is None:
            return
        payload, tail = self._current_sync
        handle.rpc(
            "sync", payload, tail, timeout_s=self.config.sync_timeout_s
        )
        handle.generation = int(payload["generation"])

    def _sync_all(self) -> None:
        """Install the current published state in every live worker."""
        for handle in list(self.supervisor.handles.values()):
            if handle.alive:
                self._sync_worker(handle)

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(
        self, bundle: EstimatorBundle, name: Optional[str] = None
    ) -> str:
        """Deploy *bundle* to every worker under *name* (full
        replication, exactly like the thread tier) by updating the
        template and re-publishing its state."""
        key = name or bundle.name
        self.template.deploy(bundle, name=key)
        with self._lock:
            if key not in self._deployed:
                self._deployed.append(key)
        self._publish()
        self._sync_all()
        self.events.emit("bundle_deployed", bundle=key)
        return key

    def deployed_names(self) -> List[str]:
        """Every deployed bundle name, in deployment order."""
        with self._lock:
            return list(self._deployed)

    def _resolve_key(
        self,
        bundle: Optional[str],
        tenant: Optional[str],
        backend: Optional[str] = None,
    ) -> Tuple[str, Optional[str]]:
        """(routing key, bundle name), thread-tier semantics.

        Backend-tagged requests with no explicit bundle defer bundle
        selection to each worker's in-process
        :class:`~repro.serving.routing.BackendRouter` (deterministic,
        so every worker picks the same bundle) and key affinity on the
        tenant or the backend tag — identical to the thread tier.
        """
        if backend is not None and bundle is None:
            return (tenant or f"backend:{backend}"), None
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

    # ------------------------------------------------------------------
    # routing core
    # ------------------------------------------------------------------
    def worker_of(self, tenant: str) -> str:
        """The worker currently serving *tenant* (health-aware)."""
        return self.router.shard_for(tenant)

    def _with_failover(self, key: str, call, release_on_success: bool = True):
        """Run ``call(handle, admission)`` on *key*'s worker, failing
        over down the rendezvous chain under the thread tier's exact
        classification rules (see the module docstring)."""
        tracer = self.tracer
        if tracer is None:
            return self._failover_loop(key, call, release_on_success, None)
        with tracer.start_span("route", kind="route") as span:
            span.annotate(tenant=key, tier="proc")
            return self._failover_loop(key, call, release_on_success, span)

    def _failover_loop(self, key: str, call, release_on_success: bool, span):
        """The retry chain of :meth:`_with_failover`."""
        excluded: Set[str] = set()
        rerouted = False
        last_error: Optional[Exception] = None
        while True:
            try:
                worker_id = self.router.shard_for(key, exclude=excluded)
            except ClusterError:
                self.stats.count_exhausted()
                raise ClusterError(
                    f"request for tenant {key!r} failed on every "
                    "alive worker"
                ) from last_error
            handle = self.supervisor.handles.get(worker_id)
            admission = self._admission[worker_id]
            if not admission.try_acquire():
                self.events.emit(
                    "admission_shed", worker=worker_id, tenant=key
                )
                raise ShardOverloadError(
                    f"worker {worker_id!r} is at its admission limit "
                    f"({admission.max_inflight} in flight); request shed"
                )
            try:
                if handle is None or not handle.alive:
                    raise ShardDownError(
                        f"worker {worker_id!r} is not serving"
                    )
                value = call(handle, admission)
            except WorkerTimeoutError:
                # Slow is not dead: charge health (a wedged worker
                # drifts toward ejection) but never retry elsewhere —
                # the request may still complete on the worker.
                admission.release()
                if self.router.record_failure(worker_id):
                    self.events.emit(
                        "worker_ejected", worker=worker_id, reason="health"
                    )
                raise
            except ShardDownError as exc:
                admission.release()
                if self.router.record_failure(worker_id):
                    self.events.emit(
                        "worker_ejected", worker=worker_id, reason="health"
                    )
                last_error = exc
                excluded.add(worker_id)
                rerouted = True
                continue
            except ReproError:
                admission.release()
                raise
            except Exception as exc:
                admission.release()
                last_error = exc
                excluded.add(worker_id)
                rerouted = True
                continue
            if release_on_success:
                admission.release()
                self.router.record_success(worker_id)
            self.stats.count_routed(worker_id)
            if rerouted:
                self.stats.count_reroute()
            if span is not None:
                span.annotate(worker=worker_id, rerouted=rerouted)
            return value

    # ------------------------------------------------------------------
    # public estimation API (CostService-shaped)
    # ------------------------------------------------------------------
    def estimate(
        self,
        query,
        env,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> float:
        """Estimated latency (ms) of *query* under *env*, served by the
        tenant's worker process (with failover).  A ``backend`` tag
        rides the wire and routes inside the worker exactly as the
        thread tier routes in-process; an unknown tag crosses back as
        a typed :class:`~repro.errors.UnknownBackendError` (request-
        shaped: no health charge, no failover)."""
        key, name = self._resolve_key(bundle, tenant, backend)
        payload = {
            "bundle": name,
            "backend": backend,
            "query": protocol.query_to_wire(query),
            "env": protocol.env_to_wire(env),
        }

        def _call(handle: WorkerHandle, admission) -> float:
            header, _tail = handle.rpc("estimate", payload)
            return float(header["value"])

        return self._with_failover(key, _call)

    def estimate_many(
        self,
        queries: Sequence,
        env,
        bundle: Optional[str] = None,
        batch_size: int = 64,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Batched estimates, routed as one unit to the tenant's
        worker; predictions cross back as raw float64 (bit-exact)."""
        key, name = self._resolve_key(bundle, tenant, backend)
        payload = {
            "bundle": name,
            "backend": backend,
            "queries": [protocol.query_to_wire(q) for q in queries],
            "env": protocol.env_to_wire(env),
            "batch_size": batch_size,
        }

        def _call(handle: WorkerHandle, admission) -> np.ndarray:
            header, tail = handle.rpc("estimate_many", payload)
            return protocol.floats_from_tail(header.get("values"), tail)

        return self._with_failover(key, _call)

    def estimate_async(
        self,
        query,
        env,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> Future:
        """Submit *query* to the tenant's worker; returns a Future.

        Submission fails over like :meth:`estimate`; once the frame is
        on the wire the admission slot rides with the request and is
        released — and worker health judged, thread-tier style — when
        the reply (or the deadline sweeper, or a death) resolves it.
        """
        key, name = self._resolve_key(bundle, tenant, backend)
        payload = {
            "bundle": name,
            "backend": backend,
            "query": protocol.query_to_wire(query),
            "env": protocol.env_to_wire(env),
        }

        def _submit(handle: WorkerHandle, admission) -> Future:
            inner = handle.submit("estimate", payload)
            outer: Future = Future()

            def _resolve(done: Future) -> None:
                admission.release()
                if done.cancelled():
                    outer.cancel()
                    return
                exc = done.exception()
                if exc is None:
                    self.router.record_success(handle.worker_id)
                    header, _tail = done.result()
                    try:
                        outer.set_result(float(header["value"]))
                    except (KeyError, TypeError, ValueError) as bad:
                        outer.set_exception(
                            ClusterError(f"malformed estimate reply: {bad}")
                        )
                    return
                # A dead worker and a missed deadline both charge
                # health (a wedged worker drifts toward ejection);
                # neither fails over once the frame is on the wire.
                if isinstance(exc, (ShardDownError, WorkerTimeoutError)):
                    if self.router.record_failure(handle.worker_id):
                        self.events.emit(
                            "worker_ejected",
                            worker=handle.worker_id,
                            reason="health",
                        )
                outer.set_exception(exc)

            inner.add_done_callback(_resolve)
            return outer

        return self._with_failover(key, _submit, release_on_success=False)

    def record_feedback(
        self,
        query,
        env,
        actual_ms: Optional[float] = None,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        """Report an actual runtime to the tenant worker's adaptation
        loop (worker-local, exactly like the thread tier's per-shard
        loops)."""
        key, name = self._resolve_key(bundle, tenant, backend)
        payload = {
            "bundle": name,
            "backend": backend,
            "query": protocol.query_to_wire(query),
            "env": protocol.env_to_wire(env),
            "actual_ms": actual_ms,
        }

        def _call(handle: WorkerHandle, admission) -> None:
            handle.rpc("record_feedback", payload)

        self._with_failover(key, _call)

    # ------------------------------------------------------------------
    # worker lifecycle (failure injection + operations)
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL a worker's real pid; the supervisor's sentinel will
        certify the death and run revive-vs-eject."""
        handle = self._handle(worker_id)
        self.events.emit("worker_killed", worker=worker_id, pid=handle.pid)
        handle.kill()

    def eject(self, worker_id: str) -> None:
        """Remove a worker from routing immediately (operator
        decision; the process keeps running until :meth:`close`)."""
        self.router.eject(worker_id)
        self.events.emit(
            "worker_ejected", worker=worker_id, reason="operator"
        )

    def _handle(self, worker_id: str) -> WorkerHandle:
        handle = self.supervisor.handles.get(worker_id)
        if handle is None:
            raise ClusterError(
                f"unknown worker {worker_id!r} "
                f"(workers: {sorted(self.supervisor.handles)})"
            )
        return handle

    def worker(self, worker_id: str) -> WorkerHandle:
        """The :class:`WorkerHandle` for *worker_id* (introspection)."""
        return self._handle(worker_id)

    def wait_workers(
        self, count: Optional[int] = None, timeout_s: float = 30.0
    ) -> bool:
        """Block until *count* workers (default: all) are up; True on
        success.  Test/ops helper around revive convergence."""
        target = len(self.router.shard_ids()) if count is None else count
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            alive = sum(
                1 for h in self.supervisor.handles.values() if h.alive
            )
            if alive >= target:
                return True
            time.sleep(0.02)
        return False

    # ------------------------------------------------------------------
    # supervisor callbacks (monitor thread)
    # ------------------------------------------------------------------
    def _on_worker_death(self, handle: WorkerHandle, reason: str) -> None:
        """Certified death: pull routing immediately."""
        self.router.eject(handle.worker_id)
        self.events.emit(
            "worker_died", worker=handle.worker_id, reason=reason
        )

    def _on_worker_revived(self, handle: WorkerHandle) -> None:
        """A respawned pid said hello: re-sync state, restore routing."""
        try:
            self._sync_worker(handle)
        except ReproError:
            # The replacement died before installing state; kill it so
            # the sentinel runs the death path (and burns a revive).
            self.events.emit(
                "worker_sync_failed", worker=handle.worker_id
            )
            handle.kill()
            return
        self.router.recover(handle.worker_id)
        self.events.emit(
            "worker_revived", worker=handle.worker_id, pid=handle.pid
        )

    def _on_worker_ejected(self, handle: WorkerHandle) -> None:
        """Revive budget exhausted: the worker is gone for good."""
        self.router.eject(handle.worker_id)
        self.events.emit(
            "worker_ejected", worker=handle.worker_id, reason="revives"
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory, retain: int = 3):
        """Write the template's full state as a retained checkpoint
        under *directory* (the state every worker is serving)."""
        from ...persist import save_service_checkpoint

        return save_service_checkpoint(self.template, directory, retain=retain)

    def restore(self, directory) -> bool:
        """Warm-boot the tier from the newest loadable checkpoint
        under *directory*: restore the template, then re-publish and
        re-sync every worker.  False → cold start (nothing changed)."""
        from ...persist import restore_service_checkpoint

        restored, _path = restore_service_checkpoint(
            self.template, str(directory)
        )
        if not restored:
            return False
        with self._lock:
            self._deployed = self.template.registry.names()
        self._publish()
        self._sync_all()
        self.events.emit("tier_restored", directory=str(directory))
        return True

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """Machine-readable counter snapshot for the whole tier (the
        ``workers`` section folds each worker's own counters, pulled
        over IPC by the supervisor, into this one registry)."""
        return self.metrics.sections_snapshot()

    def report(self) -> str:
        """Human-readable per-worker routing/health/admission report."""
        from ...eval.reporting import render_cluster_report

        cluster = self.metrics.sections_snapshot()["cluster"]
        rows = [
            (
                worker_id,
                "up" if info["alive"] else "down",
                info["routed"],
                info["failures"],
                info["admission"]["shed"],
                info["admission"]["peak_inflight"],
            )
            for worker_id, info in sorted(cluster["per_shard"].items())
        ]
        totals = {
            "reroutes": cluster["reroutes"],
            "exhausted": cluster["exhausted"],
            "ejections": cluster["ejections"],
        }
        return render_cluster_report(rows, totals)

    def close(self) -> None:
        """Retire the fleet: stop supervision, shut workers down
        (gracefully, then by force), unlink shared segments, close the
        template, and sweep any orphaned segments."""
        if self._closed:
            return
        self._closed = True
        if getattr(self, "supervisor", None) is not None:
            self.supervisor.stop()
            for handle in list(self.supervisor.handles.values()):
                if handle.state in ("up", "spawned", "broken"):
                    handle.request_stop()
                else:
                    handle.mark_dead(
                        ShardDownError("tier closed"), kill=True
                    )
        if self._segment is not None:
            self._segment.close()
            self._segment = None
        self.template.close()
        cleanup_orphans()

    def __enter__(self) -> "ProcClusterService":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` the tier."""
        self.close()
