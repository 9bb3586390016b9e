"""`ProcClusterService` — the replica tier behind the service API.

Every replica is a real worker process with its own interpreter (own
GIL), fed over the :mod:`.protocol` frame socket and supervised by
:class:`~repro.cluster.proc.supervisor.ProcSupervisor`.  Replicas in
one interpreter would share its GIL and add only routing, so this is
the one replica tier; a single ``CostService`` is the in-process
alternative.  Workers run no adaptation loop, so the tier takes no
feedback: drift-driven refits run on an in-process ``CostService``.

State flows one way.  The parent keeps a hidden **template**
``CostService`` that never serves requests: ``deploy``/``restore``
mutate the template, and its full state is encoded once into a
checkpoint **image** (:func:`~repro.persist.encode_checkpoint`).  The
image is the ``sync`` frame's tail, the header carrying only the
``generation``; with a spool set, the same bytes are the spool's next
checkpoint file.  Every worker installs it through
:func:`~repro.persist.decode_checkpoint`, the decode that loads a
checkpoint file, with every hash verified.  A sync frame holds its own
bytes, so a worker revived during a deploy installs one whole
generation, whichever it was handed.  Generations are drawn with the
template snapshot in one critical section, and only a newer one
becomes current, so concurrent deploys publish in snapshot order; a
worker acknowledges but does not install a generation older than its
own.  Every live worker's ``sync`` is sent before any reply is
awaited.  Because the persist codec is byte-exact for float64 weights,
a worker's predictions are **bit-identical** to an in-process service
holding the same bundles — asserted by the equivalence tests.

Request routing lives in the process-free
:class:`~repro.cluster.tier.ReplicaTier` core — rendezvous-hashed
tenant affinity, per-worker admission gates, and one failure
classification:
a dead worker (:class:`~repro.errors.WorkerDiedError`, a
:class:`~repro.errors.ShardDownError`) charges health and fails over;
request-shaped :class:`~repro.errors.ReproError` propagates; overload
sheds without failover; a worker that answers nothing within the
deadline raises :class:`~repro.errors.WorkerTimeoutError` without
failover (it may merely be slow — the supervisor's heartbeat, not the
request path, decides whether it lives).  A request's queries and
environment are encoded once, into a :func:`~.protocol.encode_request`
blob, *before* routing: a failover resends the same bytes, and a
request the codec cannot encode fails with a typed
:class:`~repro.errors.ProtocolError` without touching any worker.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ...errors import ClusterError, ReproError, ShardDownError
from ...obs import EventLog, MetricsRegistry
from ...obs.trace import Tracer
from ...obs.lockwatch import make_lock
from ...persist import encode_checkpoint, service_state, write_retained_bytes
from ...serving import CostService, EstimatorBundle
from ..admission import AdmissionController
from ..tier import ReplicaTier
from . import protocol
from .supervisor import SERVICE_KNOBS, ProcConfig, ProcSupervisor, WorkerHandle


class ProcClusterService(ReplicaTier):
    """N worker *processes* behind the single-service API."""

    def __init__(
        self,
        worker_count: int = 2,
        config: Optional[ProcConfig] = None,
        max_inflight_per_worker: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ):
        """Spawn the fleet (cold) and start supervision.

        *config* carries everything the workers are built from: its
        ``service`` knobs (``cache_capacity``, ``batch_max``, ...) are
        shipped to every worker, and the hidden template service is
        built from the same knobs so the state it publishes matches
        what workers expect.  A key outside
        :data:`~.supervisor.SERVICE_KNOBS` raises
        :class:`~repro.errors.ClusterError` before any worker spawns.
        Every worker starts empty and gets state only from ``sync``
        frames.  Its ``checkpoint_dir`` enables the persist spool:
        every deploy/restore writes the published image there as a
        retained checkpoint.  The spool is write-only; a new tier over
        it serves nothing until :meth:`restore` reads it back.
        """
        config = config or ProcConfig()
        unknown = [key for key in config.service if key not in SERVICE_KNOBS]
        if unknown:
            raise ClusterError(
                f"unknown ProcConfig.service key(s) {unknown}; "
                f"accepted: {', '.join(SERVICE_KNOBS)}"
            )
        super().__init__(worker_count, metrics, tracer, events)
        self.config = config
        #: The hidden state-authority service (never serves requests).
        self.template = CostService(
            metrics=MetricsRegistry(),
            tracer=None,
            **self.config.service,
        )
        self._admission = {
            worker_id: AdmissionController(max_inflight_per_worker)
            for worker_id in self.router.shard_ids()
        }
        #: Orders generations: the draw and the template snapshot.
        self._publish_lock = make_lock("proc.publish")
        #: Orders installs: the spool write and ``_current_sync``.
        self._install_lock = make_lock("proc.install")
        self._generation = 0
        #: ``(generation, image)`` every worker syncs to.
        self._current_sync: Optional[Tuple[int, bytes]] = None
        self._closed = False
        self.supervisor = ProcSupervisor(
            self.config,
            on_death=self._on_worker_death,
            on_revived=self._on_worker_revived,
            on_ejected=self._on_worker_ejected,
        )
        try:
            for worker_id in self.router.shard_ids():
                handle = WorkerHandle(worker_id, self.config)
                handle.spawn()
                self.supervisor.adopt(handle)
                self.events.emit(
                    "worker_spawned", worker=worker_id, pid=handle.pid
                )
        except ReproError:
            self.close()
            raise
        self.supervisor.start()
        # ``workers`` folds each worker's last pulled counter snapshot
        # into the parent registry; ``supervisor`` counts deaths,
        # revives and ejections.
        self._register_collectors(
            workers=lambda: {
                worker_id: handle.cached_counters
                for worker_id, handle in sorted(self.supervisor.handles.items())
            },
            supervisor=self.supervisor.counters,
        )

    def _replica_status(self, worker_id: str) -> Dict[str, object]:
        """The worker's pid and supervisor state (``"gone"``: no handle)."""
        handle = self.supervisor.handles.get(worker_id)
        return {
            "pid": handle.pid if handle is not None else None,
            "state": handle.state if handle is not None else "gone",
        }

    # ------------------------------------------------------------------
    # state publication
    # ------------------------------------------------------------------
    def _publish(self) -> None:
        """Encode the template's full state as the next image and make
        it current, unless a newer generation already is.

        The generation is drawn with the snapshot, so generation order
        is snapshot order; the encode runs outside both locks.  The
        spool checkpoint is written under the install lock, which only
        publishers take, so the newest spool file is always the
        current image.  It is written before the install: a failed
        write raises before the new generation is current, so a
        revived worker never re-syncs to a generation the live workers
        lack.
        """
        with self._publish_lock:
            self._generation += 1
            generation = self._generation
            state = service_state(self.template)
        image = encode_checkpoint(state, meta={"kind": "cost_service"})
        with self._install_lock:
            current = self._current_sync
            if current is not None and current[0] > generation:
                return
            if self.config.checkpoint_dir:
                write_retained_bytes(
                    image, self.config.checkpoint_dir, retain=3
                )
            self._current_sync = (generation, image)

    def _sync(self, handles: Sequence[WorkerHandle]) -> None:
        """Install the current image in *handles*.

        Every ``sync`` is sent before any reply is awaited, so the
        workers install in parallel; the first failure raises once
        its reply (or deadline) is reached.
        """
        current = self._current_sync
        if current is None:
            return
        generation, image = current
        timeout = self.config.sync_timeout_s
        sent = [
            (handle, handle.submit(
                "sync", {"generation": generation}, image, timeout_s=timeout
            ))
            for handle in handles
        ]
        for handle, future in sent:
            handle.await_reply(future, "sync", timeout)

    def _sync_all(self) -> None:
        """Install the current image in every live worker."""
        self._sync(
            [h for h in list(self.supervisor.handles.values()) if h.alive]
        )

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(
        self, bundle: EstimatorBundle, name: Optional[str] = None
    ) -> str:
        """Deploy *bundle* to every worker under *name* (full
        replication: any worker can serve any tenant, so failover needs
        no state transfer) by updating the template and re-publishing
        its state.

        A publish that fails (a spool that cannot be written raises
        :class:`~repro.errors.CheckpointError`) undoes the deploy, so
        the name ends as it was: a new name is neither listed nor
        shipped by a later publish, a redeployed one keeps its previous
        bundle.
        """
        key = name or bundle.name
        registry = self.template.registry
        previous = registry.get(key) if key in registry else None
        self.template.deploy(bundle, name=key)
        with self._lock:
            listed = key in self._deployed
            if not listed:
                self._deployed.append(key)
        try:
            self._publish()
        except ReproError:
            registry.reinstate(key, previous)
            if not listed:
                with self._lock:
                    self._deployed.remove(key)
            raise
        self._sync_all()
        self.events.emit("bundle_deployed", bundle=key)
        return key

    # ------------------------------------------------------------------
    # routing core
    # ------------------------------------------------------------------
    def worker_of(self, tenant: str) -> str:
        """The worker currently serving *tenant* (health-aware)."""
        return self.router.shard_for(tenant)

    def _replica(self, worker_id: str) -> WorkerHandle:
        """The worker's *current* handle (revives swap in a new one);
        raises :class:`ShardDownError` when it is not serving."""
        handle = self.supervisor.handles.get(worker_id)
        if handle is None or not handle.alive:
            raise ShardDownError(f"worker {worker_id!r} is not serving")
        return handle

    # ------------------------------------------------------------------
    # public estimation API (CostService-shaped)
    # ------------------------------------------------------------------
    def estimate(
        self,
        query,
        env,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> float:
        """Estimated latency (ms) of *query* under *env*, served by the
        tenant's worker process (with failover).  A request error in
        the worker, such as an unknown bundle, crosses back typed
        (request-shaped: no health charge, no failover)."""
        key, name = self._resolve_key(bundle, tenant)
        payload = {"bundle": name}
        blob = protocol.encode_request([query], env)

        def _call(handle: WorkerHandle) -> float:
            header, _tail = handle.rpc("estimate", payload, blob)
            return float(header["value"])

        return self._with_failover(key, _call)

    def estimate_many(
        self,
        queries: Sequence,
        env,
        bundle: Optional[str] = None,
        batch_size: int = 64,
        tenant: Optional[str] = None,
    ) -> np.ndarray:
        """Batched estimates, routed as one unit to the tenant's
        worker; predictions cross back as raw float64 (bit-exact)."""
        key, name = self._resolve_key(bundle, tenant)
        payload = {"bundle": name, "batch_size": batch_size}
        blob = protocol.encode_request(queries, env)

        def _call(handle: WorkerHandle) -> np.ndarray:
            header, tail = handle.rpc("estimate_many", payload, blob)
            return protocol.floats_from_tail(header.get("values"), tail)

        return self._with_failover(key, _call)

    def estimate_async(
        self,
        query,
        env,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Future:
        """Submit *query* to the tenant's worker; returns a Future.

        Submission fails over like :meth:`estimate`; once the frame is
        on the wire the admission slot rides with the request and is
        released — and worker health judged by the failure table — when
        the reply (or the deadline sweeper, or a death) resolves it.
        """
        key, name = self._resolve_key(bundle, tenant)
        payload = {"bundle": name}
        blob = protocol.encode_request([query], env)

        def _submit(handle: WorkerHandle) -> Future:
            inner = handle.submit("estimate", payload, blob)
            outer: Future = Future()

            def _resolve(done: Future) -> None:
                exc = self._settle(handle.worker_id, done)
                if done.cancelled():
                    outer.cancel()
                elif exc is not None:
                    outer.set_exception(exc)
                else:
                    header, _tail = done.result()
                    try:
                        outer.set_result(float(header["value"]))
                    except (KeyError, TypeError, ValueError) as bad:
                        outer.set_exception(
                            ClusterError(f"malformed estimate reply: {bad}")
                        )

            inner.add_done_callback(_resolve)
            return outer

        return self._with_failover(key, _submit, release_on_success=False)

    # ------------------------------------------------------------------
    # worker lifecycle (failure injection + operations)
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL a worker's real pid; the supervisor's sentinel will
        certify the death and run revive-vs-eject."""
        handle = self.worker(worker_id)
        self.events.emit("worker_killed", worker=worker_id, pid=handle.pid)
        handle.kill()

    def worker(self, worker_id: str) -> WorkerHandle:
        """The :class:`WorkerHandle` for *worker_id* (introspection)."""
        handle = self.supervisor.handles.get(worker_id)
        if handle is None:
            raise ClusterError(
                f"unknown worker {worker_id!r} "
                f"(workers: {sorted(self.supervisor.handles)})"
            )
        return handle

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
            self._sync([handle])
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
        self._emit_ejected(handle.worker_id, "revives")

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory, retain: int = 3):
        """Write the template's full state as a retained checkpoint
        under *directory* (the state every worker is serving)."""
        from ...persist import save_service_checkpoint

        return save_service_checkpoint(self.template, directory, retain=retain)

    def restore(self, directory) -> bool:
        """Resume the tier from the newest loadable checkpoint under
        *directory* (a spool included): restore the template, then
        re-publish and re-sync every worker.  False → nothing loadable
        (nothing changed).

        A publish that fails (a spool that cannot be written raises
        :class:`~repro.errors.CheckpointError`) undoes the restore the
        way a failed :meth:`deploy` is undone: every name keeps the
        bundle it had, and :meth:`deployed_names` its deploy order.
        The template's feature and template caches are put back as
        they were, so no later image ships the checkpoint's entries.
        """
        from ...persist import restore_service_checkpoint

        registry = self.template.registry
        previous = {name: registry.get(name) for name in registry.names()}
        caches = (self.template.cache, self.template.template_cache)
        cached = [cache.export_entries() for cache in caches]
        with self._lock:
            deployed = list(self._deployed)
        restored, _path = restore_service_checkpoint(
            self.template, str(directory)
        )
        if not restored:
            return False
        with self._lock:
            self._deployed = registry.names()
        try:
            self._publish()
        except ReproError:
            for name in set(registry.names()) | set(previous):
                registry.reinstate(name, previous.get(name))
            for cache, entries in zip(caches, cached, strict=True):
                cache.clear()
                cache.restore_entries(entries)
            with self._lock:
                self._deployed = deployed
            raise
        self._sync_all()
        self.events.emit("tier_restored", directory=str(directory))
        return True

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire the fleet: stop supervision, shut workers down
        (gracefully, then by force) and close the template."""
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
        self.template.close()
