"""The sharded, multi-replica serving tier behind one service API.

A single :class:`~repro.serving.CostService` owns every tenant: one
hot tenant saturates the batcher, the caches and the refit worker for
all of them.  :class:`ClusterService` is the horizontal answer — N
independent ``CostService`` replicas (each with its own registry,
caches, micro-batchers and adaptation loop), a
:class:`~repro.cluster.router.ShardRouter` consistent-hashing tenants
across them, and per-shard :class:`~repro.cluster.admission.AdmissionController`
gates so overload sheds at the door instead of collapsing the replica.

The facade speaks the same ``estimate`` / ``estimate_many`` /
``estimate_async`` / ``record_feedback`` / ``report`` API as a single
service, so the load generator, the bench scenarios and application
code cannot tell one replica from eight.  What they *can* observe:

- **Tenant affinity.** A tenant (its bundle name by default) always
  lands on the same shard, keeping that shard's feature cache and
  snapshot store warm for it.
- **Failover.** A request that fails on its shard is retried on the
  tenant's next-preferred replica; repeated failures eject the shard
  from routing, and by the rendezvous property only the ejected
  shard's tenants move.
- **Predictable overload.** A full shard sheds new requests
  immediately (:class:`~repro.errors.ShardOverloadError`, counted),
  rather than queueing them into a latency cliff — and never spills
  a hot tenant's overload onto other tenants' replicas.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..errors import ClusterError, ShardDownError
from ..obs import EventLog, MetricsRegistry
from ..obs.trace import Tracer
from ..serving import CostService, EstimatorBundle
from .admission import AdmissionController
from .tier import ClusterStats, ReplicaTier

#: Builds one replica; receives the shard id (for naming/logging).
ServiceFactory = Callable[[str], CostService]


class ClusterShard:
    """One replica: a shard id, its service, and its admission gate."""

    def __init__(
        self, shard_id: str, service: CostService, max_inflight: int
    ):
        """Wrap *service* as shard *shard_id* admitting *max_inflight*."""
        self.shard_id = shard_id
        self.service = service
        self.admission = AdmissionController(max_inflight)
        #: Simulates (or records) a crashed replica: requests fail at
        #: the shard boundary without touching the service.
        self.killed = False

    def check_up(self) -> None:
        """Raise :class:`ShardDownError` when the replica is killed."""
        if self.killed:
            raise ShardDownError(f"shard {self.shard_id!r} is down")


class ClusterService(ReplicaTier):
    """N ``CostService`` replicas behind the single-service API."""

    replica_kind = "shard"

    def __init__(
        self,
        shard_count: int = 2,
        shard_ids: Optional[Sequence[str]] = None,
        service_factory: Optional[ServiceFactory] = None,
        failure_threshold: int = 3,
        max_inflight_per_shard: int = 512,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        **service_kwargs,
    ):
        """Build the tier.

        *service_factory* creates each replica (default: a plain
        ``CostService(**service_kwargs)``).  Pass a factory when each
        shard needs its own ``SnapshotStore`` or adaptation config —
        anything passed through *service_kwargs* directly is shared by
        every replica.  *failure_threshold* consecutive failures eject
        a shard from routing; *max_inflight_per_shard* bounds each
        replica's concurrent admissions (excess is shed).

        The tier owns one :class:`~repro.obs.MetricsRegistry` (its
        ``cluster``/``shards`` sections back :meth:`counters` and
        :meth:`report`), one :class:`~repro.obs.EventLog` (shard
        kills/ejections/revivals/restarts, admission sheds) and —
        when tracing — one :class:`~repro.obs.Tracer` shared with every
        replica, so a routing hop span and the shard-side request span
        land in the same trace.
        """
        super().__init__(
            shard_count, shard_ids, failure_threshold, metrics, tracer, events
        )
        base_factory: ServiceFactory = service_factory or (
            lambda shard_id: CostService(**service_kwargs)
        )

        def factory(shard_id: str) -> CostService:
            """Build a replica tracing into the cluster's tracer
            (unless the custom factory wired one up itself), so
            routing spans parent the shard-side request spans."""
            service = base_factory(shard_id)
            if service.tracer is None and self.tracer is not None:
                service.tracer = self.tracer
            return service

        #: Kept for replica replacement: :meth:`restart_shard` builds
        #: the replacement service exactly like the original.
        self._factory = factory
        self._shards: Dict[str, ClusterShard] = {
            shard_id: ClusterShard(
                shard_id, factory(shard_id), max_inflight_per_shard
            )
            for shard_id in self.router.shard_ids()
        }
        self._admission = {
            shard_id: shard.admission for shard_id, shard in self._shards.items()
        }
        #: Last-deployed bundle object per name: a cold replica restart
        #: re-deploys these when no checkpoint (or a dead one) is
        #: available.
        self._bundle_objects: Dict[str, EstimatorBundle] = {}
        self._register_collectors(
            shards=lambda: {
                shard_id: shard.service.counters()
                for shard_id, shard in sorted(self._shards.items())
            }
        )

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(
        self, bundle: EstimatorBundle, name: Optional[str] = None
    ) -> str:
        """Deploy *bundle* to **every** shard under *name*.

        Full replication is what makes failover trivial: any shard can
        serve any tenant, so a re-routed request needs no state
        transfer — it just pays a cold cache on the new replica.
        Returns the deployed name (the routing key for this tenant).
        """
        key = name or bundle.name
        for shard in self._shards.values():
            shard.service.deploy(bundle, name=key)
        with self._lock:
            if key not in self._deployed:
                self._deployed.append(key)
            # Retain the bundle normalized to its routing key: an
            # aliased deploy (name != bundle.name) must not leave a
            # stale name on the retained copy, or a replica restart
            # would re-deploy it under cache/event/persist identities
            # that diverge from the key every live replica serves.
            self._bundle_objects[key] = (
                bundle if bundle.name == key else replace(bundle, name=key)
            )
        return key

    # ------------------------------------------------------------------
    # routing core
    # ------------------------------------------------------------------
    def shard_of(self, tenant: str) -> str:
        """The shard currently serving *tenant* (health-aware)."""
        return self.router.shard_for(tenant)

    def _replica(self, shard_id: str) -> ClusterShard:
        """The shard ``call`` receives; raises ShardDownError if killed."""
        shard = self._shards[shard_id]
        shard.check_up()
        return shard

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
        tenant's shard (with failover).  ``backend`` tags the request
        with its engine family; the shard service routes it (unknown
        tags raise :class:`~repro.errors.UnknownBackendError`, which —
        being request-shaped — never charges health or fails over)."""
        key, name = self._resolve_key(bundle, tenant, backend)
        return self._with_failover(
            key,
            lambda shard: shard.service.estimate(
                query, env, bundle=name, backend=backend
            ),
        )

    def estimate_many(
        self,
        queries: Sequence,
        env,
        bundle: Optional[str] = None,
        batch_size: int = 64,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Batched estimates, routed as one unit to the tenant's shard."""
        key, name = self._resolve_key(bundle, tenant, backend)
        return self._with_failover(
            key,
            lambda shard: shard.service.estimate_many(
                queries, env, bundle=name, batch_size=batch_size,
                backend=backend,
            ),
        )

    def estimate_async(
        self,
        query,
        env,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ):
        """Queue *query* on the tenant shard's micro-batcher; returns a
        Future.  Submission (parse/plan/featurize) fails over like
        :meth:`estimate`; a failure *after* submission resolves the
        Future with the error, and the shard's health is judged by the
        same failure table.

        The admission slot is held until the Future resolves — that is
        what bounds the batcher queue on the async path, so a flood of
        submissions sheds at the door instead of growing an unbounded
        backlog of pending futures."""
        key, name = self._resolve_key(bundle, tenant, backend)

        def _submit(shard: ClusterShard):
            future = shard.service.estimate_async(
                query, env, bundle=name, backend=backend
            )
            future.add_done_callback(partial(self._settle, shard.shard_id))
            return future

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
        """Report an actual runtime to the tenant shard's adaptation
        loop (no-op there when adaptation is disabled)."""
        key, name = self._resolve_key(bundle, tenant, backend)
        self._with_failover(
            key,
            lambda shard: shard.service.record_feedback(
                query, env, actual_ms=actual_ms, bundle=name, backend=backend
            ),
        )

    # ------------------------------------------------------------------
    # shard lifecycle (failure injection + operations)
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: str) -> None:
        """Simulate a replica crash: requests reaching *shard_id* fail
        (and fail over) until the router's threshold ejects it."""
        self.shard(shard_id).killed = True
        self.events.emit("shard_killed", shard=shard_id)

    def revive_shard(self, shard_id: str) -> None:
        """Bring a killed/ejected replica back into routing; exactly
        its rendezvous tenants move back to it."""
        self.shard(shard_id).killed = False
        self.router.recover(shard_id)
        self.events.emit("shard_revived", shard=shard_id)

    def restart_shard(
        self, shard_id: str, checkpoint_dir=None
    ) -> bool:
        """Replace *shard_id*'s replica with a fresh service and bring
        it back into routing — the per-replica warm-restart path.

        With *checkpoint_dir*, the fresh replica first tries a warm
        boot (:meth:`~repro.serving.CostService.restore`); a corrupt or
        version-mismatched checkpoint fails over to a cold start, never
        an error.  Either way, any deployed bundle the boot did not
        restore is re-deployed from the cluster's retained copies, so
        the replica always serves every tenant.  Returns True on a warm
        boot.  Intended for a killed/ejected replica: in-flight
        requests on a live replica are not drained first.
        """
        shard = self.shard(shard_id)
        old = shard.service
        fresh = self._factory(shard_id)
        warm = False
        if checkpoint_dir is not None:
            warm = fresh.restore(checkpoint_dir)
        with self._lock:
            retained = dict(self._bundle_objects)
        for name, bundle in retained.items():
            if name not in fresh.registry:
                fresh.deploy(bundle, name=name)
        shard.service = fresh
        shard.killed = False
        self.router.recover(shard_id)
        old.close()
        self.events.emit("shard_restarted", shard=shard_id, warm=warm)
        return warm

    # ------------------------------------------------------------------
    # durability (repro.persist)
    # ------------------------------------------------------------------
    def save(self, directory, retain: int = 3) -> Dict[str, object]:
        """Checkpoint every replica under ``directory/<shard_id>/``;
        returns {shard_id: new checkpoint path}."""
        import pathlib

        base = pathlib.Path(directory)
        return {
            shard_id: shard.service.save(base / shard_id, retain=retain)
            for shard_id, shard in sorted(self._shards.items())
        }

    def restore(self, directory) -> Dict[str, bool]:
        """Warm-boot every replica from ``directory/<shard_id>/``;
        returns {shard_id: warm?}.

        Replicas whose checkpoints are missing or unloadable stay cold
        (False) — but never empty: each bundle any warm replica
        restored is re-deployed onto the replicas that lack it (its
        newest restored copy), so every tenant is servable everywhere
        and the failover invariant holds after a partial restore.
        Warm replicas are untouched — their restored versions (and the
        version-keyed caches behind them) stay intact.  The cluster's
        deployment bookkeeping (routing keys, retained bundle copies)
        is rebuilt from the restored registries.
        """
        import pathlib

        base = pathlib.Path(directory)
        warm = {
            shard_id: shard.service.restore(base / shard_id)
            for shard_id, shard in sorted(self._shards.items())
        }
        donors: Dict[str, EstimatorBundle] = {}
        for _shard_id, shard in sorted(self._shards.items()):
            for bundle in shard.service.registry.export_bundles():
                best = donors.get(bundle.name)
                if best is None or bundle.version > best.version:
                    donors[bundle.name] = bundle
        for _shard_id, shard in sorted(self._shards.items()):
            for name, bundle in donors.items():
                if name not in shard.service.registry:
                    shard.service.deploy(bundle, name=name)
        with self._lock:
            for name, bundle in donors.items():
                if name not in self._deployed:
                    self._deployed.append(name)
                self._bundle_objects.setdefault(name, bundle)
        return warm

    def shard(self, shard_id: str) -> ClusterShard:
        """The :class:`ClusterShard` for *shard_id* (introspection)."""
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ClusterError(
                f"unknown shard {shard_id!r} "
                f"(shards: {sorted(self._shards)})"
            ) from None

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down every replica (adaptation loops, micro-batchers)."""
        for shard in self._shards.values():
            shard.service.close()


__all__ = [
    "ClusterService",
    "ClusterShard",
    "ClusterStats",
    "ServiceFactory",
]
