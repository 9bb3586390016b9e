"""The cost-estimation service façade: SQL/plan in, milliseconds out.

``CostService`` runs the full online path — parse → plan → featurize →
predict — against deployed :class:`EstimatorBundle`\\ s, with:

- a :class:`FeatureCache` memoising encoded features by plan
  fingerprint (repeated plans skip featurization entirely);
- a second :class:`FeatureCache` memoising *template skeletons* by
  :func:`~repro.featurization.fingerprint.template_fingerprint`
  (literal-derived dims masked out), so different literals of one
  statement template skip the expensive one-hot assembly and only
  patch the numeric dims (see ``prepare_from_template``);
- a :class:`SnapshotStore` (optional) that fits-and-caches feature
  snapshots for environments the bundle has never seen, hot-swapping
  the bundle onto the extended snapshot set;
- a :class:`MicroBatcher` per bundle behind :meth:`estimate_async`,
  coalescing concurrent requests into batched forward passes;
- per-stage latency and hit-rate counters (:meth:`report`), all
  registered into one :class:`~repro.obs.MetricsRegistry`
  (``service.metrics``) — :meth:`counters` is a thin view over it;
- optional request tracing (:class:`~repro.obs.Tracer`): per-stage
  spans, batch spans linked to coalesced requests, cache hit/miss
  annotations — each opened with :func:`~repro.obs.trace.open_span`,
  which returns the no-op ``NULL_SPAN`` when ``tracer is None``;
- a structured :class:`~repro.obs.EventLog` (``service.events``)
  recording deploys, adaptation promotions/rollbacks, drift trips and
  checkpoint writes/restores.

Every entry point is :meth:`CostService._admit` per request (bundle
lookup → parse → plan → featurize) then one fused
:meth:`CostService._run_batch` predict, so the same plan under the
same bundle version always produces the same number, whichever entry
point served it.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.environment import DatabaseEnvironment
from ..engine.executor import LabeledPlan
from ..engine.operators import PlanNode
from ..engine.optimizer import PlanBuilder
from ..engine.plan_codec import EncodedPlan
from ..errors import ReproError, ServingError
from ..featurization.fingerprint import plan_fingerprint, template_fingerprint
from ..obs import EventLog, MetricsRegistry
from ..obs.lockwatch import make_lock
from ..obs.trace import NULL_SPAN, Tracer, current_tracer, open_span
from ..sql.ast import SelectQuery
from ..sql.parser import parse_sql
from .adaptation import AdaptationConfig, AdaptationManager
from .batcher import MicroBatcher
from .feature_cache import FeatureCache
from .registry import EstimatorBundle, EstimatorRegistry
from .snapshot_store import SnapshotStore, template_snapshot_fitter

#: What estimate() accepts: SQL text, a parsed query, or a built plan
#: (live, or as canonical bytes that decode only when needed).
QueryLike = Union[str, SelectQuery, PlanNode, EncodedPlan]

STAGES = ("parse", "plan", "featurize", "predict")


class _EncodedRecord(LabeledPlan):
    """A request record whose plan stays encoded until something reads
    ``.plan``: the feature-cache miss path, the adaptation loop, or a
    predict of a cached None.  The tree decodes once, whoever asks
    first."""

    def __init__(self, encoded: EncodedPlan, env_name: str):
        self.encoded = encoded
        self.latency_ms = 0.0
        self.env_name = env_name
        self.query_sql = ""
        self.template = ""

    @property
    def plan(self) -> PlanNode:
        """The request's plan, decoded on first use."""
        return self.encoded.plan


@dataclass
class ServiceStats:
    """Request counters and per-stage wall time (thread-safe: callers
    and the micro-batcher worker record concurrently).

    Every entry point shares one request path, so accounting happens
    at two points:

    - ``requests`` counts **admitted** requests, in ``_admit``: each
      ``estimate()``, each query of ``estimate_many()``, each
      ``estimate_async()`` submission, each ``estimate_batch()``
      request.  One that fails its bundle lookup, parse or plan is
      raised (or returned, by ``estimate_batch``) and not counted.
    - ``batched_requests`` counts requests served by a fused predict,
      in ``_run_batch``.  A sync ``estimate()`` is a batch of one, so
      it equals ``requests`` once every admitted request is predicted.
    - ``predict_batches`` counts ``_run_batch`` invocations (one per
      ``estimate()``, ``estimate_many`` chunk, ``estimate_batch()``
      call or batcher flush); mean fused-batch occupancy is
      ``batched_requests / predict_batches``.
    - stage ``predict`` **calls** count items predicted (rows).
    """

    requests: int = 0
    batched_requests: int = 0
    predict_batches: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_counts: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=lambda: make_lock("serving.service_stats"),
        repr=False,
        compare=False,
    )

    def record(self, stage: str, seconds: float, count: int = 1) -> None:
        """Add *seconds* of wall time (over *count* calls) to *stage*."""
        with self._lock:
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + seconds
            )
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + count

    def count_requests(self, count: int = 1) -> None:
        """Count *count* admitted requests (every path)."""
        with self._lock:
            self.requests += count

    def count_batched(self, count: int) -> None:
        """Mark *count* admitted requests as served by one fused
        predict invocation — see the class docstring."""
        with self._lock:
            self.batched_requests += count
            self.predict_batches += 1

    def stage_rows(self) -> List[Tuple[str, int, float, float]]:
        """(stage, count, total seconds, mean ms) rows, stage-ordered."""
        rows = []
        with self._lock:
            for stage in STAGES:
                count = self.stage_counts.get(stage, 0)
                total = self.stage_seconds.get(stage, 0.0)
                mean_ms = (total / count * 1000.0) if count else 0.0
                rows.append((stage, count, total, mean_ms))
        return rows

    def snapshot(self) -> Dict[str, object]:
        """A consistent plain-dict copy of the request and per-stage
        counters, taken atomically under the stats lock."""
        with self._lock:
            return {
                "requests": self.requests,
                "batched_requests": self.batched_requests,
                "predict_batches": self.predict_batches,
                "stages": {
                    stage: {
                        "calls": self.stage_counts.get(stage, 0),
                        "seconds": self.stage_seconds.get(stage, 0.0),
                    }
                    for stage in STAGES
                },
            }


class CostService:
    """Online estimation over deployed bundles."""

    def __init__(
        self,
        registry: Optional[EstimatorRegistry] = None,
        snapshot_store: Optional[SnapshotStore] = None,
        cache_capacity: int = 2048,
        batch_max: int = 64,
        batch_window_s: float = 0.002,
        snapshot_scale: int = 8,
        adaptation: Optional[AdaptationConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ):
        self.registry = registry or EstimatorRegistry()
        self.snapshot_store = snapshot_store
        self.cache = FeatureCache(cache_capacity)
        #: Template-skeleton memo: featurized skeletons keyed by
        #: template fingerprint (literal-derived dims excluded), shared
        #: by every instantiation of a statement template.  Consulted
        #: only on feature-cache misses.
        self.template_cache = FeatureCache(cache_capacity)
        self.stats = ServiceStats()
        #: The unified metrics registry every stats source registers
        #: into; :meth:`counters` and the Prometheus exposition are
        #: views over it.  Pass a shared one to merge services.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Structured control-plane events (deploys, promotions, ...).
        self.events = events if events is not None else EventLog()
        #: Request tracer; None (the default, unless a process default
        #: is installed) disables tracing with zero per-request cost.
        self.tracer = tracer if tracer is not None else current_tracer()
        self.batch_max = batch_max
        self.batch_window_s = batch_window_s
        self.snapshot_scale = snapshot_scale
        self._lock = make_lock("serving.service")
        self._builders: Dict[Tuple[str, str], PlanBuilder] = {}
        self._batchers: Dict[str, MicroBatcher] = {}
        #: Drift-aware adaptation loop (None unless configured): deploy
        #: attaches recall watchers, request records stream to them, and
        #: a background worker refits/hot-swaps off the hot path.
        self.adaptation: Optional[AdaptationManager] = (
            AdaptationManager(self, adaptation) if adaptation is not None else None
        )
        self._register_collectors()

    def _register_collectors(self) -> None:
        """Register every stats source into :attr:`metrics`.

        Sections are registered in the order the old hand-rolled
        ``counters()`` emitted them, so snapshot key order (and the
        bench deltas computed from it) is unchanged by the migration.
        Each collector is the component's existing atomic snapshot;
        components configured off return None and their section is
        omitted, exactly as before.
        """
        register = self.metrics.register_collector
        register("service", self.stats.snapshot)
        register("registry", self.registry.stats_snapshot)
        register(
            "feature_cache",
            lambda: dict(
                self.cache.stats_snapshot().as_dict(), size=len(self.cache)
            ),
        )
        register(
            "template_cache",
            lambda: dict(
                self.template_cache.stats_snapshot().as_dict(),
                size=len(self.template_cache),
            ),
        )
        register(
            "snapshot_store",
            lambda: None
            if self.snapshot_store is None
            else dict(
                self.snapshot_store.stats_snapshot().as_dict(),
                size=len(self.snapshot_store),
            ),
        )
        register(
            "batchers",
            lambda: {
                name: stats.as_dict()
                for name, stats in self.batcher_stats().items()
            },
        )
        register(
            "adaptation",
            lambda: None
            if self.adaptation is None
            else self.adaptation.stats.snapshot(),
        )
        register("events", self.events.counters)
        register(
            "tracer",
            lambda: None if self.tracer is None else self.tracer.counters(),
        )

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(
        self, bundle: EstimatorBundle, name: Optional[str] = None
    ) -> EstimatorBundle:
        """Register (or hot-swap) a bundle; returns it versioned.

        With adaptation enabled, a recall watcher is attached when the
        bundle's estimator holds keep-masks and a compatible operator
        encoder; an unreduced estimator has no pruned dimensions to
        recall and is served unwatched.
        """
        deployed = self.registry.register(bundle, name=name)
        self.events.emit(
            "deploy", bundle=deployed.name, version=deployed.version
        )
        if self.adaptation is not None:
            self.adaptation.watch(deployed)
        return deployed

    # ------------------------------------------------------------------
    # environment handling
    # ------------------------------------------------------------------
    def _ensure_environment(
        self, bundle: EstimatorBundle, env: DatabaseEnvironment
    ) -> EstimatorBundle:
        """Bundle whose snapshot set covers *env*, extending via the
        snapshot store (and hot-swapping) when needed."""
        if bundle.knows_environment(env.name):
            return bundle
        if self.snapshot_store is None:
            raise ServingError(
                f"bundle {bundle.name!r} has no snapshot for environment "
                f"{env.name!r} and the service has no SnapshotStore to fit one"
            )
        if bundle.benchmark is None:
            raise ServingError(
                f"bundle {bundle.name!r} carries no benchmark; cannot fit "
                f"a snapshot for environment {env.name!r}"
            )
        fitter = template_snapshot_fitter(
            bundle.benchmark, scale=self.snapshot_scale
        )
        # The slow part (fitting, store-deduplicated) runs outside any
        # registry lock; the graft is then an atomic read-modify-write,
        # so it composes with concurrent adaptation promotions instead
        # of reverting them.  The version bump retires stale
        # feature-cache keys lazily (keys include the version).
        snapshot = self.snapshot_store.get_or_fit(
            env, fitter, namespace=bundle.benchmark.name
        )

        def _graft(current: EstimatorBundle) -> EstimatorBundle:
            if current.knows_environment(env.name):
                return current  # another thread grafted it meanwhile
            return current.with_snapshot_set(
                current.snapshot_set.with_snapshot(snapshot)
            )

        return self.registry.update(bundle.name, _graft)

    # ------------------------------------------------------------------
    # the online path
    # ------------------------------------------------------------------
    def _builder_for(
        self, bundle: EstimatorBundle, env: DatabaseEnvironment
    ) -> PlanBuilder:
        key = (bundle.name, env.name)
        with self._lock:
            builder = self._builders.get(key)
        if builder is not None:
            return builder
        if bundle.benchmark is None:
            raise ServingError(
                f"bundle {bundle.name!r} carries no benchmark; "
                "pass an already-built plan instead of SQL"
            )
        # Construct outside the lock (cross-module work has no business
        # in the critical section); racing builders are identical and
        # setdefault keeps the first, so the memo stays one-per-key.
        builder = PlanBuilder(
            bundle.benchmark.catalog, bundle.benchmark.stats, env
        )
        with self._lock:
            return self._builders.setdefault(key, builder)

    def _resolve_plan(
        self,
        query: QueryLike,
        bundle: EstimatorBundle,
        env: DatabaseEnvironment,
    ) -> Tuple[Union[PlanNode, EncodedPlan], str]:
        """Parse/plan as needed; returns (plan, sql text if known).
        An :class:`EncodedPlan` passes through still encoded.

        The parse and plan stages each open a child span under the
        caller's active request span (thread-local propagation).
        """
        sql_text = ""
        if isinstance(query, str):
            start = time.perf_counter()
            sql_text = query
            if bundle.benchmark is None:
                raise ServingError(
                    f"bundle {bundle.name!r} carries no benchmark catalog; "
                    "cannot parse SQL"
                )
            with open_span(self.tracer, "parse"):
                query = parse_sql(query, bundle.benchmark.catalog)
            self.stats.record("parse", time.perf_counter() - start)
        if isinstance(query, SelectQuery):
            start = time.perf_counter()
            with open_span(self.tracer, "plan"):
                plan = self._builder_for(bundle, env).build(query)
            self.stats.record("plan", time.perf_counter() - start)
            sql_text = sql_text or query.sql()
            return plan, sql_text
        if isinstance(query, (PlanNode, EncodedPlan)):
            return query, sql_text
        raise ServingError(
            f"estimate() accepts SQL text, SelectQuery, PlanNode or "
            f"EncodedPlan, got {type(query).__name__}"
        )

    def _prepare(
        self,
        bundle: EstimatorBundle,
        record: LabeledPlan,
        env: DatabaseEnvironment,
    ):
        computed = []

        # Feature-cache miss path: consult the template memo first —
        # another literal of this statement template may have paid for
        # the skeleton already, leaving only the numeric-dim patch.  A
        # template of None ("no template form", the base-estimator
        # default) is itself cached, falling back to full featurization.
        def _compute():
            computed.append(True)
            tkey = template_fingerprint(
                record.plan,
                bundle.name,
                bundle.version,
                env.name,
            )
            template = self.template_cache.get_or_compute(
                tkey, lambda: bundle.prepare_template(record)
            )
            if template is None:
                return bundle.prepare_one(record)
            return bundle.prepare_from_template(record, template)

        # The span and the stats sample both cover the key.  Stampede-
        # safe: concurrent misses on one fingerprint encode once, and a
        # legitimate None ("no cacheable form") is cached rather than
        # recomputed on every request.
        start = time.perf_counter()
        with open_span(self.tracer, "featurize") as span:
            # An encoded plan is keyed by its bytes: a hit never decodes it.
            key = plan_fingerprint(
                record.encoded if type(record) is _EncodedRecord else record.plan,
                bundle.name,
                bundle.version,
                env.name,
            )
            prepared = self.cache.get_or_compute(key, _compute)
            span.annotate(fingerprint=key, cache="miss" if computed else "hit")
        self.stats.record("featurize", time.perf_counter() - start)
        return prepared

    def _admit(
        self,
        query: QueryLike,
        env: DatabaseEnvironment,
        bundle: Optional[str],
    ) -> Tuple[EstimatorBundle, LabeledPlan, object]:
        """The per-request front half of every entry point: look up the
        bundle → ensure environment → resolve plan → prepare, then count
        the request and stream it to adaptation.  Returns the serving
        bundle, the request's record and its prepared features — the
        item :meth:`_run_batch` predicts."""
        deployed = self._ensure_environment(self.registry.get(bundle), env)
        plan, sql_text = self._resolve_plan(query, deployed, env)
        if isinstance(plan, EncodedPlan):
            record = _EncodedRecord(plan, env.name)
        else:
            record = LabeledPlan(
                plan=plan, latency_ms=0.0, env_name=env.name, query_sql=sql_text
            )
        prepared = self._prepare(deployed, record, env)
        self.stats.count_requests()
        self._stream_to_adaptation(deployed.name, record)
        return deployed, record, prepared

    def _run_batch(self, items: Sequence[tuple]) -> np.ndarray:
        """The per-batch back half of every entry point: predict the
        admitted *items* (``_admit`` tuples) with one fused
        ``predict_prepared_batch`` per bundle group, under one
        ``predict`` span nested in the caller's active span.  The one
        place predict stats and ``count_batched`` are recorded."""
        # A batch may straddle a hot-swap: group by the bundle captured
        # at admission, since each request's prepared features match
        # only that bundle's masks and snapshot normalisation.
        groups: Dict[int, Tuple[EstimatorBundle, List[int]]] = {}
        for index, item in enumerate(items):
            groups.setdefault(id(item[0]), (item[0], []))[1].append(index)
        out = np.zeros(len(items))
        start = time.perf_counter()
        with open_span(self.tracer, "predict", kind="predict") as span:
            span.annotate(batch_size=len(items))
            for bundle, indices in groups.values():
                out[indices] = bundle.predict_prepared_batch(
                    [items[i][1] for i in indices],
                    [items[i][2] for i in indices],
                )
        self.stats.record("predict", time.perf_counter() - start, len(items))
        self.stats.count_batched(len(items))
        return out

    # ------------------------------------------------------------------
    # public estimation API
    # ------------------------------------------------------------------
    def estimate(
        self,
        query: QueryLike,
        env: DatabaseEnvironment,
        bundle: Optional[str] = None,
    ) -> float:
        """Estimated latency (ms) of *query* under *env*, synchronously.

        The request is a fused batch of one (:meth:`estimate_batch`),
        and its error, if any, is re-raised.  With a tracer attached it
        runs under a root ``request`` span with ``parse``/``plan``/
        ``featurize``/``predict`` children.
        """
        with open_span(self.tracer, "request") as span:
            span.annotate(bundle=bundle or "<default>", env=env.name)
            (outcome,) = self.estimate_batch([(query, env, bundle)])
            if isinstance(outcome, ReproError):
                raise outcome
            return outcome

    def estimate_many(
        self,
        queries: Sequence[QueryLike],
        env: DatabaseEnvironment,
        bundle: Optional[str] = None,
        batch_size: int = 64,
    ) -> np.ndarray:
        """Batched estimates: admit every query (through the caches;
        the first error raises), then predict in chunks of *batch_size*
        fused forward passes, one ``predict_batches`` each.

        With a tracer attached the call runs under one
        ``estimate_many`` root span with per-query stage children and
        one ``predict`` child per chunk.
        """
        if batch_size < 1:
            raise ServingError(f"batch_size must be >= 1, got {batch_size}")
        with open_span(self.tracer, "estimate_many", kind="request") as span:
            span.annotate(
                bundle=bundle or "<default>",
                env=env.name,
                n_queries=len(queries),
                batch_size=batch_size,
            )
            items = [self._admit(query, env, bundle) for query in queries]
            out = np.zeros(len(items))
            for lo in range(0, len(items), batch_size):
                out[lo : lo + batch_size] = self._run_batch(
                    items[lo : lo + batch_size]
                )
            return out

    def estimate_async(
        self,
        query: QueryLike,
        env: DatabaseEnvironment,
        bundle: Optional[str] = None,
    ):
        """Queue *query* on the bundle's micro-batcher; returns a Future
        resolving to the estimate.  Concurrent callers are coalesced
        into single batched forward passes.

        With a tracer attached, the request's root span stays open
        across the queue hand-off (it rides with the queued item so the
        flush's batch span can link back) and is finished when the
        Future resolves — so its duration covers queueing + the shared
        forward pass, and an errored Future marks the trace errored
        (always retained).
        """
        span = open_span(self.tracer, "request")
        span.annotate(bundle=bundle or "<default>", env=env.name, path="async")
        try:
            deployed, record, prepared = self._admit(query, env, bundle)
            # The bundle rides along: prepared features are only valid
            # for the bundle version that encoded them, so a hot-swap
            # must not re-route in-flight requests onto new
            # masks/weights.
            future = self._batcher_for(deployed.name).submit(
                (deployed, record, prepared, span)
            )
        except BaseException as exc:
            span.finish(error=exc)
            raise
        if span is not NULL_SPAN:
            # The root now outlives this frame: pop it off the caller
            # thread's stack and close it from the Future instead.
            span.tracer.deactivate(span)

            def _finish_root(resolved, span=span):
                try:
                    error = resolved.exception()
                except BaseException as exc:  # cancelled futures
                    error = exc
                span.finish(error=error)

            future.add_done_callback(_finish_root)
        return future

    def estimate_batch(
        self,
        requests: Sequence[Tuple[QueryLike, DatabaseEnvironment, Optional[str]]],
    ) -> List[Union[float, ReproError]]:
        """Serve independent ``(query, env, bundle)`` requests
        through one fused predict, with no batching window.

        Each request is admitted exactly as every other entry point
        admits it; the admitted ones then share one :meth:`_run_batch`
        (grouped by bundle, fused across environments), whose
        ``predict`` span nests in the caller's active span.  Returns
        one outcome per request, in order: its estimate, or the
        ``repro.errors`` exception that admitting it raised — a bad
        request fails alone.  An error in the shared predict fails the
        whole batch and propagates, as it does for a batcher flush.
        """
        outcomes: List[Union[float, ReproError]] = []
        items: List[Tuple[EstimatorBundle, LabeledPlan, object]] = []
        slots: List[int] = []
        for query, env, bundle in requests:
            try:
                items.append(self._admit(query, env, bundle))
            except ReproError as exc:
                outcomes.append(exc)
                continue
            slots.append(len(outcomes))
            outcomes.append(0.0)
        if items:
            values = self._run_batch(items)
            for slot, value in zip(slots, values, strict=True):
                outcomes[slot] = float(value)
        return outcomes

    # ------------------------------------------------------------------
    # durability (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The service's full persistable state (registry bundles at
        their exact versions, snapshot store, feature cache, adaptation
        drift state + feedback windows) as one encodable tree."""
        from ..persist.service_state import service_state

        return service_state(self)

    def load_state(self, state: Dict[str, object]) -> None:
        """Apply a :meth:`state_dict` tree onto this service (restored
        bundles keep their versions, so caches stay coherent)."""
        from ..persist.service_state import restore_service

        restore_service(self, state)

    def save(self, directory, retain: int = 3):
        """Write this service's state as the next retained checkpoint
        under *directory*; returns the new checkpoint's path."""
        from ..persist import save_service_checkpoint

        return save_service_checkpoint(self, directory, retain=retain)

    def restore(self, directory) -> bool:
        """Warm-boot from the newest loadable checkpoint under
        *directory*; True on success.  Corrupt or version-mismatched
        checkpoints fail over to older retained ones, then to a cold
        start (False) — a restart never crash-loops on damaged state.

        Emits a ``checkpoint_restore`` event on success, plus a
        ``checkpoint_failover_older`` event when the checkpoint used
        was not the newest retained one.
        """
        from ..persist import list_checkpoints, restore_service_checkpoint

        restored, path = restore_service_checkpoint(self, directory)
        if restored:
            self.events.emit("checkpoint_restore", path=str(path), warm=True)
            retained = list_checkpoints(directory)
            if retained and str(retained[-1][1]) != str(path):
                self.events.emit(
                    "checkpoint_failover_older",
                    path=str(path),
                    newest=str(retained[-1][1]),
                )
        return restored

    # ------------------------------------------------------------------
    # adaptation plumbing
    # ------------------------------------------------------------------
    def _stream_to_adaptation(self, bundle_name: str, record: LabeledPlan) -> None:
        """Hot-path hand-off: a bounded deque append, nothing more."""
        if self.adaptation is not None:
            self.adaptation.observe(bundle_name, record, labeled=False)

    def record_feedback(
        self,
        query: Union[QueryLike, LabeledPlan],
        env: DatabaseEnvironment,
        actual_ms: Optional[float] = None,
        bundle: Optional[str] = None,
    ) -> None:
        """Report what a query actually took once the database ran it.

        Feedback records fill the adaptation loop's retraining window
        and wake the refit worker.  *query* is ideally a fully labelled
        :class:`LabeledPlan` (per-node actuals included, as an EXPLAIN
        ANALYZE would supply); with SQL/plan + ``actual_ms``, per-node
        actuals are apportioned by optimizer cost fractions.  A no-op
        when adaptation is disabled.
        """
        if self.adaptation is None:
            return
        deployed = self._ensure_environment(self.registry.get(bundle), env)
        if isinstance(query, LabeledPlan):
            record = query
            if record.env_name != env.name:
                raise ServingError(
                    f"feedback record is labelled for environment "
                    f"{record.env_name!r}, not {env.name!r}"
                )
        else:
            if actual_ms is None:
                raise ServingError(
                    "record_feedback needs actual_ms unless given a "
                    "LabeledPlan"
                )
            plan, sql_text = self._resolve_plan(query, deployed, env)
            if isinstance(plan, EncodedPlan):
                plan = plan.plan
            if isinstance(query, (PlanNode, EncodedPlan)):
                # _resolve_plan passes caller-built plans through as-is;
                # labelling must not mutate the caller's object (nor let
                # later feedback calls overwrite this record's targets).
                plan = copy.deepcopy(plan)
            root_cost = max(plan.est_total_cost, 1e-9)
            for node in plan.walk():
                fraction = min(node.est_total_cost / root_cost, 1.0)
                node.actual_total_ms = actual_ms * fraction
            record = LabeledPlan(
                plan=plan,
                latency_ms=actual_ms,
                env_name=env.name,
                query_sql=sql_text,
            )
        self.adaptation.observe(deployed.name, record, labeled=True)

    # ------------------------------------------------------------------
    # micro-batching plumbing
    # ------------------------------------------------------------------
    def _batcher_for(self, bundle_name: str) -> MicroBatcher:
        with self._lock:
            batcher = self._batchers.get(bundle_name)
        if batcher is not None:
            return batcher
        # A MicroBatcher starts its worker thread in __init__ — thread
        # lifecycle must not run under the service lock.  On a race the
        # loser's batcher (empty, unpublished) is closed again.
        batcher = MicroBatcher(
            lambda items: self._flush(bundle_name, items),
            max_batch=self.batch_max,
            flush_window_s=self.batch_window_s,
            name=bundle_name,
        )
        with self._lock:
            winner = self._batchers.setdefault(bundle_name, batcher)
        if winner is not batcher:
            batcher.close()
        return winner

    def _flush(self, bundle_name: str, items: List[tuple]) -> np.ndarray:
        """The micro-batcher's flush callback: one :meth:`_run_batch`.

        With a tracer attached, one flush == one ``batch`` span linking
        every coalesced request's root (a flush serves many traces, so
        it roots its own); it is active on the batcher thread, so the
        ``predict`` span nests under it, and each request's root learns
        which flush served it.
        """
        tracer = self.tracer
        if tracer is None:
            return self._run_batch(items)
        spans = [item[3] for item in items]
        with tracer.start_batch_span(
            "batch", [span.context for span in spans], activate=True
        ) as bspan:
            bspan.annotate(batcher=bundle_name)
            for span in spans:
                span.annotate(batch_trace=bspan.trace_id, batch_span=bspan.span_id)
            return self._run_batch(items)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def batcher_stats(self) -> Dict[str, object]:
        """{bundle name: BatcherStats snapshot} for every batcher."""
        with self._lock:
            batchers = list(self._batchers.items())
        # Snapshots, not live objects: each copy is taken under its
        # batcher's own lock, so callers never watch counters move (or
        # tear) mid-read.
        return {name: b.stats_snapshot() for name, b in batchers}

    def counters(self) -> Dict[str, object]:
        """Machine-readable snapshot of every serving counter.

        A thin view over :attr:`metrics`
        (:meth:`~repro.obs.MetricsRegistry.sections_snapshot`): every
        subsystem registers its snapshot function as a collector at
        construction, so this method, the JSON dump and the Prometheus
        exposition all read the *same* registry instead of six
        hand-rolled snapshot paths.  Each section is still copied
        atomically under the lock that guards its mutation — the
        feature cache, snapshot store, batchers and adaptation loop all
        count under their own locks — so a load generator sampling
        mid-traffic never reads torn totals.  Sections for absent
        components (no snapshot store, no adaptation, no tracer) are
        omitted.
        """
        return self.metrics.sections_snapshot()

    def report(self) -> str:
        """Human-readable per-stage latency and cache hit-rate report."""
        from ..eval.reporting import render_serving_report

        # Coalesced requests (waited on another thread's in-flight
        # compute/fit) count as hits in both columns and rate, so the
        # displayed counts and percentage agree.  All counters come
        # from atomic snapshots (see counters()).
        cache_stats = self.cache.stats_snapshot()
        cache_rows = [
            (
                "feature-cache",
                cache_stats.hits + cache_stats.coalesced,
                cache_stats.misses,
                cache_stats.hit_rate,
            )
        ]
        # Warm vs cold boots are observable: every restored component
        # reports how much state a checkpoint handed it.
        persist_rows: List[Tuple[str, object]] = [
            (
                "bundles restored",
                self.registry.stats_snapshot()["restored_from_checkpoint"],
            )
        ]
        if self.snapshot_store is not None:
            stats = self.snapshot_store.stats_snapshot()
            cache_rows.append(
                (
                    "snapshot-store",
                    stats.hits + stats.approx_hits + stats.coalesced,
                    stats.misses,
                    stats.hit_rate,
                )
            )
            persist_rows.append(
                ("snapshots restored", stats.restored_from_checkpoint)
            )
        adaptation_rows = (
            self.adaptation.stats.rows() if self.adaptation is not None else ()
        )
        return render_serving_report(
            self.stats.stage_rows(),
            cache_rows,
            adaptation=adaptation_rows,
            persist=persist_rows,
        )

    def close(self) -> None:
        """Stop the adaptation loop, then drain every micro-batcher."""
        if self.adaptation is not None:
            self.adaptation.close()
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()

    def __enter__(self) -> "CostService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
