"""Drift-aware online adaptation: detect -> refit -> validate -> hot-swap.

The paper sketches feature *recall* for dynamic workloads as future
work (Section IV, Discussions); :class:`repro.core.recall.FeatureRecall`
implements the detector.  This module closes the loop for the serving
layer:

- every request the :class:`~repro.serving.CostService` handles is
  streamed (cheaply — a bounded deque append on the hot path) to a
  per-bundle :class:`BundleWatcher`, whose ``FeatureRecall`` watches
  the freshly encoded operator rows for pruned dimensions coming back
  to life;
- execution feedback (``record_feedback``: the database reporting what
  a query actually took — our :class:`~repro.engine.executor.\
ExecutionSimulator` stands in for the database) fills a bounded
  retraining window of labelled plans;
- a background :class:`RefitWorker` thread encodes, observes and — when
  drift is flagged or the :class:`~repro.serving.SnapshotStore` miss
  rate trips — *warm-retrains a deep copy* of the deployed estimator
  with the recalled masks, entirely off the hot path;
- the candidate is **shadow-scored** against the live bundle on the
  newest feedback records; it is promoted through
  :class:`~repro.serving.EstimatorRegistry`'s versioned hot-swap only
  if its q-error is no worse, and rolled back (discarded, counted)
  otherwise.

Serving latency is unaffected while a refit runs: the live bundle
keeps serving, prepared-feature caches stay valid (keys include the
bundle version), and the swap itself is one atomic registry write.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.recall import FeatureRecall
from ..engine.executor import LabeledPlan
from ..engine.operators import OperatorType
from ..nn.loss import numpy_q_error
from ..obs.lockwatch import make_condition, make_lock
from .registry import EstimatorBundle

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import CostService


def operator_encoder_of(bundle: EstimatorBundle):
    """The unified per-node operator encoder behind *bundle*'s
    estimator, or None when there is no compatible one.

    QPPNet exposes it directly; MSCN wraps it (``encoder.op_encoder``)
    — its global feature block is the mean of these per-node rows, so
    the same encoder drives drift observation for both model families.
    """
    encoder = getattr(bundle.estimator, "encoder", None)
    if encoder is None:
        return None
    if hasattr(encoder, "operator_rows") and hasattr(encoder, "feature_names"):
        return encoder
    inner = getattr(encoder, "op_encoder", None)
    if inner is not None and hasattr(inner, "operator_rows"):
        return inner
    return None


@dataclass
class AdaptationConfig:
    """Tuning for the online adaptation loop."""

    #: Labelled feedback records retained per bundle (the refit
    #: training window).
    window_size: int = 512
    #: Pending not-yet-observed records buffered for the worker; the
    #: oldest are dropped under overload (observation is sampling, not
    #: accounting).
    observe_buffer: int = 2048
    #: Refits are skipped until the window holds at least this many
    #: labelled records.
    min_refit_records: int = 24
    #: Newest feedback records used to shadow-score candidate vs live.
    shadow_requests: int = 64
    #: The candidate is promoted when its shadow mean q-error is within
    #: (1 + tolerance) of the live bundle's.
    promote_tolerance: float = 0.0
    #: Epoch budget for the warm refit (recall only adds dimensions, so
    #: the candidate starts at the live model's function).
    refit_epochs: int = 4
    #: Snapshot-store miss-rate trip: a refit is triggered when the
    #: store's miss rate since the last check exceeds this, over at
    #: least ``miss_rate_min_requests`` requests.
    miss_rate_threshold: float = 0.5
    miss_rate_min_requests: int = 8
    #: Minimum seconds between refits of one bundle (suppresses churn
    #: after a rollback).
    cooldown_s: float = 0.0
    #: Worker poll period (it also wakes immediately on feedback).
    poll_interval_s: float = 0.05
    #: With False, no worker thread is started and the loop advances
    #: only on explicit :meth:`AdaptationManager.run_pending` calls
    #: (deterministic mode for tests and offline drivers).
    background: bool = True


@dataclass
class AdaptationStats:
    """Counters for the loop (thread-safe), surfaced in reports."""

    rows_observed: int = 0
    dims_flagged: int = 0
    drift_trips: int = 0
    miss_rate_trips: int = 0
    refits: int = 0
    promotions: int = 0
    rollbacks: int = 0
    refit_seconds: float = 0.0
    #: Loop passes that died on an exception (the worker survives and
    #: keeps running; a non-zero count in the report is the signal).
    errors: int = 0
    _lock: threading.Lock = field(
        default_factory=lambda: make_lock("serving.adaptation_stats"),
        repr=False,
        compare=False,
    )

    def add(self, counter: str, amount: float = 1) -> None:
        """Bump *counter* by *amount* under the stats lock."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> Dict[str, object]:
        """A consistent plain-dict copy of every counter, taken under
        the stats lock (piecemeal reads of the live fields can tear).
        Enumerated from the dataclass fields so a newly added counter
        can never silently go missing from reports and bench deltas."""
        with self._lock:
            return {
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if not f.name.startswith("_")
            }

    def rows(self) -> List[Tuple[str, object]]:
        """(counter, value) rows for the serving report."""
        with self._lock:
            return [
                ("rows observed", self.rows_observed),
                ("dims flagged", self.dims_flagged),
                ("drift trips", self.drift_trips),
                ("miss-rate trips", self.miss_rate_trips),
                ("refits", self.refits),
                ("promotions", self.promotions),
                ("rollbacks", self.rollbacks),
                ("refit seconds", f"{self.refit_seconds:.2f}"),
                ("errors", self.errors),
            ]


class BundleWatcher:
    """Per-bundle drift state: recall detector + traffic windows.

    ``global_mode`` marks bundles reduced by a single global mask
    (MSCN): the recall runs the same mask for every operator, and the
    refit unions the per-operator recalled masks back into one global
    keep-vector.
    """

    def __init__(
        self,
        name: str,
        recall: FeatureRecall,
        config: AdaptationConfig,
        global_mode: bool = False,
    ):
        self.name = name
        self.recall = recall
        self.config = config
        self.global_mode = global_mode
        self._lock = make_lock("serving.adaptation_watcher")
        #: Records awaiting (off-hot-path) encoding + observation.
        self._pending: Deque[LabeledPlan] = deque(maxlen=config.observe_buffer)
        #: Labelled feedback records — the refit training window.
        self._window: Deque[LabeledPlan] = deque(maxlen=config.window_size)
        #: Set when observation flags new dimensions; cleared by refit.
        self.drift_pending = False
        #: Set by the miss-rate monitor; cleared by refit.
        self.miss_rate_pending = False
        self.last_refit_monotonic = float("-inf")

    # -- hot path ------------------------------------------------------
    def enqueue(self, record: LabeledPlan, labeled: bool) -> None:
        """O(1), lock-for-an-append: called from the serving hot path."""
        with self._lock:
            self._pending.append(record)
            if labeled:
                self._window.append(record)

    # -- worker side ---------------------------------------------------
    def drain_pending(self) -> List[LabeledPlan]:
        """Take (and clear) everything queued since the last drain."""
        with self._lock:
            drained = list(self._pending)
            self._pending.clear()
        return drained

    def has_pending(self) -> bool:
        """Whether traffic is queued that the worker has not seen."""
        with self._lock:
            return bool(self._pending)

    def window_records(self) -> List[LabeledPlan]:
        """A copy of the bounded retraining window's records."""
        with self._lock:
            return list(self._window)

    def window_size(self) -> int:
        """How many labelled records the retraining window holds."""
        with self._lock:
            return len(self._window)

    def restore_window(self, records: List[LabeledPlan]) -> None:
        """Replace the retraining window with checkpoint-restored
        *records* (oldest first; the deque bound still applies)."""
        with self._lock:
            self._window.clear()
            self._window.extend(records)


class AdaptationManager:
    """Owns the watchers and the refit worker for one CostService."""

    def __init__(self, service: "CostService", config: Optional[AdaptationConfig] = None):
        self.service = service
        self.config = config or AdaptationConfig()
        self.stats = AdaptationStats()
        self._watchers: Dict[str, BundleWatcher] = {}
        self._lock = make_lock("serving.adaptation")
        self._process_lock = make_lock("serving.adaptation_process")
        self._cond = make_condition("serving.adaptation_cond")
        self._closed = False
        self._store_seen_requests = 0
        self._store_seen_misses = 0
        self._worker: Optional[RefitWorker] = None
        if self.config.background:
            self._worker = RefitWorker(self)
            self._worker.start()

    # ------------------------------------------------------------------
    # watcher lifecycle
    # ------------------------------------------------------------------
    def watch(
        self,
        bundle: EstimatorBundle,
        baselines=None,
    ) -> Optional[BundleWatcher]:
        """Attach a recall watcher to *bundle* (idempotent per name).

        Works for both reduction shapes: per-operator keep-masks
        (QPPNet) and a single global mask (MSCN — watched by running
        the global mask under every operator and unioning the recalled
        dimensions back at refit time).  Requires an estimator whose
        encoder exposes the unified operator layout; bundles with no
        masks at all (nothing was pruned, so nothing can be recalled)
        are skipped with ``None``.

        ``baselines`` (per-operator reduction-time mean feature rows,
        see :func:`repro.core.recall.collect_baselines`) may also ride
        in ``bundle.metadata["recall_baselines"]``.

        Redeploying a name with *different* masks or feature layout (an
        offline retrain, not one of this loop's own promotions, which
        bypass deploy) replaces the watcher: stale drift state against
        the old reduction must not steer the new deployment.
        """
        encoder = operator_encoder_of(bundle)
        if encoder is None:
            return None
        masks = self._recall_masks_for(bundle)
        if masks is None:
            return None
        if baselines is None:
            baselines = bundle.metadata.get("recall_baselines")
        with self._lock:
            existing = self._watchers.get(bundle.name)
            if existing is not None and self._watcher_matches(
                existing, masks, encoder.feature_names
            ):
                return existing
            recall = FeatureRecall(
                masks, encoder.feature_names, baselines=baselines
            )
            watcher = BundleWatcher(
                bundle.name,
                recall,
                self.config,
                global_mode=not bundle.masks,
            )
            self._watchers[bundle.name] = watcher
            return watcher

    @staticmethod
    def _recall_masks_for(bundle: EstimatorBundle):
        """The per-operator mask mapping the recall should run, or None
        when the bundle was not reduced (nothing to recall)."""
        if bundle.masks:
            return bundle.masks
        if bundle.global_mask is not None:
            mask = np.asarray(bundle.global_mask, dtype=bool)
            return {op: mask for op in OperatorType}
        return None

    @staticmethod
    def _watcher_matches(
        watcher: BundleWatcher, masks, feature_names
    ) -> bool:
        recall = watcher.recall
        if list(recall.feature_names) != list(feature_names):
            return False
        if set(recall.masks) != set(masks):
            return False
        return all(
            np.array_equal(recall.masks[op], np.asarray(mask, dtype=bool))
            for op, mask in masks.items()
        )

    def restore_watcher(
        self,
        name: str,
        recall_state: Dict[str, object],
        window: List[LabeledPlan],
        drift_pending: bool = False,
        miss_rate_pending: bool = False,
    ) -> Optional[BundleWatcher]:
        """Overwrite bundle *name*'s watcher with checkpoint state.

        The watcher itself must already exist (restores run after the
        bundle is re-installed, which attaches one via :meth:`watch`);
        a checkpoint whose recall layout no longer matches the live
        watcher's — the bundle was retrained offline with different
        masks since the checkpoint — is skipped (returns None), exactly
        like :meth:`watch` replaces stale watchers on redeploy.
        Streaming drift statistics, flagged dimensions and the feedback
        window all continue where the serialized loop left off.
        """
        watcher = self.watcher(name)
        if watcher is None:
            return None
        restored = FeatureRecall.from_state(recall_state)
        if list(restored.feature_names) != list(watcher.recall.feature_names):
            return None
        if set(restored.masks) != set(watcher.recall.masks):
            return None
        watcher.recall = restored
        watcher.restore_window(window)
        watcher.drift_pending = bool(drift_pending)
        watcher.miss_rate_pending = bool(miss_rate_pending)
        return watcher

    def watcher(self, name: str) -> Optional[BundleWatcher]:
        """The recall watcher attached to bundle *name* (None if
        the bundle is unwatched)."""
        with self._lock:
            return self._watchers.get(name)

    def watchers(self) -> List[BundleWatcher]:
        """Every attached recall watcher (a point-in-time copy)."""
        with self._lock:
            return list(self._watchers.values())

    # ------------------------------------------------------------------
    # hot-path ingestion
    # ------------------------------------------------------------------
    def observe(
        self, bundle_name: str, record: LabeledPlan, labeled: bool = False
    ) -> None:
        """Stream *record* to the bundle's watcher (cheap append)."""
        watcher = self.watcher(bundle_name)
        if watcher is None:
            return
        watcher.enqueue(record, labeled)
        if labeled:
            # Feedback is rare and drives refits: wake the worker.
            with self._cond:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # the adaptation loop body (worker thread, or called directly)
    # ------------------------------------------------------------------
    def run_pending(self) -> None:
        """One pass: observe drained traffic, check triggers, refit."""
        with self._process_lock:
            self._check_store_miss_rate()
            for watcher in self.watchers():
                self._observe_drained(watcher)
                self._maybe_refit(watcher)

    def _observe_drained(self, watcher: BundleWatcher) -> None:
        records = watcher.drain_pending()
        if not records:
            return
        bundle = self._live_bundle(watcher.name)
        encoder = operator_encoder_of(bundle)  # validated by watch()
        # Raw encoding (no snapshot block): drift lives in the
        # workload-shape dimensions; per-env snapshot slots stay zero
        # on both baseline and observation sides.  The drain is encoded
        # as one matrix and split by operator, so the streaming
        # statistics update once per operator per drain, not once per
        # plan node.
        rows_by_op = encoder.operator_rows(record.plan for record in records)
        newly: List[str] = []
        count = 0
        for op, rows in rows_by_op.items():
            newly.extend(watcher.recall.observe(op, rows))
            count += len(rows)
        self.stats.add("rows_observed", count)
        if newly:
            self.stats.add("dims_flagged", len(newly))
            self.stats.add("drift_trips")
            watcher.drift_pending = True
            self.service.events.emit(
                "drift_trip", bundle=watcher.name, dims_flagged=len(newly)
            )

    def _check_store_miss_rate(self) -> None:
        store = self.service.snapshot_store
        if store is None:
            return
        # Snapshot under the store lock: reading the live counters
        # field-by-field could pair a fresh miss count with a stale
        # request count and overstate the miss rate.
        stats = store.stats_snapshot()
        requests, misses = stats.requests, stats.misses
        delta_requests = requests - self._store_seen_requests
        if delta_requests < self.config.miss_rate_min_requests:
            return
        delta_misses = misses - self._store_seen_misses
        self._store_seen_requests = requests
        self._store_seen_misses = misses
        if delta_misses / delta_requests > self.config.miss_rate_threshold:
            self.stats.add("miss_rate_trips")
            self.service.events.emit(
                "miss_rate_trip",
                miss_rate=delta_misses / delta_requests,
                requests=delta_requests,
            )
            # Store misses are not attributable to one bundle: every
            # watched bundle is asked to refresh against recent traffic.
            for watcher in self.watchers():
                watcher.miss_rate_pending = True

    def _maybe_refit(self, watcher: BundleWatcher) -> None:
        if not (watcher.drift_pending or watcher.miss_rate_pending):
            return
        if watcher.window_size() < self.config.min_refit_records:
            return
        now = time.monotonic()
        if now - watcher.last_refit_monotonic < self.config.cooldown_s:
            return
        self._refit(watcher)

    def _refit(self, watcher: BundleWatcher) -> None:
        """Warm-retrain a copy off the hot path; shadow-score; swap.

        The drift/miss-rate triggers are consumed only once the refit
        has produced a scored candidate: a refit that dies mid-way
        (recall skips already-flagged dims, so the flags would never
        re-fire) keeps them set and is retried after the cooldown.
        """
        drift = watcher.drift_pending
        watcher.last_refit_monotonic = time.monotonic()
        self.stats.add("refits")
        start = time.perf_counter()

        live = self._live_bundle(watcher.name)
        records = watcher.window_records()
        recalled = watcher.recall.recall_masks() if drift else None
        global_recalled: Optional[np.ndarray] = None
        retrain_masks: object = recalled
        if recalled is not None and watcher.global_mode:
            # Global-mask (MSCN) bundles: union the per-operator recall
            # decisions back into the single global keep-vector.
            global_recalled = np.logical_or.reduce(
                np.stack([np.asarray(m, bool) for m in recalled.values()])
            )
            retrain_masks = global_recalled
        # The newest records are held out for shadow scoring so the
        # promote gate always compares both models on data the
        # candidate did NOT train on (never more than half the window,
        # so the training side keeps at least min_refit_records // 2).
        shadow_n = min(self.config.shadow_requests, max(1, len(records) // 2))
        shadow = records[-shadow_n:]
        # A one-record window degenerates to train == shadow; any
        # larger window trains and scores on disjoint slices.
        train = records[:-shadow_n] or records
        # The live bundle keeps serving: the candidate is a deep copy,
        # so mask installation and training never touch shared weights.
        candidate_estimator = copy.deepcopy(live.estimator)
        candidate_estimator.warm_retrain(
            train,
            masks=retrain_masks,
            snapshot_set=live.snapshot_set,
            epochs=self.config.refit_epochs,
        )

        actual = np.array([r.latency_ms for r in shadow])
        live_q = numpy_q_error(live.predict_many(shadow), actual)
        candidate_q = numpy_q_error(
            candidate_estimator.predict_many(
                shadow, snapshot_set=live.snapshot_set
            ),
            actual,
        )
        self.stats.add("refit_seconds", time.perf_counter() - start)

        # Candidate trained and scored: the triggers are now consumed.
        watcher.drift_pending = False
        watcher.miss_rate_pending = False
        threshold = float(live_q.mean()) * (1.0 + self.config.promote_tolerance)
        if float(candidate_q.mean()) <= threshold:
            # Atomic promote onto whatever is current: a snapshot-set
            # extension may have hot-swapped a wider set mid-refit, and
            # update() serializes with it so neither write reverts the
            # other.  The version bump retires stale feature-cache
            # entries lazily.
            def _promote(current: EstimatorBundle) -> EstimatorBundle:
                if global_recalled is not None:
                    return replace(
                        current,
                        estimator=candidate_estimator,
                        global_mask=global_recalled,
                    )
                return replace(
                    current,
                    estimator=candidate_estimator,
                    masks=(
                        dict(recalled)
                        if recalled is not None
                        else current.masks
                    ),
                )

            self.service.registry.update(watcher.name, _promote)
            self.stats.add("promotions")
            self.service.events.emit(
                "promotion",
                bundle=watcher.name,
                live_q=float(live_q.mean()),
                candidate_q=float(candidate_q.mean()),
            )
        else:
            self.stats.add("rollbacks")
            self.service.events.emit(
                "rollback",
                bundle=watcher.name,
                live_q=float(live_q.mean()),
                candidate_q=float(candidate_q.mean()),
            )

    def _live_bundle(self, name: str) -> EstimatorBundle:
        return self.service.registry.get(name)

    # ------------------------------------------------------------------
    # lifecycle / synchronisation
    # ------------------------------------------------------------------
    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until all pending traffic is observed and no refit is
        running (True), or *timeout* elapses (False).  Only meaningful
        in background mode."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            busy = any(w.has_pending() for w in self.watchers())
            if not busy and not self._process_lock.locked():
                return True
            with self._cond:
                self._cond.notify_all()
            time.sleep(0.005)
        return False

    def close(self) -> None:
        """Stop the background worker and join it."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=10.0)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed


class RefitWorker(threading.Thread):
    """Background thread driving :meth:`AdaptationManager.run_pending`.

    Wakes on feedback arrival (condition notify) or every
    ``poll_interval_s`` to re-check the snapshot-store miss rate; all
    heavy work — unmasked encoding, recall observation, warm retrain,
    shadow scoring — happens here, never on a request thread.
    """

    def __init__(self, manager: AdaptationManager):
        super().__init__(name="adaptation-refit", daemon=True)
        self.manager = manager

    def run(self) -> None:  # pragma: no cover - exercised via threads
        """The worker loop: wake, process pending, survive bad passes."""
        manager = self.manager
        while True:
            with manager._cond:
                if manager._closed:
                    return
                manager._cond.wait(manager.config.poll_interval_s)
                if manager._closed:
                    return
            try:
                manager.run_pending()
            except Exception:
                # The worker must outlive any single bad pass (a bundle
                # unregistered mid-cycle, a malformed feedback record, a
                # failed fit): count it and keep watching.  A rising
                # "errors" row in the report is the operator's signal.
                manager.stats.add("errors")
                continue
