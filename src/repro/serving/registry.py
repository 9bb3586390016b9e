"""Deployable estimator bundles and the hot-swap registry.

A bundle is the unit of deployment: one trained
:class:`~repro.models.base.CostEstimator` (which holds its own
feature-reduction keep-masks) with the
:class:`~repro.core.snapshot.SnapshotSet` it was trained with, plus the
benchmark whose catalog parses and plans incoming SQL.
The registry names bundles per (benchmark, model) and supports atomic
hot-swap on retrain: readers always see a complete bundle, and the
version counter lets downstream caches (feature cache keys include the
version) invalidate lazily instead of being flushed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..engine.executor import LabeledPlan
from ..errors import ServingError
from ..models.base import CostEstimator
from ..obs.lockwatch import make_lock
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.snapshot import SnapshotSet
    from ..workload.collect import Benchmark


@dataclass
class EstimatorBundle:
    """Everything ``estimate()`` needs, packaged for deployment."""

    name: str
    estimator: CostEstimator
    benchmark: Optional["Benchmark"] = None
    snapshot_set: Optional["SnapshotSet"] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Assigned by the registry; bumped on every (re)deploy of the name.
    version: int = 0

    @property
    def env_names(self) -> List[str]:
        """Environments the snapshot set covers (empty when base model)."""
        return self.snapshot_set.env_names if self.snapshot_set else []

    def knows_environment(self, env_name: str) -> bool:
        """Whether the snapshot set covers *env_name* (base models
        carry no snapshot set and serve any environment)."""
        return self.snapshot_set is None or env_name in self.snapshot_set.env_names

    # ------------------------------------------------------------------
    # prediction façade: always with this bundle's snapshot set
    # ------------------------------------------------------------------
    def predict_many(self, labeled: Sequence[LabeledPlan]) -> np.ndarray:
        """Predict latencies for *labeled* with this bundle's snapshots."""
        return self.estimator.predict_many(labeled, snapshot_set=self.snapshot_set)

    def prepare_one(self, record: LabeledPlan):
        """Featurize one record for later :meth:`predict_prepared_batch`."""
        return self.estimator.prepare_one(record, snapshot_set=self.snapshot_set)

    def predict_prepared_batch(
        self, labeled: Sequence[LabeledPlan], prepared: Optional[Sequence] = None
    ) -> np.ndarray:
        """Fused whole-flush prediction from pre-featurized inputs (see
        :meth:`prepare_one` and
        :meth:`repro.models.base.CostEstimator.predict_prepared_batch`)."""
        return self.estimator.predict_prepared_batch(
            labeled, prepared, snapshot_set=self.snapshot_set
        )

    #: The same method under its old name: the end-to-end benchmark's
    #: traced run still wraps ``EstimatorBundle.predict_prepared``.
    predict_prepared = predict_prepared_batch

    def prepare_template(self, record: LabeledPlan):
        """Featurize the literal-independent template skeleton (None
        when the estimator has no template form)."""
        return self.estimator.prepare_template(
            record, snapshot_set=self.snapshot_set
        )

    def prepare_from_template(self, record: LabeledPlan, template):
        """Instantiate a cached template with *record*'s literals."""
        return self.estimator.prepare_from_template(
            record, template, snapshot_set=self.snapshot_set
        )

    def with_snapshot_set(self, snapshot_set: "SnapshotSet") -> "EstimatorBundle":
        """A copy serving from *snapshot_set* (same estimator weights)."""
        return replace(self, snapshot_set=snapshot_set)


class EstimatorRegistry:
    """Named, versioned bundles with atomic hot-swap semantics."""

    def __init__(self) -> None:
        self._lock = make_lock("serving.registry", reentrant=True)
        self._bundles: Dict[str, EstimatorBundle] = {}
        self._versions: Dict[str, int] = {}
        #: Bundles installed by a checkpoint restore (observability:
        #: lets bench metrics tell a warm boot from a cold one).
        self._restored_from_checkpoint = 0

    # ------------------------------------------------------------------
    def register(
        self, bundle: EstimatorBundle, name: Optional[str] = None
    ) -> EstimatorBundle:
        """Deploy (or hot-swap) *bundle* under *name*; returns it with
        its assigned version."""
        key = name or bundle.name
        if not key:
            raise ServingError("a bundle needs a non-empty name")
        with self._lock:
            version = self._versions.get(key, 0) + 1
            self._versions[key] = version
            # Store a copy: mutating the caller's object would corrupt
            # an earlier deployment of the same object under another
            # name (cache keys and batchers key on name/version).
            deployed = replace(bundle, name=key, version=version)
            self._bundles[key] = deployed
            return deployed

    def update(
        self, name: str, fn: "Callable[[EstimatorBundle], EstimatorBundle]"
    ) -> EstimatorBundle:
        """Atomic read-modify-write hot-swap.

        ``fn`` receives the *current* bundle under the registry lock and
        returns its replacement (or the same object for "no change", in
        which case no version is burned).  Concurrent writers — a
        snapshot-set extension on a request thread and a promotion on
        the refit worker — serialize here, each building on the other's
        result instead of silently reverting it (plain ``register`` is
        last-writer-wins).
        """
        with self._lock:
            current = self.get(name)
            updated = fn(current)
            if updated is current:
                return current
            return self.register(updated, name=name)

    def get(self, name: Optional[str] = None) -> EstimatorBundle:
        """The bundle for *name*; with no name, the sole deployment."""
        with self._lock:
            if name is None:
                if len(self._bundles) != 1:
                    raise ServingError(
                        "bundle name required when "
                        f"{len(self._bundles)} bundles are deployed"
                    )
                return next(iter(self._bundles.values()))
            try:
                return self._bundles[name]
            except KeyError:
                known = ", ".join(sorted(self._bundles)) or "<none>"
                raise ServingError(
                    f"no bundle named {name!r} (deployed: {known})"
                ) from None

    def unregister(self, name: str) -> EstimatorBundle:
        """Remove and return the bundle deployed under *name*."""
        with self._lock:
            try:
                return self._bundles.pop(name)
            except KeyError:
                raise ServingError(f"no bundle named {name!r}") from None

    def reinstate(self, name: str, bundle: Optional[EstimatorBundle]) -> None:
        """Undo a deploy under *name*: put *bundle* (what :meth:`get`
        returned before it) back as it was, or remove *name* when
        *bundle* is None.  The deployment counter keeps its count, so
        the name never hands out a version twice."""
        with self._lock:
            if bundle is None:
                self._bundles.pop(name, None)
            else:
                self._bundles[name] = bundle

    # ------------------------------------------------------------------
    # checkpoint support (repro.persist)
    # ------------------------------------------------------------------
    def export_bundles(self) -> List[EstimatorBundle]:
        """Every deployed bundle (point-in-time copy, name-sorted)."""
        with self._lock:
            return [self._bundles[name] for name in sorted(self._bundles)]

    def versions_snapshot(self) -> Dict[str, int]:
        """The per-name deployment counters (point-in-time copy)."""
        with self._lock:
            return dict(self._versions)

    def install_restored(
        self, bundle: EstimatorBundle, version_counter: Optional[int] = None
    ) -> EstimatorBundle:
        """Install a checkpoint-restored *bundle* at its recorded
        version (no bump: caches keyed on (name, version) stay valid
        across the restart) and advance the name's deployment counter
        to *version_counter* so post-restore hot-swaps keep counting
        where the serialized registry left off.
        """
        if not bundle.name:
            raise ServingError("a restored bundle needs a non-empty name")
        with self._lock:
            self._bundles[bundle.name] = bundle
            counter = max(
                self._versions.get(bundle.name, 0),
                bundle.version,
                version_counter or 0,
            )
            self._versions[bundle.name] = counter
            self._restored_from_checkpoint += 1
            return bundle

    def stats_snapshot(self) -> Dict[str, int]:
        """Registry observability counters, copied under the lock."""
        with self._lock:
            return {
                "bundles": len(self._bundles),
                "deployments": sum(self._versions.values()),
                "restored_from_checkpoint": self._restored_from_checkpoint,
            }

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Every deployed bundle name, sorted."""
        with self._lock:
            return sorted(self._bundles)

    def version_of(self, name: str) -> int:
        """Deployment count for *name* (0 when never deployed)."""
        with self._lock:
            return self._versions.get(name, 0)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._bundles

    def __len__(self) -> int:
        with self._lock:
            return len(self._bundles)
