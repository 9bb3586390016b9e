"""repro.serving — the online, batched, cached estimation service.

Turns trained QCFE estimators into a serving subsystem:

- :class:`EstimatorBundle` / :class:`EstimatorRegistry` — deployable
  (estimator, snapshot set, benchmark) units with versioned
  hot-swap on retrain;
- :class:`SnapshotStore` — knob-fingerprint-keyed cache of fitted
  feature snapshots, with optional approximate reuse for nearby knob
  configurations;
- :class:`FeatureCache` — plan-fingerprint-keyed LRU over encoded
  features, so repeated plans skip featurization;
- :class:`MicroBatcher` — coalesces concurrent requests into fused
  batched forward passes;
- :class:`CostService` — the façade: ``estimate(sql | plan, env)``
  end-to-end with per-stage latency and hit-rate counters;
- :class:`AdaptationManager` / :class:`RefitWorker` — the drift-aware
  adaptation loop: recall watchers over live traffic, off-hot-path
  warm refits, shadow-scored promote-or-rollback hot swaps.
"""

from .adaptation import (
    AdaptationConfig,
    AdaptationManager,
    AdaptationStats,
    BundleWatcher,
    RefitWorker,
)
from .batcher import BatcherStats, MicroBatcher
from .feature_cache import CacheStats, FeatureCache
from .registry import EstimatorBundle, EstimatorRegistry
from .service import CostService, ServiceStats
from .snapshot_store import (
    SnapshotStore,
    StoreStats,
    knob_signature,
    knob_vector,
    template_snapshot_fitter,
)

__all__ = [
    "AdaptationConfig",
    "AdaptationManager",
    "AdaptationStats",
    "BundleWatcher",
    "RefitWorker",
    "BatcherStats",
    "MicroBatcher",
    "CacheStats",
    "FeatureCache",
    "EstimatorBundle",
    "EstimatorRegistry",
    "CostService",
    "ServiceStats",
    "SnapshotStore",
    "StoreStats",
    "knob_signature",
    "knob_vector",
    "template_snapshot_fitter",
]
