"""Whole-service state assembly: everything a warm boot needs.

This module knows how to turn the live serving stack into one state
tree (and back):

- :class:`~repro.serving.EstimatorBundle` — estimator weights + config
  (via the models' ``state_dict``/``from_state``), the snapshot set,
  keep-masks and metadata.  The benchmark rides along *by name* and is
  rebuilt through :func:`repro.workload.collect.get_benchmark`, which
  is deterministic — catalogs, statistics and encoders come out
  identical, so restored predictions are bit-identical.
- :class:`~repro.serving.EstimatorRegistry` — every bundle at its
  exact recorded version plus the per-name deployment counters, so
  feature-cache keys (which embed versions) stay valid and post-boot
  hot-swaps keep counting where the old process stopped.
- :class:`~repro.serving.SnapshotStore` — fingerprints, knob vectors
  and fitted snapshots in LRU order.
- :class:`~repro.serving.FeatureCache` — prepared encodings whose form
  the codec recognises (unknown forms are skipped, counted in the
  state's ``skipped`` field: warmth is best-effort).  The service's
  template-skeleton cache is exported the same way (``template_cache``
  section; absent in pre-template checkpoints, which restore fine).
- the adaptation loop — per-bundle recall state and the labelled
  feedback windows that drive refits.

Unknown estimator kinds, missing benchmarks and malformed trees raise
:class:`~repro.errors.CheckpointError`; nothing here ever half-applies
a state (the registry/store/cache installs happen only after the whole
tree decoded).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from ..core.snapshot import SnapshotSet
from ..engine.operators import OperatorType
from ..errors import CheckpointError, ReproError
from ..models.mscn import MSCN
from ..models.native import NativeCostEstimator
from ..models.postgres import PostgresCostEstimator
from ..models.qppnet import QPPNet
from ..serving.registry import EstimatorBundle
from .codec import (
    decode_prepared,
    encode_prepared,
    labeled_plan_from_state,
    labeled_plan_to_state,
)

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serving.service import CostService
    from ..workload.collect import Benchmark


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def estimator_to_state(estimator: object) -> Dict[str, object]:
    """The estimator's ``state_dict()`` (must carry a ``kind`` tag)."""
    state_dict = getattr(estimator, "state_dict", None)
    if state_dict is None:
        raise CheckpointError(
            f"estimator {type(estimator).__name__} has no state_dict(); "
            "cannot checkpoint it"
        )
    state = state_dict()
    if not isinstance(state, Mapping) or "kind" not in state:
        raise CheckpointError(
            f"estimator {type(estimator).__name__}.state_dict() must return "
            "a mapping with a 'kind' tag"
        )
    return dict(state)


def estimator_from_state(
    state: Mapping[str, object], benchmark: Optional["Benchmark"]
):
    """Dispatch on the state's ``kind`` tag; encoder-backed models need
    *benchmark* to rebuild their (deterministic) encoders."""
    from ..featurization.encoding import OperatorEncoder
    from ..featurization.mscn_features import MSCNEncoder

    kind = state.get("kind")
    try:
        if kind == "postgres":
            return PostgresCostEstimator.from_state(state)
        if kind == "native_cost":
            return NativeCostEstimator.from_state(state)
        if kind in ("qppnet", "mscn"):
            if benchmark is None:
                raise CheckpointError(
                    f"a {kind} checkpoint needs its benchmark to rebuild the "
                    "encoder, but the bundle state carries none"
                )
            op_encoder = OperatorEncoder(benchmark.catalog)
            if kind == "qppnet":
                return QPPNet.from_state(state, op_encoder)
            return MSCN.from_state(
                state, MSCNEncoder(benchmark.catalog, op_encoder)
            )
    except CheckpointError:
        raise
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        # A hash-valid checkpoint whose estimator state this build
        # cannot rebuild (an operator the enum no longer has, a weight
        # shape the architecture rejects) must fail over to a cold
        # start, not crash the boot.
        raise CheckpointError(
            f"cannot rebuild {kind!r} estimator from checkpoint: {exc}"
        ) from exc
    raise CheckpointError(
        f"unknown estimator kind {kind!r} in checkpoint "
        "(known: postgres, native_cost, qppnet, mscn)"
    )


# ----------------------------------------------------------------------
# bundles
# ----------------------------------------------------------------------
def _metadata_to_state(metadata: Mapping[str, object]) -> Dict[str, object]:
    """Bundle metadata with typed keys flattened to plain data."""
    out: Dict[str, object] = {}
    for key, value in metadata.items():
        if key == "recall_baselines" and isinstance(value, Mapping):
            out[key] = {
                op.value if isinstance(op, OperatorType) else str(op): np.asarray(mean)
                for op, mean in value.items()
            }
        else:
            out[key] = value
    return out


def _metadata_from_state(state: Mapping[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = dict(state)
    baselines = out.get("recall_baselines")
    if isinstance(baselines, Mapping):
        out["recall_baselines"] = {
            OperatorType(op): np.asarray(mean, dtype=np.float64)
            for op, mean in baselines.items()
        }
    return out


def bundle_to_state(bundle: EstimatorBundle) -> Dict[str, object]:
    """One deployable bundle as plain data + arrays."""
    return {
        "name": bundle.name,
        "version": bundle.version,
        "benchmark": bundle.benchmark.name if bundle.benchmark else None,
        "estimator": estimator_to_state(bundle.estimator),
        "snapshot_set": (
            bundle.snapshot_set.state_dict() if bundle.snapshot_set else None
        ),
        "masks": {
            op.value: np.asarray(mask, dtype=bool)
            for op, mask in bundle.masks.items()
        },
        "global_mask": (
            None
            if bundle.global_mask is None
            else np.asarray(bundle.global_mask, dtype=bool)
        ),
        "metadata": _metadata_to_state(bundle.metadata),
    }


def bundle_from_state(
    state: Mapping[str, object],
    benchmarks: Optional[Dict[str, "Benchmark"]] = None,
) -> EstimatorBundle:
    """Rebuild a bundle; *benchmarks* memoises
    :func:`~repro.workload.collect.get_benchmark` across the bundles
    of one checkpoint (they usually share one)."""
    from ..workload.collect import get_benchmark

    benchmark: Optional["Benchmark"] = None
    benchmark_name = state.get("benchmark")
    if benchmark_name is not None:
        cache = benchmarks if benchmarks is not None else {}
        if benchmark_name not in cache:
            try:
                cache[benchmark_name] = get_benchmark(str(benchmark_name))
            except ReproError as exc:
                raise CheckpointError(
                    f"checkpoint names unknown benchmark {benchmark_name!r}"
                ) from exc
        benchmark = cache[benchmark_name]
    snapshot_state = state.get("snapshot_set")
    try:
        snapshot_set = (
            None
            if snapshot_state is None
            else SnapshotSet.from_state(snapshot_state)
        )
        masks = {
            OperatorType(op): np.asarray(mask, dtype=bool)
            for op, mask in dict(state.get("masks", {})).items()
        }
    except CheckpointError:
        raise
    except ReproError as exc:
        raise CheckpointError(f"invalid bundle state: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid bundle state: {exc}") from exc
    global_mask = state.get("global_mask")
    try:
        return EstimatorBundle(
            name=str(state.get("name", "")),
            estimator=estimator_from_state(
                dict(state.get("estimator", {})), benchmark
            ),
            benchmark=benchmark,
            snapshot_set=snapshot_set,
            masks=masks,
            global_mask=(
                None
                if global_mask is None
                else np.asarray(global_mask, dtype=bool)
            ),
            metadata=_metadata_from_state(dict(state.get("metadata", {}))),
            version=int(state.get("version", 0)),
            # A schema-v2 state may also carry a ``backend`` tag (its
            # native_cost estimator state too), written by builds that
            # routed requests per engine family.  It is ignored,
            # whatever its value: the bundle restores as a plain one.
        )
    except CheckpointError:
        raise
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid bundle state: {exc}") from exc


# ----------------------------------------------------------------------
# whole-service state
# ----------------------------------------------------------------------
def service_state(service: "CostService") -> Dict[str, object]:
    """Everything a :class:`~repro.serving.CostService` warm boot
    needs, as one encodable tree."""
    state: Dict[str, object] = {
        "kind": "cost_service",
        "registry": {
            "bundles": [
                bundle_to_state(b) for b in service.registry.export_bundles()
            ],
            "versions": service.registry.versions_snapshot(),
        },
    }
    if service.snapshot_store is not None:
        state["snapshot_store"] = {
            "entries": [
                {
                    "namespace": namespace,
                    "signature": signature,
                    "vector": vector,
                    "snapshot": snapshot.state_dict(),
                }
                for namespace, signature, vector, snapshot
                in service.snapshot_store.export_entries()
            ]
        }
    cache_entries: List[Dict[str, object]] = []
    skipped = 0
    for key, value in service.cache.export_entries():
        encoded = encode_prepared(value)
        if encoded is None:
            skipped += 1
            continue
        cache_entries.append({"key": key, "prepared": encoded})
    state["feature_cache"] = {"entries": cache_entries, "skipped": skipped}
    template_entries: List[Dict[str, object]] = []
    template_skipped = 0
    for key, value in service.template_cache.export_entries():
        encoded = encode_prepared(value)
        if encoded is None:
            template_skipped += 1
            continue
        template_entries.append({"key": key, "prepared": encoded})
    state["template_cache"] = {
        "entries": template_entries,
        "skipped": template_skipped,
    }
    if service.adaptation is not None:
        watchers: Dict[str, object] = {}
        for watcher in service.adaptation.watchers():
            watchers[watcher.name] = {
                "recall": watcher.recall.state_dict(),
                "global_mode": watcher.global_mode,
                "drift_pending": watcher.drift_pending,
                "miss_rate_pending": watcher.miss_rate_pending,
                "window": [
                    labeled_plan_to_state(record)
                    for record in watcher.window_records()
                ],
            }
        state["adaptation"] = {"watchers": watchers}
    return state


def restore_service(service: "CostService", state: Mapping[str, object]) -> None:
    """Apply a decoded :func:`service_state` tree onto *service*.

    The whole tree is rebuilt (bundles, snapshots, cache values) before
    anything is installed, so a malformed checkpoint raises without
    leaving the service half-restored.  Restored bundles re-attach
    adaptation watchers exactly like :meth:`CostService.deploy` does;
    watcher drift state and feedback windows are then overwritten from
    the checkpoint.
    """
    if state.get("kind") != "cost_service":
        raise CheckpointError(
            f"checkpoint state kind {state.get('kind')!r} is not a "
            "cost_service state"
        )
    benchmarks: Dict[str, "Benchmark"] = {}
    registry_state = dict(state.get("registry", {}))
    bundles = [
        bundle_from_state(entry, benchmarks)
        for entry in registry_state.get("bundles", [])
    ]
    versions = {
        str(name): int(version)
        for name, version in dict(registry_state.get("versions", {})).items()
    }
    store_entries = []
    store_state = state.get("snapshot_store")
    if store_state is not None:
        from ..core.snapshot import FeatureSnapshot

        for entry in dict(store_state).get("entries", []):
            try:
                store_entries.append(
                    (
                        str(entry["namespace"]),
                        str(entry["signature"]),
                        np.asarray(entry["vector"], dtype=np.float64),
                        FeatureSnapshot.from_state(entry["snapshot"]),
                    )
                )
            except ReproError as exc:
                raise CheckpointError(
                    f"invalid snapshot-store entry: {exc}"
                ) from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"invalid snapshot-store entry: {exc}"
                ) from exc
    cache_entries = [
        (str(entry["key"]), decode_prepared(dict(entry["prepared"])))
        for entry in dict(state.get("feature_cache", {})).get("entries", [])
    ]
    # Absent in checkpoints written before template memoization: the
    # template cache simply starts cold, like any other miss.
    template_entries = [
        (str(entry["key"]), decode_prepared(dict(entry["prepared"])))
        for entry in dict(state.get("template_cache", {})).get("entries", [])
    ]
    adaptation_state = state.get("adaptation")
    watcher_states: Dict[str, Dict[str, object]] = {}
    if adaptation_state is not None:
        for name, entry in dict(dict(adaptation_state).get("watchers", {})).items():
            entry = dict(entry)
            watcher_states[str(name)] = {
                "recall": dict(entry.get("recall", {})),
                "drift_pending": bool(entry.get("drift_pending", False)),
                "miss_rate_pending": bool(entry.get("miss_rate_pending", False)),
                "window": [
                    labeled_plan_from_state(record)
                    for record in entry.get("window", [])
                ],
            }

    # Everything decoded cleanly: install.
    for bundle in bundles:
        service.registry.install_restored(
            bundle, version_counter=versions.get(bundle.name)
        )
        if service.adaptation is not None:
            service.adaptation.watch(bundle)
    if store_entries and service.snapshot_store is not None:
        service.snapshot_store.restore_entries(store_entries)
    if cache_entries:
        service.cache.restore_entries(cache_entries)
    if template_entries:
        service.template_cache.restore_entries(template_entries)
    if service.adaptation is not None:
        for name, entry in watcher_states.items():
            try:
                service.adaptation.restore_watcher(
                    name,
                    entry["recall"],
                    entry["window"],
                    drift_pending=entry["drift_pending"],
                    miss_rate_pending=entry["miss_rate_pending"],
                )
            except ReproError:
                # Drift state is advisory: a recall layout this build
                # cannot rebuild must not fail the (already installed)
                # registry/store/cache restore — the watcher simply
                # starts fresh, as it would on an offline retrain.
                continue


__all__ = [
    "bundle_from_state",
    "bundle_to_state",
    "estimator_from_state",
    "estimator_to_state",
    "restore_service",
    "service_state",
]
