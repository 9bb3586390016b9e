"""Warm-boot paths of a whole CostService."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.environment import random_environments
from repro.persist import list_checkpoints
from repro.serving import (
    AdaptationConfig,
    CostService,
    SnapshotStore,
)
from tests.persist.conftest import ENV_SEED


def _fresh_service(adaptation: bool = True) -> CostService:
    return CostService(
        snapshot_store=SnapshotStore(),
        snapshot_scale=2,
        adaptation=AdaptationConfig(background=False) if adaptation else None,
    )


@pytest.fixture()
def loaded_service(qppnet_setup):
    """A service with a deployed bundle, a grafted unseen env, warm
    caches and a part-filled adaptation window."""
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    extra_env = random_environments(3, seed=ENV_SEED)[2]
    service = _fresh_service()
    service.deploy(qppnet_setup["bundle"])
    service.estimate(labeled[0].plan, extra_env)  # graft via the store
    service.estimate_many([r.plan for r in labeled], envs[0], batch_size=16)
    env_by_name = {env.name: env for env in envs}
    for record in labeled[:12]:
        service.record_feedback(record, env_by_name[record.env_name])
    try:
        yield service, extra_env
    finally:
        service.close()


def test_service_restore_is_bit_identical_and_warm(
    tmp_path, loaded_service, qppnet_setup
):
    service, extra_env = loaded_service
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    plans = [record.plan for record in labeled]
    reference = service.estimate_many(plans, envs[0], batch_size=16)
    reference_extra = service.estimate(plans[0], extra_env)
    service.save(tmp_path)

    restored = _fresh_service()
    try:
        assert restored.restore(tmp_path) is True
        # Bit-identical predictions on the shared query set.
        assert np.array_equal(
            restored.estimate_many(plans, envs[0], batch_size=16), reference
        )
        # The grafted environment came back with the bundle: no fit.
        assert restored.estimate(plans[0], extra_env) == reference_extra
        store_stats = restored.snapshot_store.stats_snapshot()
        assert store_stats.misses == 0
        assert store_stats.restored_from_checkpoint == 1
        # Cache warmth: the estimates above were all prepared-cache hits.
        cache_stats = restored.cache.stats_snapshot()
        assert cache_stats.misses == 0
        assert cache_stats.hits >= len(plans)
        # Versions survive (the graft bumped to 2 pre-checkpoint).
        name = qppnet_setup["bundle"].name
        assert restored.registry.get(name).version == service.registry.get(
            name
        ).version
    finally:
        restored.close()


def test_restored_counters_surface_in_counters_and_report(
    tmp_path, loaded_service
):
    service, _ = loaded_service
    service.save(tmp_path)
    restored = _fresh_service()
    try:
        restored.restore(tmp_path)
        counters = restored.counters()
        assert counters["registry"]["restored_from_checkpoint"] == 1
        assert counters["snapshot_store"]["restored_from_checkpoint"] == 1
        report = restored.report()
        assert "bundles restored" in report
        assert "snapshots restored" in report
    finally:
        restored.close()


def test_adaptation_window_and_drift_state_survive(tmp_path, loaded_service):
    service, _ = loaded_service
    name = service.registry.names()[0]
    watcher = service.adaptation.watcher(name)
    watcher.drift_pending = True
    window_before = [r.latency_ms for r in watcher.window_records()]
    assert window_before  # feedback landed pre-checkpoint
    service.save(tmp_path)

    restored = _fresh_service()
    try:
        assert restored.restore(tmp_path)
        watcher_after = restored.adaptation.watcher(name)
        assert watcher_after is not None
        assert [
            r.latency_ms for r in watcher_after.window_records()
        ] == window_before
        assert watcher_after.drift_pending is True
        for op, mask in watcher.recall.masks.items():
            assert np.array_equal(watcher_after.recall.masks[op], mask)
    finally:
        restored.close()


def test_state_holds_no_mask_copies_and_legacy_keys_restore(mscn_setup):
    """The estimator is the only holder of the keep-masks: a written
    state carries no bundle-level ``masks``/``global_mask`` and no
    watcher ``global_mode``, and a state that still has all three
    (with the bundle copies disagreeing) restores with the estimator's
    masks and the same predictions."""
    bundle, labeled = mscn_setup["bundle"], mscn_setup["labeled"]
    envs = mscn_setup["envs"]
    plans = [record.plan for record in labeled]
    service = _fresh_service()
    restored = _fresh_service()
    try:
        service.deploy(bundle)
        reference = service.estimate_many(plans, envs[0], batch_size=16)
        state = service.state_dict()
        (bundle_state,) = state["registry"]["bundles"]
        assert "masks" not in bundle_state
        assert "global_mask" not in bundle_state
        (watcher_state,) = state["adaptation"]["watchers"].values()
        assert "global_mode" not in watcher_state

        mask = bundle.estimator.global_mask
        bundle_state["masks"] = {"Seq Scan": ~mask}
        bundle_state["global_mask"] = np.ones_like(mask)
        watcher_state["global_mode"] = False
        restored.load_state(state)
        live = restored.registry.get(bundle.name)
        assert np.array_equal(live.estimator.global_mask, mask)
        watcher = restored.adaptation.watcher(bundle.name)
        for op_mask in watcher.recall.masks.values():
            assert np.array_equal(op_mask, mask)
        assert np.array_equal(
            restored.estimate_many(plans, envs[0], batch_size=16), reference
        )
    finally:
        service.close()
        restored.close()


def test_restore_into_leaner_service_degrades_gracefully(
    tmp_path, loaded_service, qppnet_setup
):
    service, _ = loaded_service
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    service.save(tmp_path)
    # No snapshot store, no adaptation: those checkpoint sections are
    # simply skipped; the registry and cache still warm-boot.
    lean = CostService(adaptation=None)
    try:
        assert lean.restore(tmp_path) is True
        want = service.estimate_many([r.plan for r in labeled], envs[0])
        got = lean.estimate_many([r.plan for r in labeled], envs[0])
        assert np.array_equal(want, got)
    finally:
        lean.close()


def test_restore_with_no_checkpoint_is_a_cold_start(tmp_path):
    service = _fresh_service(adaptation=False)
    try:
        assert service.restore(tmp_path / "empty") is False
        assert len(service.registry) == 0
    finally:
        service.close()


def test_restore_fails_over_corrupt_newest_then_cold(
    tmp_path, loaded_service, qppnet_setup
):
    service, _ = loaded_service
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    service.save(tmp_path)
    second = service.save(tmp_path)
    second.write_bytes(second.read_bytes()[: second.stat().st_size // 2])

    restored = _fresh_service(adaptation=False)
    try:
        # Newest is truncated: the older retained checkpoint restores.
        assert restored.restore(tmp_path) is True
        assert np.array_equal(
            service.estimate_many([r.plan for r in labeled], envs[0]),
            restored.estimate_many([r.plan for r in labeled], envs[0]),
        )
    finally:
        restored.close()

    for _, path in list_checkpoints(tmp_path):
        path.write_bytes(b"garbage")
    cold = _fresh_service(adaptation=False)
    try:
        assert cold.restore(tmp_path) is False
        assert len(cold.registry) == 0
    finally:
        cold.close()
