"""The round-trip battery: restore must be bit-identical, per component.

Every persistable component is serialized through the real container
(file on disk, not just the in-memory codec) and restored into a fresh
object; predictions and lookups must match the live object *exactly*
(``np.array_equal`` on float64 outputs — no tolerances).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.snapshot import FeatureSnapshot, SnapshotSet
from repro.engine.environment import random_environments
from repro.errors import CheckpointError
from repro.featurization.encoding import OperatorEncoder
from repro.featurization.mscn_features import MSCNEncoder
from repro.models.mscn import MSCN
from repro.models.native import NativeCostEstimator
from repro.models.postgres import PostgresCostEstimator
from repro.models.qppnet import QPPNet
from repro.persist import (
    bundle_from_state,
    bundle_to_state,
    estimator_from_state,
    load_checkpoint,
    save_checkpoint,
)
from repro.serving import EstimatorRegistry, SnapshotStore
from repro.serving.snapshot_store import (
    knob_signature,
    knob_vector,
    template_snapshot_fitter,
)


def _through_disk(state, tmp_path):
    """Round-trip *state* through a real checkpoint file."""
    path = tmp_path / "roundtrip.qcp"
    save_checkpoint(state, path)
    loaded, _ = load_checkpoint(path)
    return loaded


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def test_qppnet_restores_bit_identical(tmp_path, qppnet_setup):
    pipeline, labeled = qppnet_setup["pipeline"], qppnet_setup["labeled"]
    model = pipeline.estimator
    state = _through_disk(model.state_dict(), tmp_path)
    encoder = OperatorEncoder(qppnet_setup["benchmark"].catalog)
    restored = QPPNet.from_state(state, encoder)
    want = model.predict_many(labeled, snapshot_set=pipeline.snapshot_set)
    got = restored.predict_many(labeled, snapshot_set=pipeline.snapshot_set)
    assert np.array_equal(want, got)
    assert restored.num_parameters() == model.num_parameters()
    assert set(restored.masks) == set(model.masks)
    for op, mask in model.masks.items():
        assert np.array_equal(restored.masks[op], mask)


def test_mscn_restores_bit_identical(tmp_path, mscn_setup):
    pipeline, labeled = mscn_setup["pipeline"], mscn_setup["labeled"]
    model = pipeline.estimator
    state = _through_disk(model.state_dict(), tmp_path)
    catalog = mscn_setup["benchmark"].catalog
    restored = MSCN.from_state(state, MSCNEncoder(catalog, OperatorEncoder(catalog)))
    want = model.predict_many(labeled, snapshot_set=pipeline.snapshot_set)
    got = restored.predict_many(labeled, snapshot_set=pipeline.snapshot_set)
    assert np.array_equal(want, got)
    assert np.array_equal(restored.global_mask, model.global_mask)


def test_postgres_restores_bit_identical(tmp_path, qppnet_setup):
    labeled = qppnet_setup["labeled"]
    model = PostgresCostEstimator(calibrated=True)
    model.fit(labeled)
    restored = PostgresCostEstimator.from_state(
        _through_disk(model.state_dict(), tmp_path)
    )
    assert np.array_equal(
        model.predict_many(labeled), restored.predict_many(labeled)
    )


def test_unknown_estimator_kind_is_a_clean_error(qppnet_setup):
    with pytest.raises(CheckpointError, match="unknown estimator kind"):
        estimator_from_state({"kind": "transformer"}, qppnet_setup["benchmark"])


def test_unrebuildable_estimator_state_is_a_clean_error(qppnet_setup):
    """A hash-valid checkpoint this build cannot rebuild (e.g. an
    operator the enum no longer knows) must raise CheckpointError so
    restore fails over to cold start instead of crashing the boot."""
    state = qppnet_setup["pipeline"].estimator.state_dict()
    state["masks"] = {"No Such Operator": np.ones(3, dtype=bool)}
    with pytest.raises(CheckpointError, match="cannot rebuild 'qppnet'"):
        estimator_from_state(state, qppnet_setup["benchmark"])


def test_bundle_with_garbage_version_is_a_clean_error(tmp_path, qppnet_setup):
    state = bundle_to_state(qppnet_setup["bundle"])
    state["version"] = "not-a-number"
    with pytest.raises(CheckpointError, match="invalid bundle state"):
        bundle_from_state(state)


def test_estimator_without_state_dict_is_a_clean_error():
    from repro.models.base import CostEstimator
    from repro.persist import estimator_to_state

    with pytest.raises(CheckpointError, match="no state_dict"):
        estimator_to_state(CostEstimator())


def test_estimator_state_without_kind_tag_is_a_clean_error():
    from repro.persist import estimator_to_state

    class Tagless:
        """An estimator whose state_dict forgot the dispatch tag."""

        def state_dict(self):
            return {"weights": []}

    with pytest.raises(CheckpointError, match="'kind' tag"):
        estimator_to_state(Tagless())


def test_restoring_a_foreign_state_kind_is_a_clean_error():
    from repro.persist import restore_service
    from repro.serving import CostService

    with CostService() as service:
        with pytest.raises(CheckpointError, match="not a .*cost_service"):
            restore_service(service, {"kind": "mystery_service"})


def test_encoder_model_without_benchmark_is_a_clean_error():
    with pytest.raises(CheckpointError, match="needs its benchmark"):
        estimator_from_state({"kind": "qppnet"}, None)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def test_snapshot_set_restores_bit_identical(tmp_path, qppnet_setup):
    snapshot_set = qppnet_setup["pipeline"].snapshot_set
    state = _through_disk(snapshot_set.state_dict(), tmp_path)
    restored = SnapshotSet.from_state(state)
    assert restored.env_names == snapshot_set.env_names
    for env_name in snapshot_set.env_names:
        want, got = snapshot_set.raw(env_name), restored.raw(env_name)
        assert want.source == got.source
        assert want.collection_ms == got.collection_ms
        assert set(want.coefficients) == set(got.coefficients)
        for op in want.coefficients:
            assert np.array_equal(want.coefficients[op], got.coefficients[op])
            assert want.residuals[op] == got.residuals[op]
        mapping_want = snapshot_set.normalized(env_name)
        mapping_got = restored.normalized(env_name)
        for op in mapping_want:
            assert np.array_equal(mapping_want[op], mapping_got[op])


def test_malformed_snapshot_state_is_a_clean_error():
    from repro.errors import SnapshotError

    with pytest.raises(SnapshotError):
        FeatureSnapshot.from_state({"coefficients": {"Nope": [1.0]}})


# ----------------------------------------------------------------------
# bundles + registry
# ----------------------------------------------------------------------
def test_bundle_restores_bit_identical(tmp_path, qppnet_setup):
    bundle = qppnet_setup["bundle"]
    labeled = qppnet_setup["labeled"]
    state = _through_disk(bundle_to_state(bundle), tmp_path)
    restored = bundle_from_state(state)
    assert restored.name == bundle.name
    assert restored.version == bundle.version
    assert restored.benchmark.name == bundle.benchmark.name
    assert np.array_equal(
        bundle.predict_many(labeled), restored.predict_many(labeled)
    )
    baselines = restored.metadata["recall_baselines"]
    for op, mean in bundle.metadata["recall_baselines"].items():
        assert np.array_equal(baselines[op], mean)


def test_bundle_with_unknown_benchmark_is_a_clean_error(tmp_path, qppnet_setup):
    state = bundle_to_state(qppnet_setup["bundle"])
    state["benchmark"] = "no-such-benchmark"
    with pytest.raises(CheckpointError, match="unknown benchmark"):
        bundle_from_state(state)


def test_native_estimator_restores_bit_identical(tmp_path, qppnet_setup):
    labeled = qppnet_setup["labeled"]
    model = NativeCostEstimator(slope=1.0, intercept=0.0)
    model.fit(labeled)
    state = _through_disk(model.state_dict(), tmp_path)
    restored = estimator_from_state(state, None)
    assert isinstance(restored, NativeCostEstimator)
    assert (restored.slope, restored.intercept) == (model.slope, model.intercept)
    assert np.array_equal(
        model.predict_many(labeled), restored.predict_many(labeled)
    )
    # A state written with an engine-family tag restores the same model.
    tagged = estimator_from_state(dict(state, backend="aurora"), None)
    assert (tagged.slope, tagged.intercept) == (model.slope, model.intercept)


def test_tagged_v2_bundle_state_restores_as_a_plain_bundle(
    tmp_path, qppnet_setup
):
    """Schema-v2 writers once added a per-bundle ``backend`` tag.  A
    state carrying one, whatever its value, restores as the plain
    bundle: the same predictions, bit for bit, and no tag written
    back."""
    labeled = qppnet_setup["labeled"]
    state = bundle_to_state(qppnet_setup["bundle"])
    assert "backend" not in state
    plain = bundle_from_state(_through_disk(state, tmp_path))
    tagged = bundle_from_state(
        _through_disk(dict(state, backend="aurora"), tmp_path)
    )
    assert np.array_equal(
        tagged.predict_many(labeled).view(np.uint64),
        plain.predict_many(labeled).view(np.uint64),
    )
    assert bundle_to_state(tagged).keys() == state.keys()


@pytest.mark.parametrize("setup", ["qppnet_setup", "mscn_setup"])
def test_bundle_level_mask_copies_are_ignored(tmp_path, request, setup):
    """Builds whose bundles held a copy of the keep-masks wrote it as
    bundle-level ``masks``/``global_mask`` keys.  A state whose copies
    disagree with the estimator's masks restores and serves with the
    estimator's, bit for bit; the writer emits neither key."""
    bundle = request.getfixturevalue(setup)["bundle"]
    labeled = request.getfixturevalue(setup)["labeled"]
    state = bundle_to_state(bundle)
    assert "masks" not in state and "global_mask" not in state
    estimator_masks = bundle.estimator.keep_masks()
    assert estimator_masks is not None
    disagreeing = dict(
        state,
        masks={op.value: ~mask for op, mask in estimator_masks.items()},
        global_mask=np.zeros_like(next(iter(estimator_masks.values()))),
    )
    restored = bundle_from_state(_through_disk(disagreeing, tmp_path))
    restored_masks = restored.estimator.keep_masks()
    assert restored_masks.keys() == estimator_masks.keys()
    for op, mask in estimator_masks.items():
        assert np.array_equal(restored_masks[op], mask), op
    assert np.array_equal(
        restored.predict_many(labeled).view(np.uint64),
        bundle.predict_many(labeled).view(np.uint64),
    )
    assert bundle_to_state(restored).keys() == state.keys()


def test_registry_restore_preserves_versions(qppnet_setup):
    source = EstimatorRegistry()
    deployed = source.register(qppnet_setup["bundle"], name="m")
    deployed = source.register(deployed, name="m")  # version 2
    assert deployed.version == 2

    target = EstimatorRegistry()
    target.install_restored(deployed, version_counter=source.version_of("m"))
    assert target.get("m").version == 2
    assert target.version_of("m") == 2
    # A post-restore hot-swap keeps counting where the old process
    # stopped — feature-cache keys can never collide across the boot.
    assert target.register(target.get("m"), name="m").version == 3
    stats = target.stats_snapshot()
    assert stats["restored_from_checkpoint"] == 1
    assert stats["bundles"] == 1


# ----------------------------------------------------------------------
# snapshot store
# ----------------------------------------------------------------------
def test_snapshot_store_entries_restore_and_dedupe_fits(qppnet_setup):
    benchmark = qppnet_setup["benchmark"]
    envs = random_environments(3, seed=77)
    fitter = template_snapshot_fitter(benchmark, scale=2)
    source = SnapshotStore(capacity=8)
    for env in envs:
        source.get_or_fit(env, fitter, namespace=benchmark.name)
    assert source.stats_snapshot().misses == len(envs)

    target = SnapshotStore(capacity=8)
    installed = target.restore_entries(source.export_entries())
    assert installed == len(envs)
    assert len(target) == len(envs)
    assert target.stats_snapshot().restored_from_checkpoint == len(envs)

    def forbidden(_env):
        raise AssertionError("restored store must not refit a known env")

    for env in envs:
        snapshot = target.get_or_fit(env, forbidden, namespace=benchmark.name)
        want = source.get_or_fit(env, forbidden, namespace=benchmark.name)
        for op in want.coefficients:
            assert np.array_equal(
                snapshot.coefficients[op], want.coefficients[op]
            )
    assert target.stats_snapshot().misses == 0


def test_snapshot_store_restore_respects_capacity(qppnet_setup):
    benchmark = qppnet_setup["benchmark"]
    envs = random_environments(3, seed=78)
    fitter = template_snapshot_fitter(benchmark, scale=2)
    source = SnapshotStore(capacity=8)
    for env in envs:
        source.get_or_fit(env, fitter, namespace=benchmark.name)
    small = SnapshotStore(capacity=2)
    small.restore_entries(source.export_entries())
    assert len(small) == 2
    # MRU survives truncation: the newest entry is still a hit.
    key_vector = knob_vector(envs[-1])
    assert key_vector is not None  # vectors restore alongside signatures
    sig = knob_signature(envs[-1])
    assert any(sig == s for _, s, _, _ in small.export_entries())
