"""The committed golden checkpoints: the on-disk format's regression pin.

``golden-v<schema>.qcp`` was written by ``make_golden.py`` at the
current schema version and is committed; this module restores it with
the *current* code.  A PR that changes the container framing, the
array-reference shape or any component's state layout fails here —
before it silently invalidates every checkpoint already on operators'
disks.  (Within-process restores are bit-identical by the round-trip
battery; across machines the golden comparison allows BLAS last-ulp
drift, hence the tight ``rtol`` instead of exact equality.)

``golden-v1.qcp`` stays committed as the *legacy* artifact, and the
backward-compat test below pins that v1 checkpoints keep restoring.
``golden-v2.qcp`` was written when v2 bundles still carried a
``backend`` tag; the reader ignores it, so both restore as plain
bundles.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.persist.checkpoint import SCHEMA_VERSION, load_checkpoint, read_manifest
from repro.serving import CostService, SnapshotStore
from tests.persist.make_golden import (
    ENV_COUNT,
    ENV_SEED,
    PLAN_COUNT,
    PLAN_SEED,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / f"golden-v{SCHEMA_VERSION}.qcp"
EXPECTED = GOLDEN_DIR / f"golden-v{SCHEMA_VERSION}.expected.json"
LEGACY = GOLDEN_DIR / "golden-v1.qcp"
LEGACY_EXPECTED = GOLDEN_DIR / "golden-v1.expected.json"


@pytest.fixture(scope="module")
def golden_service():
    """The golden checkpoint restored into a fresh service."""
    service = CostService(snapshot_store=SnapshotStore(), snapshot_scale=2)
    state, _ = load_checkpoint(GOLDEN)
    service.load_state(state)
    try:
        yield service
    finally:
        service.close()


def _workload():
    from repro.engine.environment import random_environments
    from repro.workload.collect import collect_labeled_plans, get_benchmark

    benchmark = get_benchmark("sysbench")
    envs = random_environments(ENV_COUNT + 1, seed=ENV_SEED)
    labeled = collect_labeled_plans(
        benchmark, envs[:ENV_COUNT], PLAN_COUNT, seed=PLAN_SEED
    )
    return [record.plan for record in labeled], envs


def test_golden_files_are_committed():
    assert GOLDEN.is_file(), (
        "golden checkpoint missing; regenerate with "
        "`PYTHONPATH=src python tests/persist/make_golden.py` and commit it"
    )
    assert EXPECTED.is_file()


def test_golden_manifest_reads_at_current_schema():
    manifest = read_manifest(GOLDEN)
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["meta"]["kind"] == "cost_service"
    assert manifest["blobs"], "golden checkpoint carries no weight blobs?"


def test_golden_restores_the_expected_deployments(golden_service):
    expected = json.loads(EXPECTED.read_text())
    assert golden_service.registry.names() == expected["bundles"]
    # The grafted env made the qppnet bundle version 2 pre-checkpoint.
    assert golden_service.registry.get("golden-qppnet").version == 2
    stats = golden_service.registry.stats_snapshot()
    assert stats["restored_from_checkpoint"] == len(expected["bundles"])
    assert (
        golden_service.snapshot_store.stats_snapshot().restored_from_checkpoint
        == 1
    )


def test_golden_predictions_match_recorded_values(golden_service):
    expected = json.loads(EXPECTED.read_text())
    plans, envs = _workload()
    got_q = golden_service.estimate_many(plans, envs[0], bundle="golden-qppnet")
    np.testing.assert_allclose(got_q, expected["qppnet"], rtol=1e-6)
    got_extra = golden_service.estimate_many(
        plans[:4], envs[-1], bundle="golden-qppnet"
    )
    np.testing.assert_allclose(
        got_extra, expected["qppnet_extra_env"], rtol=1e-6
    )
    # ... and the grafted env served from the restored snapshot set,
    # not a fresh fit.
    assert golden_service.snapshot_store.stats_snapshot().misses == 0
    got_pg = golden_service.estimate_many(plans, envs[0], bundle="golden-pg")
    np.testing.assert_allclose(got_pg, expected["postgres"], rtol=1e-6)


def test_legacy_v1_golden_restores_with_its_predictions():
    """The backward-compat contract: a schema-v1 checkpoint restores
    every bundle, predictions unchanged."""
    assert LEGACY.is_file(), "legacy v1 golden checkpoint went missing"
    manifest = read_manifest(LEGACY)
    assert manifest["schema_version"] == 1
    service = CostService(snapshot_store=SnapshotStore(), snapshot_scale=2)
    try:
        state, _ = load_checkpoint(LEGACY)
        service.load_state(state)
        expected = json.loads(LEGACY_EXPECTED.read_text())
        assert service.registry.names() == expected["bundles"]
        plans, envs = _workload()
        for name, key in (("golden-qppnet", "qppnet"), ("golden-pg", "postgres")):
            got = service.estimate_many(plans, envs[0], bundle=name)
            np.testing.assert_allclose(got, expected[key], rtol=1e-6)
    finally:
        service.close()


def test_future_schema_golden_raises_cleanly(tmp_path):
    """The forward-compat contract: an unknown schema_version is a
    clean CheckpointError, never a crash or a half-restore."""
    import struct

    from repro.persist.checkpoint import MAGIC

    data = GOLDEN.read_bytes()
    head = len(MAGIC) + 8
    (manifest_len,) = struct.unpack(">Q", data[len(MAGIC):head])
    manifest = json.loads(data[head:head + manifest_len])
    manifest["schema_version"] = SCHEMA_VERSION + 1
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
    future = tmp_path / "ckpt-00000001.qcp"
    future.write_bytes(
        MAGIC
        + struct.pack(">Q", len(manifest_bytes))
        + manifest_bytes
        + data[head + manifest_len:]
    )
    with pytest.raises(CheckpointError, match="schema_version"):
        load_checkpoint(future)
    service = CostService()
    try:
        assert service.restore(tmp_path) is False  # cold start, no crash
        assert len(service.registry) == 0
    finally:
        service.close()
