"""CostService end-to-end: parse -> plan -> featurize -> predict.

Uses a tiny QCFE(qpp) pipeline on Sysbench (the cheapest benchmark) so
the whole module stays fast; the trained bundle is session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.errors import ReproError, ServingError
from repro.serving import CostService, EstimatorRegistry, SnapshotStore
from repro.workload.collect import collect_labeled_plans


@pytest.fixture(scope="module")
def serving_envs():
    return random_environments(2, seed=3)


@pytest.fixture(scope="module")
def trained_bundle(sysbench, serving_envs):
    labeled = collect_labeled_plans(sysbench, serving_envs, 40, seed=1)
    pipeline = QCFE(
        sysbench,
        serving_envs,
        QCFEConfig(model="qppnet", epochs=2, template_scale=4),
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle(), labeled


@pytest.fixture()
def service(trained_bundle):
    bundle, _ = trained_bundle
    svc = CostService(snapshot_store=SnapshotStore(), batch_window_s=0.01)
    svc.deploy(bundle)
    yield svc
    svc.close()


def test_bundle_export_carries_pipeline_state(trained_bundle):
    bundle, _ = trained_bundle
    assert bundle.name == "sysbench:qppnet"
    assert bundle.benchmark is not None
    assert bundle.snapshot_set is not None
    assert bundle.metadata["model"] == "qppnet"
    assert bundle.metadata["trained"] is True
    assert len(bundle.env_names) == 2


def test_estimate_from_sql_and_cache_hit(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    sql = labeled[0].query_sql
    env = serving_envs[0]
    first = service.estimate(sql, env)
    assert np.isfinite(first) and first > 0
    second = service.estimate(sql, env)
    assert second == first
    assert service.cache.stats.hits >= 1
    assert service.stats.requests == 2
    # Every stage of the online path ran and was timed.
    for stage, count, _, _ in service.stats.stage_rows():
        assert count >= 1, stage


def test_estimate_many_matches_single_path(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    queries = [record.query_sql for record in labeled[:10]]
    env = serving_envs[1]
    batched = service.estimate_many(queries, env, batch_size=4)
    singles = np.array([service.estimate(sql, env) for sql in queries])
    assert batched.shape == (10,)
    assert np.allclose(batched, singles)


def test_estimate_accepts_prebuilt_plans(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    env = serving_envs[0]
    record = labeled[0]
    via_plan = service.estimate(record.plan, env)
    assert np.isfinite(via_plan) and via_plan > 0


def test_async_estimates_match_sync(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    env = serving_envs[0]
    queries = [record.query_sql for record in labeled[:6]]
    futures = [service.estimate_async(sql, env) for sql in queries]
    sync = [service.estimate(sql, env) for sql in queries]
    async_values = [future.result(timeout=10.0) for future in futures]
    assert np.allclose(async_values, sync)
    stats = service.batcher_stats()["sysbench:qppnet"]
    assert stats.submitted == 6


def test_unknown_environment_triggers_snapshot_fit_and_hot_swap(
    service, trained_bundle, serving_envs
):
    bundle, labeled = trained_bundle
    version_before = service.registry.get(bundle.name).version
    new_env = random_environments(1, seed=99)[0]
    value = service.estimate(labeled[0].query_sql, new_env)
    assert np.isfinite(value) and value > 0
    swapped = service.registry.get(bundle.name)
    assert swapped.version == version_before + 1
    assert new_env.name in swapped.env_names
    assert service.snapshot_store.stats.misses == 1
    # Same knobs again: served from the store, no second fit.
    renamed = random_environments(1, seed=99)[0]
    object.__setattr__(renamed, "name", "same-knobs-new-name")
    service.estimate(labeled[0].query_sql, renamed)
    assert service.snapshot_store.stats.hits == 1


def test_unknown_environment_without_store_is_an_error(trained_bundle, serving_envs):
    bundle, labeled = trained_bundle
    with CostService(registry=EstimatorRegistry()) as svc:
        svc.deploy(bundle)
        with pytest.raises(ServingError, match="no SnapshotStore"):
            svc.estimate(labeled[0].query_sql, random_environments(1, seed=77)[0])


def test_report_renders(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    service.estimate(labeled[0].query_sql, serving_envs[0])
    text = service.report()
    assert "stage" in text
    assert "feature-cache" in text
    assert "snapshot-store" in text


def test_counters_snapshot_is_consistent_and_detached(
    service, trained_bundle, serving_envs
):
    _, labeled = trained_bundle
    env = serving_envs[0]
    sql = labeled[0].query_sql
    service.estimate(sql, env)
    service.estimate(sql, env)
    service.estimate_async(sql, env).result(timeout=10.0)
    counters = service.counters()

    # Internally consistent: totals derived from the same atomic copy.
    cache = counters["feature_cache"]
    assert cache["requests"] == (
        cache["hits"] + cache["misses"] + cache["coalesced"]
    )
    assert counters["service"]["requests"] == 3
    stages = counters["service"]["stages"]
    assert set(stages) == {"parse", "plan", "featurize", "predict"}
    assert stages["predict"]["calls"] >= 3
    batcher = counters["batchers"]["sysbench:qppnet"]
    assert batcher["submitted"] == 1

    # Detached: a snapshot is a copy, later traffic cannot mutate it.
    service.estimate(sql, env)
    assert counters["service"]["requests"] == 3
    assert cache["requests"] == service.counters()["feature_cache"]["requests"] - 1


def test_stats_snapshots_are_copies(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    service.estimate(labeled[0].query_sql, serving_envs[0])
    cache_before = service.cache.stats_snapshot()
    store_before = service.snapshot_store.stats_snapshot()
    service.estimate(labeled[0].query_sql, serving_envs[0])
    assert service.cache.stats_snapshot().requests == cache_before.requests + 1
    assert cache_before is not service.cache.stats
    assert store_before is not service.snapshot_store.stats


def test_request_counters_are_conserved_across_entry_points(
    service, trained_bundle, serving_envs
):
    """Every entry point is admit -> one fused predict, so over mixed
    traffic each admitted request is counted once in ``requests``,
    ``batched_requests`` and the featurize/predict stages, and every
    predict invocation counts one ``predict_batches``."""
    _, labeled = trained_bundle
    env, other_env = serving_envs
    sqls = [record.query_sql for record in labeled[:5]]

    service.estimate(sqls[0], env)  # SQL: 1 admitted, 1 predict
    service.estimate(labeled[1].plan, env)  # plan: 1 admitted, 1 predict
    with pytest.raises(ReproError):
        service.estimate("THIS IS NOT SQL !!", env)  # not admitted
    service.estimate_many(sqls, env, batch_size=2)  # SQL: 5 admitted, 3 predicts
    futures = [service.estimate_async(sql, other_env) for sql in sqls[:3]]
    assert all(future.result(timeout=30) > 0 for future in futures)
    outcomes = service.estimate_batch(
        [
            (sqls[1], env, None),
            ("THIS IS NOT SQL !!", env, None),
            (labeled[2].plan, other_env, None),
        ]
    )  # 1 SQL + 1 plan admitted, 1 predict
    assert isinstance(outcomes[1], ReproError)
    assert outcomes[0] > 0 and outcomes[2] > 0

    counters = service.counters()["service"]
    flushes = service.batcher_stats()["sysbench:qppnet"].batches
    admitted, admitted_sql = 2 + 5 + 3 + 2, 1 + 5 + 3 + 1
    assert counters["requests"] == admitted
    assert counters["batched_requests"] == admitted
    assert counters["stages"]["featurize"]["calls"] == admitted
    assert counters["stages"]["predict"]["calls"] == admitted
    assert counters["predict_batches"] == 1 + 1 + 3 + flushes + 1
    assert counters["stages"]["parse"]["calls"] == admitted_sql
