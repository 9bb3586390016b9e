"""The drift-aware adaptation loop: detect -> refit -> validate -> swap.

Scenario mirrors the paper's Section IV discussion (and
``examples/dynamic_workload_recall.py``): feature reduction on a
point-select-only Sysbench workload prunes the range-query dimensions;
the workload then drifts to range queries, recall flags the pruned
dimensions, and the loop warm-retrains + hot-swaps a recalled bundle.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import QCFE, QCFEConfig, collect_baselines
from repro.engine.environment import random_environments
from repro.serving import (
    AdaptationConfig,
    CostService,
    SnapshotStore,
)
from repro.workload.collect import (
    collect_labeled_plans,
    interleave_by_environment,
)

from ..conftest import hammer

RANGE_SHAPES = {"simple_range", "sum_range", "order_range", "distinct_range"}


def labeled_shapes(benchmark, environments, shapes, total, seed):
    """Labelled sysbench plans restricted to the given query shapes."""
    return collect_labeled_plans(
        benchmark,
        environments,
        total,
        seed=seed,
        keep=lambda name: name in shapes,
    )


@pytest.fixture(scope="module")
def adapt_envs():
    return random_environments(2, seed=3)


@pytest.fixture(scope="module")
def point_trained(sysbench, adapt_envs):
    """QCFE reduced on a point-select-only workload + its baselines."""
    point_only = labeled_shapes(
        sysbench, adapt_envs, {"point_select"}, 80, seed=1
    )
    pipeline = QCFE(
        sysbench,
        adapt_envs,
        QCFEConfig(
            model="qppnet", epochs=3, template_scale=4, reduction="diff"
        ),
    )
    pipeline.fit(point_only)
    baselines = collect_baselines(pipeline.operator_encoder, point_only)
    return pipeline, baselines, point_only


#: Round-robin across environments (realistic concurrent traffic), so
#: the refit window's oldest-train/newest-shadow split covers every
#: environment on both sides.  Shared with the bench drift scenario.
interleave = interleave_by_environment


@pytest.fixture(scope="module")
def drifted_records(sysbench, adapt_envs):
    return interleave(
        labeled_shapes(sysbench, adapt_envs, RANGE_SHAPES, 60, seed=9)
    )


def make_service(pipeline, baselines, **config_kwargs):
    config_kwargs.setdefault("background", False)
    config_kwargs.setdefault("min_refit_records", 16)
    config_kwargs.setdefault("refit_epochs", 3)
    service = CostService(
        snapshot_store=SnapshotStore(),
        adaptation=AdaptationConfig(**config_kwargs),
    )
    bundle = pipeline.export_bundle()
    bundle.metadata["recall_baselines"] = baselines
    service.deploy(bundle)
    return service


class TestWatcherLifecycle:
    def test_deploy_attaches_watcher(self, point_trained):
        pipeline, baselines, _ = point_trained
        with make_service(pipeline, baselines) as service:
            watcher = service.adaptation.watcher("sysbench:qppnet")
            assert watcher is not None
            assert watcher.recall.baselines  # riding in bundle metadata

    def test_maskless_bundle_is_not_watched(self, sysbench, adapt_envs):
        from repro.featurization.encoding import OperatorEncoder
        from repro.models.qppnet import QPPNet
        from repro.serving import EstimatorBundle

        estimator = QPPNet(OperatorEncoder(sysbench.catalog), epochs=1)
        bundle = EstimatorBundle(
            name="unreduced", estimator=estimator, benchmark=sysbench
        )
        with CostService(adaptation=AdaptationConfig(background=False)) as svc:
            svc.deploy(bundle)
            assert svc.adaptation.watcher("unreduced") is None

    def test_adaptation_disabled_by_default(self, point_trained):
        pipeline, _, _ = point_trained
        with CostService(snapshot_store=SnapshotStore()) as service:
            service.deploy(pipeline.export_bundle())
            assert service.adaptation is None
            # record_feedback is a harmless no-op without adaptation.
            service.record_feedback("SELECT c FROM sbtest1 WHERE id = 5",
                                    random_environments(1, seed=3)[0],
                                    actual_ms=1.0)


class TestDriftLoop:
    def test_drift_flags_refit_promotes(
        self, point_trained, drifted_records, adapt_envs
    ):
        """The acceptance path: drift -> flag -> refit -> promote."""
        pipeline, baselines, _ = point_trained
        with make_service(pipeline, baselines) as service:
            name = "sysbench:qppnet"
            version_before = service.registry.get(name).version
            stale = service.registry.get(name)
            env_by_name = {env.name: env for env in adapt_envs}
            for record in drifted_records:
                service.record_feedback(record, env_by_name[record.env_name])
            service.adaptation.run_pending()

            stats = service.adaptation.stats
            watcher = service.adaptation.watcher(name)
            assert watcher.recall.total_flagged >= 1
            assert stats.dims_flagged >= 1
            assert stats.refits == 1
            assert stats.promotions == 1
            assert stats.rollbacks == 0

            promoted = service.registry.get(name)
            assert promoted.version == version_before + 1
            # The promoted masks re-include the recalled dimensions.
            kept_before = sum(int(m.sum()) for m in stale.masks.values())
            kept_after = sum(int(m.sum()) for m in promoted.masks.values())
            assert kept_after > kept_before
            # And the promoted bundle beats the stale one on the
            # drifted workload (that is what shadow scoring verified).
            from repro.nn.loss import numpy_q_error

            actual = np.array([r.latency_ms for r in drifted_records])
            stale_q = numpy_q_error(
                stale.predict_many(drifted_records), actual
            ).mean()
            new_q = numpy_q_error(
                promoted.predict_many(drifted_records), actual
            ).mean()
            assert new_q <= stale_q

    def test_rollback_keeps_live_bundle(
        self, point_trained, drifted_records, adapt_envs
    ):
        """An impossible promote bar forces the rollback path."""
        pipeline, baselines, _ = point_trained
        # Candidate must be 1000x better than live: never happens.
        with make_service(
            pipeline, baselines, promote_tolerance=-0.999
        ) as service:
            name = "sysbench:qppnet"
            version_before = service.registry.get(name).version
            env_by_name = {env.name: env for env in adapt_envs}
            for record in drifted_records:
                service.record_feedback(record, env_by_name[record.env_name])
            service.adaptation.run_pending()
            stats = service.adaptation.stats
            assert stats.refits == 1
            assert stats.rollbacks == 1
            assert stats.promotions == 0
            assert service.registry.get(name).version == version_before

    def test_no_refit_below_window_minimum(
        self, point_trained, drifted_records, adapt_envs
    ):
        pipeline, baselines, _ = point_trained
        with make_service(
            pipeline, baselines, min_refit_records=10_000
        ) as service:
            env_by_name = {env.name: env for env in adapt_envs}
            for record in drifted_records:
                service.record_feedback(record, env_by_name[record.env_name])
            service.adaptation.run_pending()
            stats = service.adaptation.stats
            assert stats.dims_flagged >= 1  # drift was seen ...
            assert stats.refits == 0  # ... but the window is too thin

    def test_estimate_traffic_alone_flags_drift(
        self, point_trained, drifted_records, adapt_envs
    ):
        """Unlabelled estimate() traffic feeds the detector too."""
        pipeline, baselines, _ = point_trained
        with make_service(pipeline, baselines) as service:
            env_by_name = {env.name: env for env in adapt_envs}
            for record in drifted_records[:30]:
                service.estimate(record.plan, env_by_name[record.env_name])
            service.adaptation.run_pending()
            stats = service.adaptation.stats
            assert stats.rows_observed > 0
            assert stats.dims_flagged >= 1
            # No labelled feedback -> no training window -> no refit.
            assert stats.refits == 0

    def test_feedback_from_sql_apportions_actuals(
        self, point_trained, adapt_envs
    ):
        pipeline, baselines, _ = point_trained
        with make_service(pipeline, baselines) as service:
            env = adapt_envs[0]
            sql = "SELECT c FROM sbtest1 WHERE id BETWEEN 11 AND 110"
            service.record_feedback(sql, env, actual_ms=7.5)
            watcher = service.adaptation.watcher("sysbench:qppnet")
            window = watcher.window_records()
            assert len(window) == 1
            record = window[0]
            assert record.latency_ms == 7.5
            root = record.plan
            assert root.actual_total_ms == pytest.approx(7.5)
            for node in root.walk():
                assert 0.0 <= node.actual_total_ms <= 7.5 + 1e-9

    def test_miss_rate_trip_triggers_refit(
        self, point_trained, drifted_records, adapt_envs
    ):
        pipeline, baselines, point_only = point_trained
        with make_service(
            pipeline,
            baselines,
            miss_rate_threshold=0.4,
            miss_rate_min_requests=2,
        ) as service:
            env_by_name = {env.name: env for env in adapt_envs}
            # Fill the window with in-distribution feedback (no drift).
            for record in point_only[:20]:
                service.record_feedback(record, env_by_name[record.env_name])
            service.adaptation.run_pending()
            assert service.adaptation.stats.refits == 0
            # Unseen knob configurations: every request misses the store.
            for env in random_environments(3, seed=77):
                service.estimate(point_only[0].plan, env)
            service.adaptation.run_pending()
            stats = service.adaptation.stats
            assert stats.miss_rate_trips >= 1
            assert stats.refits >= 1

    def test_background_worker_drives_loop(
        self, point_trained, drifted_records, adapt_envs
    ):
        """Same drift scenario, no manual run_pending: the RefitWorker
        thread observes, refits and swaps on its own."""
        pipeline, baselines, _ = point_trained
        with make_service(
            pipeline, baselines, background=True, poll_interval_s=0.01
        ) as service:
            name = "sysbench:qppnet"
            version_before = service.registry.get(name).version
            env_by_name = {env.name: env for env in adapt_envs}
            for record in drifted_records:
                service.record_feedback(record, env_by_name[record.env_name])
            assert service.adaptation.wait_idle(timeout=60.0)
            stats = service.adaptation.stats
            assert stats.refits >= 1
            assert stats.promotions + stats.rollbacks == stats.refits
            if stats.promotions:
                assert service.registry.get(name).version > version_before

    def test_refit_under_async_load_serves_every_request(
        self, point_trained, drifted_records, adapt_envs
    ):
        """Threads hammer the async path for as long as the background
        refit runs: no request fails, the loop counts no error, and it
        still recalls, refits and promotes."""
        pipeline, baselines, _ = point_trained
        env_by_name = {env.name: env for env in adapt_envs}
        probe = [
            (record.plan, env_by_name[record.env_name])
            for record in drifted_records[:16]
        ]
        with make_service(
            pipeline, baselines, background=True, poll_interval_s=0.01
        ) as service:
            stats = service.adaptation.stats
            for record in drifted_records:
                service.record_feedback(record, env_by_name[record.env_name])

            def work(index):
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    for plan, env in probe:
                        future = service.estimate_async(plan, env)
                        assert np.isfinite(future.result(timeout=30.0))
                    if stats.promotions + stats.rollbacks:
                        return

            errors = hammer(work)
            assert service.adaptation.wait_idle(timeout=60.0)
            flagged = service.adaptation.watcher("sysbench:qppnet").recall.total_flagged
            loop_errors = service.counters()["adaptation"]["errors"]
        assert errors == []
        assert flagged >= 1
        assert stats.promotions >= 1
        assert loop_errors == 0

    def test_report_includes_adaptation_counters(
        self, point_trained, drifted_records, adapt_envs
    ):
        pipeline, baselines, _ = point_trained
        with make_service(pipeline, baselines) as service:
            env_by_name = {env.name: env for env in adapt_envs}
            for record in drifted_records[:20]:
                service.record_feedback(record, env_by_name[record.env_name])
            service.adaptation.run_pending()
            text = service.report()
            assert "adaptation" in text
            assert "promotions" in text


def test_feedback_does_not_mutate_caller_plan(point_trained, adapt_envs):
    """Labelling a caller-built plan must happen on a copy."""
    pipeline, baselines, point_only = point_trained
    with make_service(pipeline, baselines) as service:
        env = adapt_envs[0]
        donor = point_only[0]
        plan = donor.plan
        before = [node.actual_total_ms for node in plan.walk()]
        service.record_feedback(plan, env, actual_ms=99.0)
        after = [node.actual_total_ms for node in plan.walk()]
        assert after == before  # caller's object untouched
        window = service.adaptation.watcher("sysbench:qppnet").window_records()
        assert window[-1].plan is not plan
        assert window[-1].latency_ms == 99.0


def test_redeploy_with_new_masks_refreshes_watcher(point_trained):
    """An offline retrain deployed under the same name must not inherit
    drift state accumulated against the old reduction masks."""
    import numpy as np

    pipeline, baselines, _ = point_trained
    with make_service(pipeline, baselines) as service:
        first = service.adaptation.watcher("sysbench:qppnet")
        # Identical redeploy: the watcher (and its flags) is kept.
        service.deploy(pipeline.export_bundle())
        assert service.adaptation.watcher("sysbench:qppnet") is first
        # Redeploy with widened masks (an offline retrain): refreshed.
        bundle = pipeline.export_bundle()
        bundle.masks = {
            op: np.ones_like(mask) for op, mask in bundle.masks.items()
        }
        service.deploy(bundle)
        second = service.adaptation.watcher("sysbench:qppnet")
        assert second is not first


def test_worker_survives_bad_feedback(point_trained, adapt_envs):
    """A malformed record must not kill the background worker."""
    pipeline, baselines, _ = point_trained
    with make_service(
        pipeline, baselines, background=True, poll_interval_s=0.01
    ) as service:
        watcher = service.adaptation.watcher("sysbench:qppnet")
        # A record whose plan walk explodes mid-observation.
        class _BoomPlan:
            def walk(self):
                raise RuntimeError("corrupted plan")

        from repro.engine.executor import LabeledPlan

        bad = LabeledPlan.__new__(LabeledPlan)
        bad.plan = _BoomPlan()
        bad.latency_ms = 1.0
        bad.env_name = adapt_envs[0].name
        bad.query_sql = ""
        bad.template = ""
        watcher.enqueue(bad, labeled=False)
        deadline = __import__("time").monotonic() + 10.0
        while (
            service.adaptation.stats.errors < 1
            and __import__("time").monotonic() < deadline
        ):
            __import__("time").sleep(0.01)
        assert service.adaptation.stats.errors >= 1
        # The worker is still alive and processes new traffic.
        good = labeled_shapes(
            pipeline.benchmark, adapt_envs, {"point_select"}, 4, seed=5
        )
        for record in good:
            watcher.enqueue(record, labeled=False)
        assert service.adaptation.wait_idle(timeout=10.0)
        assert service.adaptation.stats.rows_observed > 0


class TestGlobalMaskBundles:
    def test_mscn_bundle_is_watched_and_adapts(self, sysbench, adapt_envs):
        """Global-mask (MSCN) bundles run the loop too: the single
        keep-vector is watched under every operator and the recalled
        dimensions union back into a promoted global mask."""
        point_only = interleave(
            labeled_shapes(sysbench, adapt_envs, {"point_select"}, 80, seed=1)
        )
        pipeline = QCFE(
            sysbench,
            adapt_envs,
            QCFEConfig(
                model="mscn", epochs=3, template_scale=4, reduction="diff"
            ),
        )
        pipeline.fit(point_only)
        assert pipeline.result.global_mask is not None
        with make_service(pipeline, baselines=None) as service:
            name = "sysbench:mscn"
            watcher = service.adaptation.watcher(name)
            assert watcher is not None
            assert watcher.global_mode
            stale = service.registry.get(name)
            assert not (~np.asarray(stale.global_mask, bool)).sum() == 0

            env_by_name = {env.name: env for env in adapt_envs}
            drifted = interleave(
                labeled_shapes(sysbench, adapt_envs, RANGE_SHAPES, 60, seed=9)
            )
            for record in drifted:
                service.record_feedback(record, env_by_name[record.env_name])
            service.adaptation.run_pending()

            stats = service.adaptation.stats
            assert stats.dims_flagged >= 1
            assert stats.refits == 1
            assert stats.promotions + stats.rollbacks == 1
            if stats.promotions:
                promoted = service.registry.get(name)
                assert promoted.version > stale.version
                kept_before = int(np.asarray(stale.global_mask, bool).sum())
                kept_after = int(np.asarray(promoted.global_mask, bool).sum())
                assert kept_after > kept_before


def test_failed_refit_keeps_drift_trigger(
    point_trained, drifted_records, adapt_envs, monkeypatch
):
    """A refit that dies mid-way must not consume the drift flag —
    recall never re-flags a dimension, so a dropped trigger would
    leave the stale model serving forever."""
    from repro.models.qppnet import QPPNet

    pipeline, baselines, _ = point_trained
    with make_service(pipeline, baselines) as service:
        name = "sysbench:qppnet"
        env_by_name = {env.name: env for env in adapt_envs}
        for record in drifted_records:
            service.record_feedback(record, env_by_name[record.env_name])

        def boom(self, *args, **kwargs):
            raise RuntimeError("refit died")

        monkeypatch.setattr(QPPNet, "warm_retrain", boom)
        with pytest.raises(RuntimeError, match="refit died"):
            service.adaptation.run_pending()
        watcher = service.adaptation.watcher(name)
        assert watcher.drift_pending  # trigger survived the failure
        assert service.adaptation.stats.promotions == 0

        # With the failure gone, the retried refit completes and swaps.
        monkeypatch.undo()
        service.adaptation.run_pending()
        assert not watcher.drift_pending
        assert service.adaptation.stats.promotions == 1
        assert service.registry.get(name).version == 2
