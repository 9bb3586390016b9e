"""QCFE pipeline integration at tiny scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.engine.operators import OperatorType
from repro.errors import TrainingError
from repro.models.mscn import MSCN
from repro.models.qppnet import QPPNet
from repro.workload.collect import collect_labeled_plans


def make_pipeline(tpch, environments, **overrides):
    defaults = dict(model="qppnet", snapshot_source="template", reduction=None,
                    epochs=3, template_scale=2)
    defaults.update(overrides)
    return QCFE(tpch, environments, QCFEConfig(**defaults))


class TestConstruction:
    def test_model_selection(self, tpch, environments):
        assert isinstance(make_pipeline(tpch, environments).estimator, QPPNet)
        assert isinstance(
            make_pipeline(tpch, environments, model="mscn").estimator, MSCN
        )

    def test_unknown_model_rejected(self, tpch, environments):
        with pytest.raises(TrainingError):
            make_pipeline(tpch, environments, model="transformer")


class TestSnapshotFitting:
    def test_template_source(self, tpch, environments):
        pipeline = make_pipeline(tpch, environments)
        snapshot_set, seconds = pipeline.fit_snapshot()
        assert snapshot_set is not None
        assert set(snapshot_set.env_names) == {e.name for e in environments}
        assert seconds > 0

    def test_original_source(self, tpch, environments):
        pipeline = make_pipeline(
            tpch, environments, snapshot_source="original",
            snapshot_queries_per_env=10,
        )
        snapshot_set, _ = pipeline.fit_snapshot()
        assert snapshot_set is not None
        assert snapshot_set.total_collection_ms > 0

    def test_none_source(self, tpch, environments):
        pipeline = make_pipeline(tpch, environments, snapshot_source=None)
        snapshot_set, seconds = pipeline.fit_snapshot()
        assert snapshot_set is None
        assert seconds == 0.0

    def test_bad_source_rejected(self, tpch, environments):
        pipeline = make_pipeline(tpch, environments, snapshot_source="exact")
        with pytest.raises(TrainingError):
            pipeline.fit_snapshot()


class TestFitEvaluate:
    def test_fit_without_reduction(self, tpch, environments, tpch_split):
        train, test = tpch_split
        pipeline = make_pipeline(tpch, environments)
        result = pipeline.fit(train)
        assert result.train_stats.train_seconds > 0
        assert result.base_train_stats is None
        report = pipeline.evaluate(test)
        assert report.mean_q_error >= 1.0
        assert -1.0 <= report.pearson <= 1.0

    @pytest.mark.parametrize("reduction", ["diff", "gradient"])
    def test_fit_with_reduction_qppnet(self, tpch, environments, tpch_split, reduction):
        train, test = tpch_split
        pipeline = make_pipeline(tpch, environments, reduction=reduction)
        result = pipeline.fit(train)
        assert pipeline.estimator.keep_masks()
        assert 0.0 < result.reduction_ratio < 1.0
        assert result.base_train_stats is not None
        predictions = pipeline.predict_many(test)
        assert np.all(predictions > 0)

    def test_fit_with_reduction_mscn(self, tpch, environments, tpch_split):
        train, test = tpch_split
        pipeline = make_pipeline(tpch, environments, model="mscn", reduction="diff")
        result = pipeline.fit(train)
        assert pipeline.estimator.global_mask is not None
        assert 0.0 <= result.reduction_ratio < 1.0
        assert np.all(pipeline.predict_many(test) > 0)

    def test_greedy_reduction_qppnet(self, tpch, environments, tpch_split):
        train, test = tpch_split
        pipeline = make_pipeline(
            tpch, environments, reduction="greedy",
            greedy_max_rounds=1, greedy_sample=24,
        )
        result = pipeline.fit(train)
        assert result.reduction_ratio < 0.1  # greedy barely prunes
        assert np.all(pipeline.predict_many(test) > 0)

    def test_scoring_time_recorded(self, tpch, environments, tpch_split):
        train, _ = tpch_split
        pipeline = make_pipeline(tpch, environments, reduction="diff")
        result = pipeline.fit(train)
        assert 0 < result.scoring_seconds <= result.reduction_seconds

    def test_masks_keep_snapshot_dims_somewhere(self, tpch, environments, tpch_split):
        """The env signal must survive reduction for QCFE to work."""
        train, _ = tpch_split
        pipeline = make_pipeline(tpch, environments, reduction="diff", epochs=4)
        pipeline.fit(train)
        snapshot_slice = pipeline.operator_encoder.block_slice("snapshot")
        kept_snapshot = sum(
            int(mask[snapshot_slice].sum())
            for mask in pipeline.estimator.keep_masks().values()
        )
        assert kept_snapshot > 0


class TestRefit:
    @pytest.mark.parametrize("model", ["qppnet", "mscn"])
    def test_second_fit_of_a_reduced_pipeline_equals_a_fresh_fit(
        self, sysbench, environments, sysbench_labeled, model
    ):
        train, test = sysbench_labeled[:40], sysbench_labeled[40:80]
        refit = make_pipeline(
            sysbench, environments, model=model, reduction="diff", epochs=2
        )
        refit.fit(train[::-1])
        second = refit.fit(train)
        fresh = make_pipeline(
            sysbench, environments, model=model, reduction="diff", epochs=2
        )
        first = fresh.fit(train)
        assert second.reduction_ratio == first.reduction_ratio
        masks, fresh_masks = refit.estimator.keep_masks(), fresh.estimator.keep_masks()
        assert masks.keys() == fresh_masks.keys()
        for op, mask in masks.items():
            assert np.array_equal(mask, fresh_masks[op]), op
        assert np.array_equal(
            refit.predict_many(test).view(np.uint64),
            fresh.predict_many(test).view(np.uint64),
        )

    def test_refit_leaves_an_exported_bundle_alone(
        self, sysbench, environments, sysbench_labeled
    ):
        train, test = sysbench_labeled[:40], sysbench_labeled[40:80]
        pipeline = make_pipeline(sysbench, environments, epochs=2)
        pipeline.fit(train)
        bundle = pipeline.export_bundle()
        before = bundle.estimator.predict_many(
            test, snapshot_set=bundle.snapshot_set
        )
        pipeline.fit(train[::-1])
        after = bundle.estimator.predict_many(test, snapshot_set=bundle.snapshot_set)
        assert np.array_equal(before.view(np.uint64), after.view(np.uint64))
        assert pipeline.estimator is not bundle.estimator


#: Difference-propagation masks (kept encoder dims per operator) of
#: QCFE.fit on the end-to-end benchmark's training inputs; they depend
#: on every bit of the base model's training and of operator_dataset.
_TRAIN_WORKLOAD_MASKS = {
    "Seq Scan": [9, 10, 11, 12, 13, 14, 15, 16, 20, 21, 26, 28, 30, 32, 33, 34,
                 35, 37, 41, 42, 43, 47, 48, 49, 50, 51, 58, 74, 75, 76, 78, 82,
                 84, 85],
    "Aggregate": [17, 19, 22, 30, 31, 35, 37, 39, 42, 43, 44, 48, 49, 50, 53, 59,
                  60, 74, 75, 76, 77, 80, 82, 84, 85],
    "Sort": [17, 19, 22, 23, 24, 30, 35, 36, 37, 39, 40, 42, 43, 44, 46, 48, 53,
             54, 59, 60, 61, 62, 74, 75, 76, 77, 84, 85],
    "Hash Join": [17, 19, 22, 23, 24, 36, 38, 39, 40, 46, 53, 54, 57, 59, 61, 74,
                  75, 76, 77, 82, 84, 85],
    "Limit": [74, 75, 76, 77, 82, 83],
    "Nested Loop": [23, 36, 38, 46, 57, 61, 74, 75, 76, 82, 84, 85, 86, 87],
    "Merge Join": [17, 19, 22, 23, 24, 36, 39, 40, 46, 53, 54, 59, 61, 74, 75, 76,
                   77, 82, 84, 85],
}


#: Dropped encoder dims per operator (MSCN: of its one global mask,
#: which ``keep_masks`` repeats under every operator) and the reduction
#: ratio of the other model x method cells, on this module's fixture
#: sizes (greedy: one round over 24 sampled plans).
_FIXTURE_DROPS = {
    ("qppnet", "gradient"): ({
        "Seq Scan": [0, 2, 4, 5, 6, 7, 9, 12, 14, 20, 21, 22, 23, 28, 30, 32,
                     33, 36, 38, 40, 41, 43, 44, 45, 50, 55, 58, 60, 62, 64,
                     66, 67, 68, 69, 73, 77, 81, 83, 84, 87],
        "Hash Join": [3, 8, 9, 15, 22, 23, 24, 25, 27, 30, 33, 34, 35, 40, 42,
                      43, 45, 46, 48, 49, 54, 56, 59, 60, 62, 63, 64, 66, 67,
                      68, 74, 77, 78, 79, 80, 81, 82, 84, 85, 86],
        "Aggregate": [0, 1, 2, 3, 7, 9, 10, 11, 12, 14, 16, 19, 20, 24, 28, 33,
                      34, 38, 39, 42, 44, 50, 51, 52, 55, 57, 58, 60, 61, 65,
                      69, 70, 72, 76, 78, 81, 82, 83, 84, 87],
        "Sort": [0, 5, 6, 8, 9, 11, 13, 14, 16, 17, 24, 25, 27, 28, 31, 33, 37,
                 40, 41, 42, 44, 48, 51, 52, 53, 55, 56, 57, 58, 61, 63, 67,
                 68, 69, 75, 78, 79, 81, 82, 83],
        "Limit": [0, 2, 3, 4, 5, 6, 9, 12, 15, 16, 18, 21, 24, 27, 29, 30, 34,
                  39, 41, 43, 44, 46, 47, 50, 53, 56, 57, 59, 60, 62, 63, 65,
                  67, 69, 72, 73, 74, 76, 78, 84],
        "Merge Join": [0, 1, 5, 11, 19, 20, 21, 22, 24, 26, 28, 30, 31, 36, 39,
                       40, 43, 44, 45, 48, 50, 53, 54, 56, 58, 61, 63, 65, 66,
                       68, 69, 71, 74, 76, 78, 80, 81, 82, 84, 87],
        "Nested Loop": [0, 3, 6, 8, 11, 13, 14, 17, 18, 23, 24, 25, 29, 30, 33,
                        36, 38, 40, 46, 49, 52, 53, 54, 57, 58, 63, 65, 66, 67,
                        68, 70, 71, 72, 74, 78, 79, 80, 81, 84, 85],
    }, 0.4545454545454546),
    ("qppnet", "greedy"): ({
        "Seq Scan": [8],
        "Hash Join": [8],
        "Aggregate": [8],
        "Sort": [8],
        "Limit": [8],
        "Merge Join": [8],
        "Nested Loop": [8],
    }, 0.011363636363636354),
    ("mscn", "diff"): (
        [1, 7, 18, 25, 27, 29, 45, 52, 55, 56, 63, 64, 65, 66, 67, 68, 69, 70,
         71, 72, 73],
        0.23863636363636365,
    ),
    ("mscn", "gradient"): (
        [0, 1, 2, 5, 7, 13, 17, 19, 22, 23, 24, 27, 28, 35, 38, 39, 40, 44, 47,
         48, 51, 52, 55, 56, 57, 61, 62, 63, 65, 68, 71, 73, 74, 75, 78, 80,
         82, 84],
        0.43181818181818177,
    ),
    ("mscn", "greedy"): (
        [82],
        0.011363636363636354,
    ),
}


@pytest.mark.parametrize("model, reduction", sorted(_FIXTURE_DROPS))
def test_fixture_masks_and_ratio_pinned(
    tpch, environments, tpch_split, model, reduction
):
    train, _ = tpch_split
    pipeline = make_pipeline(
        tpch, environments, model=model, reduction=reduction,
        greedy_max_rounds=1, greedy_sample=24,
    )
    result = pipeline.fit(train)
    drops, ratio = _FIXTURE_DROPS[model, reduction]
    masks = pipeline.estimator.keep_masks()
    if model == "mscn":
        assert set(masks) == set(OperatorType)
        drops = {op.value: drops for op in OperatorType}
    assert {
        op.value: np.flatnonzero(~mask).tolist() for op, mask in masks.items()
    } == drops
    assert result.reduction_ratio == ratio


class TestTrainWorkloadReduction:
    def test_masks_and_ratio_pinned(self, tpch):
        """The tpch-train inputs of benchmarks/e2e (8 environments,
        320 plans, 8 epochs, template scale 8, FR reduction)."""
        envs = random_environments(8, seed=5)
        train = collect_labeled_plans(tpch, envs, 320, seed=11)
        pipeline = QCFE(tpch, envs, QCFEConfig(
            model="qppnet", epochs=8, template_scale=8, reduction="diff"))
        result = pipeline.fit(train)
        kept = {
            op.value: np.flatnonzero(mask).tolist()
            for op, mask in pipeline.estimator.keep_masks().items()
        }
        assert kept == _TRAIN_WORKLOAD_MASKS
        assert round(result.reduction_ratio, 4) == 0.7581
