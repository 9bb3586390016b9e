"""QCFE pipeline integration at tiny scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import QCFE, QCFEConfig
from repro.engine.environment import random_environments
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
        assert result.masks
        assert 0.0 < result.reduction_ratio < 1.0
        assert result.base_train_stats is not None
        predictions = pipeline.predict_many(test)
        assert np.all(predictions > 0)

    def test_fit_with_reduction_mscn(self, tpch, environments, tpch_split):
        train, test = tpch_split
        pipeline = make_pipeline(tpch, environments, model="mscn", reduction="diff")
        result = pipeline.fit(train)
        assert result.global_mask is not None
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
        result = pipeline.fit(train)
        snapshot_slice = pipeline.operator_encoder.block_slice("snapshot")
        kept_snapshot = sum(
            int(mask[snapshot_slice].sum()) for mask in result.masks.values()
        )
        assert kept_snapshot > 0


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
            for op, mask in result.masks.items()
        }
        assert kept == _TRAIN_WORKLOAD_MASKS
        assert round(result.reduction_ratio, 4) == 0.7581
