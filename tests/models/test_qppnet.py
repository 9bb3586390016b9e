"""QPPNet: plan-structured training, masks, warm starts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.operators import OperatorType
from repro.errors import TrainingError
from repro.featurization.encoding import OperatorEncoder
from repro.models.qppnet import LATENCY_FLOOR_MS, QPPNet, from_log, to_log
from repro.models.training import evaluate_estimator


@pytest.fixture()
def encoder(tpch):
    return OperatorEncoder(tpch.catalog)


class TestLogTransform:
    def test_roundtrip(self):
        for ms in (0.001, 1.0, 5000.0):
            assert from_log(np.array(to_log(ms))) == pytest.approx(ms)

    def test_floor_applied(self):
        assert from_log(np.array(-200.0)) == LATENCY_FLOOR_MS
        assert to_log(0.0) == to_log(LATENCY_FLOOR_MS / 2)


class TestStructure:
    def test_unit_per_operator(self, encoder):
        model = QPPNet(encoder, epochs=1)
        assert set(model.units) == set(OperatorType)

    def test_unit_input_dims(self, encoder):
        model = QPPNet(encoder, data_size=8, epochs=1)
        unit = model.units[OperatorType.SEQ_SCAN]
        assert unit.modules[0].in_features == encoder.dim + 16

    def test_deterministic_init(self, encoder):
        a = QPPNet(encoder, seed=1, epochs=1)
        b = QPPNet(encoder, seed=1, epochs=1)
        for op in OperatorType:
            np.testing.assert_array_equal(
                a.units[op].modules[0].weight.data,
                b.units[op].modules[0].weight.data,
            )

    def test_empty_training_set_rejected(self, encoder):
        with pytest.raises(TrainingError):
            QPPNet(encoder, epochs=1).fit([])


class TestTraining:
    def test_loss_decreases(self, encoder, tpch_split):
        train, _ = tpch_split
        model = QPPNet(encoder, epochs=8)
        stats = model.fit(train)
        assert stats.loss_history[-1] < stats.loss_history[0]
        assert stats.epochs == 8
        assert stats.n_parameters == model.num_parameters()

    def test_predictions_positive_for_all(self, encoder, tpch_split):
        train, test = tpch_split
        model = QPPNet(encoder, epochs=5)
        model.fit(train)
        predictions = model.predict_many(test)
        assert predictions.shape == (len(test),)
        assert np.all(predictions >= LATENCY_FLOOR_MS)

    def test_learns_better_than_constant(self, encoder, tpch_split):
        train, test = tpch_split
        model = QPPNet(encoder, epochs=12)
        model.fit(train)
        report = evaluate_estimator(model, test)
        assert report.pearson > 0.5

    def test_predict_empty(self, encoder):
        model = QPPNet(encoder, epochs=1)
        assert model.predict_many([]).shape == (0,)


class TestMasks:
    def test_install_masks_rebuilds_units(self, encoder):
        model = QPPNet(encoder, epochs=1)
        keep = np.zeros(encoder.dim, dtype=bool)
        keep[:10] = True
        model.install_masks({OperatorType.SEQ_SCAN: keep})
        unit = model.units[OperatorType.SEQ_SCAN]
        assert unit.modules[0].in_features == 10 + 2 * model.data_size
        # Unmasked ops keep the full width.
        assert model.units[OperatorType.SORT].modules[0].in_features == (
            encoder.dim + 2 * model.data_size
        )

    def test_masked_model_trains_and_predicts(self, encoder, tpch_split):
        train, test = tpch_split
        model = QPPNet(encoder, epochs=3)
        keep = np.ones(encoder.dim, dtype=bool)
        keep[5:40] = False
        model.install_masks({op: keep.copy() for op in OperatorType})
        model.fit(train)
        assert np.all(model.predict_many(test) > 0)

    def test_warm_start_preserves_function_on_constant_drop(self, encoder, tpch_split):
        """Dropping constant dims with fold_means must not change the
        model's predictions before retraining."""
        train, test = tpch_split
        model = QPPNet(encoder, epochs=3)
        model.fit(train)
        before = model.predict_many(test)

        datasets = model.operator_dataset(train)
        masks, fold_means = {}, {}
        for op, data in datasets.items():
            features = data[:, : encoder.dim]
            constant = features.std(axis=0) < 1e-12
            masks[op] = ~constant
            fold_means[op] = data.mean(axis=0)
        model.install_masks(masks, fold_means=fold_means)
        after = model.predict_many(test)
        np.testing.assert_allclose(after, before, rtol=1e-6)


class TestOperatorDataset:
    def test_shapes(self, encoder, tpch_split):
        train, _ = tpch_split
        model = QPPNet(encoder, epochs=1)
        datasets = model.operator_dataset(train)
        for _op, data in datasets.items():
            assert data.shape[1] == encoder.dim + 2 * model.data_size

    def test_counts_match_plans(self, encoder, tpch_split):
        train, _ = tpch_split
        model = QPPNet(encoder, epochs=1)
        datasets = model.operator_dataset(train)
        total = sum(len(d) for d in datasets.values())
        expected = sum(r.plan.node_count for r in train)
        # ops with fewer than 2 samples are dropped from the dataset
        assert total <= expected
        assert total >= expected - len(OperatorType)

    def test_reduction_sets_refuse_a_masked_model(self, encoder, tpch_split):
        """Reduction scores the full encoder width, so a masked model
        has no reduction sets (MSCN's ``final_input_dataset`` refuses
        the same case)."""
        train, _ = tpch_split
        model = QPPNet(encoder, epochs=1)
        assert {s.key for s in model.reduction_sets(train)} == set(
            model.operator_dataset(train)
        )
        model.install_masks({OperatorType.SORT: np.ones(encoder.dim, dtype=bool)})
        with pytest.raises(TrainingError):
            model.reduction_sets(train)
