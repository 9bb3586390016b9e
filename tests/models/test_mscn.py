"""MSCN: set-based training, global mask, warm starts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.featurization.mscn_features import MSCNEncoder
from repro.models.mscn import MSCN
from repro.models.training import evaluate_estimator


@pytest.fixture()
def encoder(tpch):
    return MSCNEncoder(tpch.catalog)


class TestTraining:
    def test_loss_decreases(self, encoder, tpch_split):
        train, _ = tpch_split
        model = MSCN(encoder, epochs=10)
        stats = model.fit(train)
        assert stats.loss_history[-1] < stats.loss_history[0]

    def test_rejects_empty(self, encoder):
        with pytest.raises(TrainingError):
            MSCN(encoder, epochs=1).fit([])

    def test_predictions_positive(self, encoder, tpch_split):
        train, test = tpch_split
        model = MSCN(encoder, epochs=5)
        model.fit(train)
        assert np.all(model.predict_many(test) > 0)

    def test_correlates_with_latency(self, encoder, tpch_split):
        train, test = tpch_split
        model = MSCN(encoder, epochs=15)
        model.fit(train)
        assert evaluate_estimator(model, test).pearson > 0.4

    def test_deterministic_by_seed(self, encoder, tpch_split):
        train, test = tpch_split
        a = MSCN(encoder, epochs=3, seed=5)
        b = MSCN(encoder, epochs=3, seed=5)
        a.fit(train)
        b.fit(train)
        np.testing.assert_allclose(a.predict_many(test), b.predict_many(test))


class TestGlobalMask:
    def test_mask_shrinks_out_net(self, encoder):
        model = MSCN(encoder, epochs=1)
        keep = np.zeros(encoder.global_dim, dtype=bool)
        keep[:7] = True
        model.install_masks({"out_net": keep})
        assert model.out_net.modules[0].in_features == 3 * model.hidden + 7

    def test_masked_model_trains(self, encoder, tpch_split):
        train, test = tpch_split
        model = MSCN(encoder, epochs=3)
        keep = np.ones(encoder.global_dim, dtype=bool)
        keep[10:60] = False
        model.install_masks({"out_net": keep})
        model.fit(train)
        assert np.all(model.predict_many(test) > 0)

    def test_warm_start_preserves_function_on_constant_drop(self, encoder, tpch_split):
        train, test = tpch_split
        model = MSCN(encoder, epochs=3)
        model.fit(train)
        before = model.predict_many(test)
        matrix, global_slice = model.final_input_dataset(train)
        global_block = matrix[:, global_slice]
        constant = global_block.std(axis=0) < 1e-12
        model.install_masks(
            {"out_net": ~constant}, fold_means={"out_net": matrix.mean(axis=0)}
        )
        np.testing.assert_allclose(model.predict_many(test), before, rtol=1e-6)

    def test_final_input_dataset_refuses_after_masking(self, encoder, tpch_split):
        train, _ = tpch_split
        model = MSCN(encoder, epochs=1)
        model.install_masks({"out_net": np.ones(encoder.global_dim, dtype=bool)})
        with pytest.raises(TrainingError):
            model.final_input_dataset(train)


class TestFinalInputDataset:
    def test_layout(self, encoder, tpch_split):
        train, _ = tpch_split
        model = MSCN(encoder, epochs=1)
        matrix, global_slice = model.final_input_dataset(train)
        assert matrix.shape == (len(train), 3 * model.hidden + encoder.global_dim)
        assert global_slice.start == 3 * model.hidden
        assert global_slice.stop == matrix.shape[1]
