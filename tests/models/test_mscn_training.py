"""MSCN training and its reduction dataset against the autodiff oracle.

The oracle is the trainer MSCN used before its gradients were
hand-derived, rebuilt on the test-side graph (:mod:`tests.nn.tensor`):
each set network runs on its batch's stacked set rows, a ReLU and a
slice mean per query (a zero tensor for an empty set), the pooled
blocks are stacked and concatenated with the global vectors, and
``out_net`` runs on that; ``Tensor.backward`` of the mean squared error
fills every parameter's gradient, then the clip and an ``Adam`` step
run over every array.

``MSCN.fit`` must reproduce the oracle's fitted arrays and loss history
through ``view(np.uint64)``, and ``final_input_dataset`` the oracle's
pooled forward, on TPC-H, sysbench and job-light plans with their
environments interleaved.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pytest

from repro.engine.operators import OperatorType
from repro.featurization.mscn_features import MSCNEncoder, MSCNSample
from repro.models.base import TrainStats
from repro.models.mscn import MSCN
from repro.models.qppnet import to_log
from repro.nn import Adam, clip_grad_norm
from repro.rng import rng_for
from repro.workload.collect import collect_labeled_plans

from ..nn.tensor import Tensor, concat, graph_forward, mse, stack
from .test_forest_equivalence import Snapshots


# ----------------------------------------------------------------------
# oracle: the autodiff trainer
# ----------------------------------------------------------------------
def oracle_pool(model: MSCN, net, rows_list: Sequence[np.ndarray]) -> Tensor:
    """Forward a ragged batch of sets and mean-pool per query."""
    sizes = [rows.shape[0] for rows in rows_list]
    nonempty = [rows for rows in rows_list if rows.shape[0] > 0]
    hidden = None
    if nonempty:
        hidden = graph_forward(net, Tensor(np.concatenate(nonempty, axis=0))).relu()
    pooled: List[Tensor] = []
    offset = 0
    for size in sizes:
        if size == 0 or hidden is None:
            pooled.append(Tensor(np.zeros(model.hidden)))
        else:
            pooled.append(hidden[offset:offset + size, :].mean(axis=0))
            offset += size
    return stack(pooled, axis=0)


def oracle_forward(model: MSCN, samples: Sequence[MSCNSample]) -> Tensor:
    tables = oracle_pool(model, model.table_net, [s.tables for s in samples])
    joins = oracle_pool(model, model.join_net, [s.joins for s in samples])
    preds = oracle_pool(model, model.pred_net, [s.predicates for s in samples])
    global_vec = Tensor(np.stack([s.plan_global for s in samples]))
    features = concat([tables, joins, preds, global_vec], axis=1)
    return graph_forward(model.out_net, features)


def oracle_fit(model: MSCN, train, snapshot_set=None, norms=None) -> TrainStats:
    """The autodiff training loop; appends each step's gradient norm
    (before clipping) to *norms* when given."""
    samples = [model._encode(r, snapshot_set) for r in train]
    targets = np.array([to_log(r.latency_ms) for r in train])
    optimizer = Adam(model.parameters(), lr=model.lr)
    rng = rng_for("mscn-fit", model.seed)
    indices = np.arange(len(train))
    history: List[float] = []
    for _ in range(model.epochs):
        rng.shuffle(indices)
        epoch_loss, batches = 0.0, 0
        for lo in range(0, len(indices), model.batch_size):
            batch = indices[lo:lo + model.batch_size]
            out = oracle_forward(model, [samples[i] for i in batch])
            loss = mse(out.reshape(-1), targets[batch])
            optimizer.zero_grad()
            loss.backward()
            norm = clip_grad_norm(model.parameters(), 5.0)
            if norms is not None:
                norms.append(norm)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        history.append(epoch_loss / max(batches, 1))
    return TrainStats(epochs=model.epochs, loss_history=history)


def with_oracle_fit(model: MSCN, norms=None) -> MSCN:
    """*model*, its ``fit`` (and so ``warm_retrain``) replaced by the
    autodiff trainer."""
    model.fit = lambda train, snapshot_set=None: oracle_fit(  # type: ignore[method-assign]
        model, train, snapshot_set, norms
    )
    return model


def oracle_final_input_dataset(model: MSCN, labeled, snapshot_set=None) -> np.ndarray:
    samples = [model._encode(r, snapshot_set) for r in labeled]
    tables = oracle_pool(model, model.table_net, [s.tables for s in samples])
    joins = oracle_pool(model, model.join_net, [s.joins for s in samples])
    preds = oracle_pool(model, model.pred_net, [s.predicates for s in samples])
    global_rows = np.stack([s.plan_global for s in samples])
    return np.concatenate(
        [tables.numpy(), joins.numpy(), preds.numpy(), global_rows], axis=1
    )


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
def _pick(labeled):
    """48 of *labeled*, environments interleaved."""
    order = np.random.default_rng(8).permutation(len(labeled))[:48]
    return [labeled[i] for i in order]


@pytest.fixture(scope="module", params=["tpch", "sysbench", "joblight"])
def corpus(request, tpch, sysbench, joblight, environments, tpch_labeled, sysbench_labeled):
    """One benchmark's encoder, 48 of its plans (environments
    interleaved) and a snapshot mapping per environment."""
    bench, labeled = {
        "tpch": (tpch, tpch_labeled),
        "sysbench": (sysbench, sysbench_labeled),
        "joblight": (
            joblight,
            collect_labeled_plans(joblight, environments, 120, seed=1),
        ),
    }[request.param]
    records = _pick(labeled)
    assert len({r.env_name for r in records[:8]}) > 1
    return (
        MSCNEncoder(bench.catalog),
        records,
        Snapshots([env.name for env in environments]),
    )


def _global_keep(encoder: MSCNEncoder) -> np.ndarray:
    keep = np.ones(encoder.global_dim, dtype=bool)
    keep[7:30] = False
    return keep


def _make(encoder: MSCNEncoder, masked: bool, **kwargs) -> MSCN:
    kwargs.setdefault("epochs", 2)
    kwargs.setdefault("batch_size", 20)
    return MSCN(
        encoder, global_mask=_global_keep(encoder) if masked else None, **kwargs
    )


def _pair(make):
    """The model under test and its autodiff-trained twin."""
    norms: List[float] = []
    return make(), with_oracle_fit(make(), norms), norms


def assert_same_fit(model: MSCN, oracle: MSCN, stats, expected) -> None:
    """Every array of the four networks and the loss history, bit for
    bit."""
    for name in MSCN._NET_NAMES:
        got = getattr(model, name).parameters()
        want = getattr(oracle, name).parameters()
        assert len(got) == len(want)
        for have, wanted in zip(got, want, strict=True):
            assert have.data.shape == wanted.data.shape, name
            np.testing.assert_array_equal(
                have.data.view(np.uint64), wanted.data.view(np.uint64), err_msg=name
            )
    np.testing.assert_array_equal(
        np.array(stats.loss_history).view(np.uint64),
        np.array(expected.loss_history).view(np.uint64),
    )


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestHandDerivedFit:
    @pytest.mark.parametrize("masked", [False, True])
    def test_weights_and_losses_bitwise_equal(self, corpus, masked):
        encoder, records, snapshots = corpus
        model, oracle, norms = _pair(lambda: _make(encoder, masked))
        stats = model.fit(records, snapshots)
        expected = oracle.fit(records, snapshots)
        assert len(stats.loss_history) == 2
        assert_same_fit(model, oracle, stats, expected)
        # The first step clips.
        assert norms[0] > 5.0

    def test_batches_hold_empty_sets(self, tpch, sysbench, tpch_labeled, sysbench_labeled):
        """The TPC-H and sysbench corpora exercise the empty-set path:
        some of their queries have no join rows."""
        for bench, labeled in ((tpch, tpch_labeled), (sysbench, sysbench_labeled)):
            model = MSCN(MSCNEncoder(bench.catalog), epochs=1)
            samples = [model._encode(r, None) for r in _pick(labeled)]
            assert any(s.joins.shape[0] == 0 for s in samples), bench

    def test_one_query_batch_and_a_batch_without_joins(self, sysbench, sysbench_labeled):
        """A last batch of one query (the one-row weight gradient) and
        single-table queries only, so the join network gets no
        gradient and keeps its initial weights."""
        encoder = MSCNEncoder(sysbench.catalog)
        samples = [
            r for r in sysbench_labeled
            if MSCN(encoder, epochs=1)._encode(r, None).joins.shape[0] == 0
        ][:9]
        assert len(samples) == 9

        def make() -> MSCN:
            return _make(encoder, False, batch_size=8)

        model, oracle, _ = _pair(make)
        initial = [p.data.copy() for p in model.join_net.parameters()]
        assert_same_fit(model, oracle, model.fit(samples), oracle.fit(samples))
        for have, want in zip(model.join_net.parameters(), initial, strict=True):
            np.testing.assert_array_equal(have.data, want)

    def test_warm_retrain_with_a_recalled_mask(self, corpus):
        encoder, records, snapshots = corpus
        model, oracle, _ = _pair(lambda: _make(encoder, True))
        model.fit(records, snapshots)
        oracle.fit(records, snapshots)
        # Recall widens each operator's copy of the global mask on its
        # own; the refit installs their union.
        masks = {op: _global_keep(encoder) for op in OperatorType}
        masks[OperatorType.SEQ_SCAN][7:10] = True
        masks[OperatorType.HASH_JOIN][10:12] = True
        recalled = _global_keep(encoder)
        recalled[7:12] = True
        stats = model.warm_retrain(records, masks, snapshots, epochs=2)
        expected = oracle.warm_retrain(records, masks, snapshots, epochs=2)
        np.testing.assert_array_equal(model.global_mask, recalled)
        assert_same_fit(model, oracle, stats, expected)

    def test_predictions_bitwise_equal_after_fit(self, corpus):
        encoder, records, snapshots = corpus
        model, oracle, _ = _pair(lambda: _make(encoder, False, epochs=1))
        model.fit(records, snapshots)
        oracle.fit(records, snapshots)
        np.testing.assert_array_equal(
            model.predict_many(records, snapshots).view(np.uint64),
            oracle.predict_many(records, snapshots).view(np.uint64),
        )


class TestFinalInputDataset:
    def test_bitwise_equal_to_the_graph_forward(self, corpus):
        encoder, records, snapshots = corpus
        model = _make(encoder, False)
        model.fit(records, snapshots)
        matrix, global_slice = model.final_input_dataset(records, snapshots)
        expected = oracle_final_input_dataset(model, records, snapshots)
        assert global_slice == slice(3 * model.hidden, expected.shape[1])
        np.testing.assert_array_equal(
            matrix.view(np.uint64), expected.view(np.uint64)
        )
