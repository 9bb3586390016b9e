"""QPPNet training against two autodiff oracles.

The first oracle is the per-node training forward QPPNet used before
it trained on merged prepared plans: a tensor slice per child slot, a
zero tensor per absent slot, one concat per node, one stack per group
and one prediction slice per node.  The second is the autodiff trainer
QPPNet used before its gradients were hand-derived: the merged
``(height, operator)`` groups of each mini-batch
(:func:`~repro.models.prepared.merge_prepared`) built as a
:class:`~tests.nn.tensor.Tensor` graph, ``Tensor.backward``, then the
clip and an ``Adam`` step over every unit array.

The merged autodiff forward must reproduce the per-node predictions
and targets bit for bit and its gradients up to summation order.  The
hand-derived ``QPPNet.fit`` must reproduce the autodiff trainer's
fitted weights and loss history bit for bit, and every mini-batch it
cuts from its training forest must be the merge of the batch's
prepared plans.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.engine.executor import LabeledPlan
from repro.engine.operators import OperatorType, PlanNode
from repro.featurization.encoding import OperatorEncoder, apply_mask
from repro.models.base import TrainStats, snapshot_mapping_for
from repro.models.prepared import MAX_CHILDREN, TrainingForest, merge_prepared
from repro.models.qppnet import QPPNet, to_log
from repro.nn import Adam, clip_grad_norm
from repro.rng import rng_for
from repro.workload.collect import collect_labeled_plans

from ..nn.tensor import Tensor, concat, gather_rows, graph_forward, stack
from .test_forest_equivalence import Snapshots


# ----------------------------------------------------------------------
# oracle: the per-node training path
# ----------------------------------------------------------------------
def oracle_encode(model: QPPNet, record: LabeledPlan) -> Dict[int, np.ndarray]:
    """Per-node encode: one masked feature vector per node id."""
    mapping = snapshot_mapping_for(record, None)
    features: Dict[int, np.ndarray] = {}
    for node in record.plan.walk():
        vec = model.encoder.encode_node(node, mapping)
        if model.zero_mask is not None:
            vec = vec * model.zero_mask
        features[id(node)] = apply_mask(vec, model.masks.get(node.op))
    return features


def oracle_forward(
    model: QPPNet,
    records: Sequence[LabeledPlan],
    feature_maps: Sequence[Dict[int, np.ndarray]],
) -> Tuple[Tensor, np.ndarray, List[Tuple[int, int]]]:
    """Per-node forward; returns (predictions, targets, (plan, walk
    index) of each entry)."""
    node_info: List[Tuple[PlanNode, int, int]] = []
    heights: Dict[int, int] = {}
    walk_index: Dict[int, int] = {}

    def height_of(node: PlanNode) -> int:
        h = 1 + max((height_of(c) for c in node.children), default=-1)
        heights[id(node)] = h
        return h

    for plan_index, record in enumerate(records):
        height_of(record.plan)
        for i, node in enumerate(record.plan.walk()):
            walk_index[id(node)] = i
            node_info.append((node, plan_index, heights[id(node)]))

    outputs: Dict[int, Tuple[Tensor, int]] = {}
    predictions: List[Tensor] = []
    targets: List[float] = []
    keys: List[Tuple[int, int]] = []
    max_height = max(h for _, _, h in node_info)
    for level in range(max_height + 1):
        groups: Dict[OperatorType, List[Tuple[PlanNode, int]]] = {}
        for node, plan_index, h in node_info:
            if h == level:
                groups.setdefault(node.op, []).append((node, plan_index))
        for op, members in groups.items():
            rows = np.stack([feature_maps[pi][id(node)] for node, pi in members])
            feats = Tensor(rows)
            child_blocks: List[Tensor] = []
            for node, _ in members:
                parts: List[Tensor] = []
                for slot in range(MAX_CHILDREN):
                    if slot < len(node.children):
                        group_tensor, row = outputs[id(node.children[slot])]
                        parts.append(group_tensor[row, 1:])
                    else:
                        parts.append(Tensor(np.zeros(model.data_size)))
                child_blocks.append(concat(parts, axis=0))
            children = stack(child_blocks, axis=0)
            unit_out = graph_forward(model.units[op], concat([feats, children], axis=1))
            for row, (node, plan_index) in enumerate(members):
                outputs[id(node)] = (unit_out, row)
                predictions.append(unit_out[row, 0:1])
                keys.append((plan_index, walk_index[id(node)]))
                if node is records[plan_index].plan:
                    targets.append(to_log(records[plan_index].latency_ms))
                else:
                    targets.append(to_log(node.actual_total_ms))
    return concat(predictions, axis=0), np.array(targets), keys


def oracle_fit_history(model: QPPNet, train: Sequence[LabeledPlan]) -> List[float]:
    """The per-node training loop's loss history."""
    feature_maps = [oracle_encode(model, r) for r in train]
    optimizer = Adam(model.parameters(), lr=model.lr)
    rng = rng_for("qppnet-fit", model.seed)
    history: List[float] = []
    indices = np.arange(len(train))
    for _ in range(model.epochs):
        rng.shuffle(indices)
        epoch_loss, batches = 0.0, 0
        for lo in range(0, len(indices), model.batch_size):
            batch = indices[lo:lo + model.batch_size]
            preds, targets, _ = oracle_forward(
                model, [train[i] for i in batch], [feature_maps[i] for i in batch]
            )
            diff = preds - Tensor(targets)
            loss = (diff * diff).mean()
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        history.append(epoch_loss / max(batches, 1))
    return history


def serving_row(unit, x: np.ndarray) -> np.ndarray:
    """The unit's batch-invariant serving forward on *x*."""
    return unit.forward_batched(x)


def graph_row(unit, x: np.ndarray) -> np.ndarray:
    """The unit's autodiff forward on *x*."""
    return graph_forward(unit, Tensor(x)).numpy()


def oracle_operator_dataset(
    model: QPPNet, labeled: Sequence[LabeledPlan], run=serving_row
) -> Dict[OperatorType, np.ndarray]:
    """Per-node encode plus a one-row unit forward per node (*run*)."""
    collected: Dict[OperatorType, List[np.ndarray]] = {}

    def collect(node: PlanNode, feats: Dict[int, np.ndarray]) -> np.ndarray:
        child_vectors = []
        for slot in range(MAX_CHILDREN):
            if slot < len(node.children):
                child_vectors.append(collect(node.children[slot], feats))
            else:
                child_vectors.append(np.zeros(model.data_size))
        unit_input = np.concatenate([feats[id(node)], *child_vectors])
        collected.setdefault(node.op, []).append(unit_input)
        return run(model.units[node.op], unit_input.reshape(1, -1))[0, 1:]

    for record in labeled:
        collect(record.plan, oracle_encode(model, record))
    return {op: np.stack(rows) for op, rows in collected.items() if len(rows) >= 2}


# ----------------------------------------------------------------------
# oracle: the autodiff trainer over merged groups
# ----------------------------------------------------------------------
def autograd_forward(
    model: QPPNet, prepared: Sequence, targets: Sequence[np.ndarray]
) -> Tuple[Tensor, np.ndarray]:
    """Differentiable forward over the merged ``(height, operator)``
    groups of a mini-batch: each group reads its children's data
    vectors from earlier groups' outputs with one ``gather_rows`` and
    runs its unit once.  Returns every node's prediction, group by
    group, and the matching log targets."""
    groups, offsets = merge_prepared(prepared)
    group_of = np.full(int(offsets[-1]) + 1, -1, dtype=np.int64)
    row_of = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)
    outputs: List[Tensor] = []
    predictions: List[Tensor] = []
    for op, feats, nodes, children in groups:
        child_data = gather_rows(
            outputs, group_of[children], row_of[children], 1, model.data_size
        )
        unit_out = graph_forward(
            model.units[op], concat([Tensor(feats), child_data], axis=1)
        )
        group_of[nodes] = len(outputs)
        row_of[nodes] = np.arange(len(nodes))
        outputs.append(unit_out)
        predictions.append(unit_out[:, 0])
    order = np.concatenate([nodes for _, _, nodes, _ in groups])
    return concat(predictions, axis=0), np.concatenate(targets)[order]


def autograd_fit(
    model: QPPNet, train: Sequence[LabeledPlan], snapshot_set=None, norms=None
) -> TrainStats:
    """The autodiff training loop; appends each step's gradient norm
    (before clipping) to *norms* when given."""
    prepared = [model.prepare_one(r, snapshot_set) for r in train]
    node_targets = [model._node_targets(r) for r in train]
    optimizer = Adam(model.parameters(), lr=model.lr)
    rng = rng_for("qppnet-fit", model.seed)
    history: List[float] = []
    indices = np.arange(len(train))
    for _ in range(model.epochs):
        rng.shuffle(indices)
        epoch_loss, batches = 0.0, 0
        for lo in range(0, len(indices), model.batch_size):
            batch = indices[lo:lo + model.batch_size]
            preds, targets = autograd_forward(
                model, [prepared[i] for i in batch], [node_targets[i] for i in batch]
            )
            diff = preds - Tensor(targets)
            loss = (diff * diff).mean()
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


def with_autograd_fit(model: QPPNet, norms=None) -> QPPNet:
    """*model*, its ``fit`` (and so ``warm_retrain``) replaced by the
    autodiff trainer."""
    model.fit = lambda train, snapshot_set=None: autograd_fit(  # type: ignore[method-assign]
        model, train, snapshot_set, norms
    )
    return model


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def encoder(tpch):
    return OperatorEncoder(tpch.catalog)


def _height(node: PlanNode) -> int:
    return 1 + max((_height(c) for c in node.children), default=-1)


@pytest.fixture(scope="module")
def plans(tpch_labeled, tpch_split):
    train, _ = tpch_split
    tallest = max(tpch_labeled, key=lambda r: _height(r.plan))
    donor = train[0]
    leaf = copy.deepcopy(donor.plan.leaves()[0])
    single = LabeledPlan(leaf, donor.latency_ms, donor.env_name)
    return {"train": list(train), "tallest": tallest, "single": single}


def _masked_model(encoder: OperatorEncoder) -> QPPNet:
    model = QPPNet(encoder, epochs=2)
    keep = np.ones(encoder.dim, dtype=bool)
    keep[7:30] = False
    model.set_masks({OperatorType.SEQ_SCAN: keep, OperatorType.HASH_JOIN: ~keep})
    return model


@pytest.fixture(scope="module", params=["full", "masked"])
def model(request, encoder):
    if request.param == "full":
        return QPPNet(encoder, epochs=2)
    return _masked_model(encoder)


_BATCHES = {
    "one_plan": lambda p: p["train"][:1],
    "single_node": lambda p: [p["single"]],
    "tallest": lambda p: [p["tallest"]],
    "mixed": lambda p: p["train"][:31] + [p["single"], p["tallest"]],
}


def _both_paths(model: QPPNet, records):
    """Fused ``(predictions, targets, batch-wide node index of each
    entry)`` and the oracle's output for the same batch."""
    prepared = [model.prepare_one(r) for r in records]
    preds, targets = autograd_forward(
        model, prepared, [model._node_targets(r) for r in records]
    )
    groups, _ = merge_prepared(prepared)
    order = np.concatenate([nodes for _, _, nodes, _ in groups])
    oracle = oracle_forward(model, records, [oracle_encode(model, r) for r in records])
    return (preds, targets, order), oracle


def _keyed(preds: Tensor, targets: np.ndarray, keys) -> Dict[Tuple[int, int], Tuple]:
    return {key: (p, t) for key, p, t in zip(keys, preds.numpy(), targets, strict=True)}


def _loss(preds: Tensor, targets: np.ndarray) -> Tensor:
    diff = preds - Tensor(targets)
    return (diff * diff).mean()


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestFusedForward:
    @pytest.mark.parametrize("batch", sorted(_BATCHES))
    def test_predictions_and_targets_bitwise_equal(self, model, plans, batch):
        records = _BATCHES[batch](plans)
        (preds, targets, order), oracle = _both_paths(model, records)
        sizes = [r.plan.node_count for r in records]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        plan_of = np.searchsorted(offsets, order, side="right") - 1
        keys = list(
            zip(plan_of.tolist(), (order - offsets[plan_of]).tolist(), strict=True)
        )
        fused = _keyed(preds, targets, keys)
        expected = _keyed(*oracle)
        assert len(fused) == len(expected) == sum(sizes)
        for key, (pred, target) in expected.items():
            assert fused[key][0] == pred, key
            assert fused[key][1] == target, key

    @pytest.mark.parametrize("batch", sorted(_BATCHES))
    def test_parameter_gradients_match(self, model, plans, batch):
        records = _BATCHES[batch](plans)
        (preds, targets, _), (oracle_preds, oracle_targets, _) = _both_paths(
            model, records
        )
        for unit in model.units.values():
            unit.zero_grad()
        _loss(oracle_preds, oracle_targets).backward()
        expected = [
            None if p.grad is None else p.grad.copy() for p in model.parameters()
        ]
        for unit in model.units.values():
            unit.zero_grad()
        _loss(preds, targets).backward()
        got = [p.grad for p in model.parameters()]
        assert any(g is not None for g in expected)
        for want, have in zip(expected, got, strict=True):
            if want is None:
                assert have is None
            else:
                np.testing.assert_allclose(have, want, rtol=1e-12, atol=0)
        for unit in model.units.values():
            unit.zero_grad()


class TestFusedFit:
    @pytest.mark.parametrize("masked", [False, True])
    def test_two_epoch_loss_history_matches(self, encoder, plans, masked):
        train = plans["train"] + [plans["single"]]

        def make() -> QPPNet:
            return _masked_model(encoder) if masked else QPPNet(encoder, epochs=2)

        expected = oracle_fit_history(make(), train)
        stats = make().fit(train)
        assert len(stats.loss_history) == 2
        np.testing.assert_allclose(stats.loss_history, expected, rtol=1e-9)

    def test_fit_is_deterministic(self, encoder, plans):
        train = plans["train"][:40]
        first = QPPNet(encoder, epochs=2)
        second = QPPNet(encoder, epochs=2)
        assert first.fit(train).loss_history == second.fit(train).loss_history
        np.testing.assert_array_equal(
            first.predict_many(train), second.predict_many(train)
        )


class TestOperatorDataset:
    @pytest.mark.parametrize("zeroed", [False, True])
    def test_bitwise_equal_to_per_node_encode(self, model, encoder, plans, zeroed):
        records = plans["train"][:48] + [plans["tallest"]]
        if zeroed:
            model.zero_mask = (np.arange(encoder.dim) % 3 != 0).astype(np.float64)
        try:
            got = model.operator_dataset(records)
            expected = oracle_operator_dataset(model, records)
        finally:
            model.zero_mask = None
        assert list(got) == list(expected)
        for op, matrix in expected.items():
            assert np.array_equal(got[op], matrix), op

    def test_only_child_data_moves_from_the_graph_forward(self, model, plans):
        """The one-row graph forward and the grouped serving forward
        round differently: the child-data columns move in the last
        bits, the feature columns not at all."""
        records = plans["train"][:48] + [plans["tallest"]]
        got = model.operator_dataset(records)
        expected = oracle_operator_dataset(model, records, run=graph_row)
        assert list(got) == list(expected)
        for op, matrix in expected.items():
            width = matrix.shape[1] - MAX_CHILDREN * model.data_size
            assert np.array_equal(got[op][:, :width], matrix[:, :width]), op
            np.testing.assert_allclose(
                got[op][:, width:], matrix[:, width:], rtol=1e-10, atol=1e-12
            )


def assert_same_fit(model: QPPNet, oracle: QPPNet, stats, expected) -> None:
    """Every unit array and the loss history, bit for bit."""
    for op in OperatorType:
        got = model.units[op].parameters()
        want = oracle.units[op].parameters()
        assert len(got) == len(want)
        for have, wanted in zip(got, want, strict=True):
            assert have.data.shape == wanted.data.shape, op
            np.testing.assert_array_equal(
                have.data.view(np.uint64), wanted.data.view(np.uint64), err_msg=str(op)
            )
    np.testing.assert_array_equal(
        np.array(stats.loss_history).view(np.uint64),
        np.array(expected.loss_history).view(np.uint64),
    )


@pytest.fixture(scope="module", params=["tpch", "sysbench", "joblight"])
def corpus(request, tpch, sysbench, joblight, environments, plans, sysbench_labeled):
    """One benchmark's encoder, a few dozen of its plans (environments
    interleaved) and a snapshot mapping per environment.  TPC-H's set
    holds the single-node plan and the tallest collected plan."""
    if request.param == "tpch":
        bench, records = tpch, plans["train"][:46] + [plans["single"], plans["tallest"]]
    else:
        bench, labeled = {
            "sysbench": (sysbench, sysbench_labeled),
            "joblight": (
                joblight,
                collect_labeled_plans(joblight, environments, 120, seed=1),
            ),
        }[request.param]
        order = np.random.default_rng(8).permutation(len(labeled))[:48]
        records = [labeled[i] for i in order]
    assert len({r.env_name for r in records[:8]}) > 1
    return (
        OperatorEncoder(bench.catalog),
        records,
        Snapshots([env.name for env in environments]),
    )


def _recalled_masks(model: QPPNet) -> Dict[OperatorType, np.ndarray]:
    """Every masked operator's mask with a few dropped dims re-included."""
    recalled = {}
    for op, keep in model.masks.items():
        keep = keep.copy()
        keep[np.flatnonzero(~keep)[:5]] = True
        recalled[op] = keep
    return recalled


def _pair(make):
    """The model under test and its autodiff-trained twin."""
    norms: List[float] = []
    return make(), with_autograd_fit(make(), norms), norms


class TestHandDerivedFit:
    @pytest.mark.parametrize("masked", [False, True])
    def test_weights_and_losses_bitwise_equal(self, corpus, masked):
        encoder, records, snapshots = corpus

        def make() -> QPPNet:
            return _masked_model(encoder) if masked else QPPNet(encoder, epochs=2)

        model, oracle, norms = _pair(make)
        stats = model.fit(records, snapshots)
        expected = oracle.fit(records, snapshots)
        assert len(stats.loss_history) == 2
        assert_same_fit(model, oracle, stats, expected)
        # The first step clips.
        assert norms[0] > 5.0

    def test_single_node_and_tallest_plan_share_a_batch(self, encoder, plans):
        records = [plans["single"], plans["tallest"]] + plans["train"][:6]

        def make() -> QPPNet:
            return QPPNet(encoder, epochs=2, batch_size=len(records))

        model, oracle, _ = _pair(make)
        assert_same_fit(model, oracle, model.fit(records), oracle.fit(records))

    def test_warm_retrain_with_recalled_masks(self, corpus):
        encoder, records, snapshots = corpus
        model, oracle, _ = _pair(lambda: _masked_model(encoder))
        model.fit(records, snapshots)
        oracle.fit(records, snapshots)
        recalled = _recalled_masks(model)
        stats = model.warm_retrain(records, recalled, snapshots, epochs=2)
        expected = oracle.warm_retrain(records, recalled, snapshots, epochs=2)
        assert model.masks.keys() == recalled.keys()
        assert_same_fit(model, oracle, stats, expected)

    def test_predictions_bitwise_equal_after_fit(self, corpus):
        encoder, records, snapshots = corpus
        model, oracle, _ = _pair(lambda: QPPNet(encoder, epochs=1))
        model.fit(records, snapshots)
        oracle.fit(records, snapshots)
        np.testing.assert_array_equal(
            model.predict_many(records, snapshots).view(np.uint64),
            oracle.predict_many(records, snapshots).view(np.uint64),
        )


class TestForestCut:
    @pytest.mark.parametrize("masked", [False, True])
    def test_batches_equal_merged_prepared_plans(self, corpus, masked):
        encoder, records, snapshots = corpus
        model = _masked_model(encoder) if masked else QPPNet(encoder)
        prepared = [model.prepare_one(r, snapshots) for r in records]
        walk, matrix, order = model._forest_matrix(records, snapshots)
        forest = TrainingForest(walk, matrix, model.masks, order)
        rng = np.random.default_rng(4)
        batches = [np.arange(len(records)), np.array([len(records) - 1])]
        batches += [rng.permutation(len(records))[:size] for size in (1, 2, 7, 32)]
        for batch in batches:
            cut = forest.batch(batch)
            groups, offsets = merge_prepared([prepared[i] for i in batch])
            assert cut.n_nodes == int(offsets[-1])
            assert len(cut.groups) == len(groups)
            for (op, feats, nodes, children), want in zip(cut.groups, groups, strict=True):
                assert op is want[0]
                assert feats.shape == want[1].shape
                np.testing.assert_array_equal(
                    feats.view(np.uint64), want[1].view(np.uint64)
                )
                np.testing.assert_array_equal(nodes, want[2])
                np.testing.assert_array_equal(children, want[3])
            group_of = np.full(cut.n_nodes + 1, -1)
            for g, (_, _, nodes, _) in enumerate(groups):
                group_of[nodes] = g
            for g, (_, _, _, children) in enumerate(groups):
                expected = sorted(set(group_of[children].ravel().tolist()) - {-1})
                assert cut.sources[g] == expected
