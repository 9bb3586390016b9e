"""QPPNet training on fused (height, operator) groups vs the per-node path.

The oracle below is the per-node training forward QPPNet used before
it trained on merged prepared plans: a tensor slice per child slot, a
zero tensor per absent slot, one concat per node, one stack per group
and one prediction slice per node.  The fused path must reproduce its
predictions and targets bit for bit, its gradients up to summation
order, and its loss history.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.engine.executor import LabeledPlan
from repro.engine.operators import OperatorType, PlanNode
from repro.featurization.encoding import OperatorEncoder, apply_mask
from repro.models.base import snapshot_mapping_for
from repro.models.prepared import MAX_CHILDREN, merge_prepared
from repro.models.qppnet import QPPNet, to_log
from repro.nn import Adam, Tensor, clip_grad_norm, concat, stack
from repro.rng import rng_for


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
            unit_out = model.units[op](concat([feats, children], axis=1))
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


def oracle_operator_dataset(
    model: QPPNet, labeled: Sequence[LabeledPlan]
) -> Dict[OperatorType, np.ndarray]:
    """Per-node encode plus a one-row autodiff forward per node."""
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
        return model.units[node.op](Tensor(unit_input.reshape(1, -1))).numpy()[0, 1:]

    for record in labeled:
        collect(record.plan, oracle_encode(model, record))
    return {op: np.stack(rows) for op, rows in collected.items() if len(rows) >= 2}


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
    preds, targets = model._forward_prepared(
        prepared, [model._node_targets(r) for r in records]
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
        assert set(got) == set(expected)
        for op, matrix in expected.items():
            assert np.array_equal(got[op], matrix), op
