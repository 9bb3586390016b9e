"""Bit-identity of the fused batched path against the scalar path.

The serving contract (``predict_prepared_batch``, templates, masks) is
*exact* equality, not closeness: a scalar request is the batch-size-1
special case of the same fused code, so any float divergence means the
batching changed the math.  Every assertion here is
``assert_array_equal`` — no tolerances — over seeded random batch
compositions and literal perturbations, for both estimators.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import ZeroedInputs
from repro.engine.operators import OperatorType
from repro.errors import TrainingError
from repro.featurization.encoding import OperatorEncoder
from repro.featurization.fingerprint import (
    plan_fingerprint,
    template_fingerprint,
)
from repro.featurization.mscn_features import MSCNEncoder
from repro.models.mscn import MSCN
from repro.models.prepared import prepared_from_matrix, walk_plan
from repro.models.qppnet import QPPNet


@pytest.fixture(scope="module", params=["qppnet", "mscn"])
def fitted(request, tpch, tpch_split):
    """A trained estimator of each family plus its held-out records."""
    train, test = tpch_split
    if request.param == "qppnet":
        model = QPPNet(OperatorEncoder(tpch.catalog), epochs=2, seed=7)
    else:
        model = MSCN(MSCNEncoder(tpch.catalog), epochs=2, seed=7)
    model.fit(train)
    return model, list(test)


def _scalar(model, records):
    """The scalar path: one request per call, concatenated."""
    return np.array(
        [model.predict_prepared_batch([r])[0] for r in records]
    )


def test_empty_flush_is_an_empty_float64_array(fitted):
    """Regression: a MicroBatcher flush that raced to empty must come
    back as ``shape (0,), float64`` — a dtype flip here poisons the
    downstream concatenation and the persist codec."""
    model, _ = fitted
    for out in (
        model.predict_prepared_batch([]),
        model.predict_prepared_batch([], []),
        model.predict_many([]),
    ):
        assert out.shape == (0,)
        assert out.dtype == np.float64


def test_fused_forward_empty_flush_is_float64():
    from repro.models.prepared import fused_forward

    out = fused_forward([], {}, data_size=4)
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_base_class_empty_flush_is_float64():
    from repro.models.base import CostEstimator

    out = CostEstimator().predict_prepared_batch([])
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_batch_matches_scalar_bitwise(fitted):
    model, records = fitted
    np.testing.assert_array_equal(
        model.predict_prepared_batch(records), _scalar(model, records)
    )


def test_random_batch_composition_is_invisible(fitted):
    """Property: a plan's prediction is independent of which plans it
    shares a flush with, in any order, at any batch boundary."""
    model, records = fitted
    reference = model.predict_prepared_batch(records)
    rng = np.random.default_rng(11)
    for _ in range(5):
        order = rng.permutation(len(records))
        cuts = np.sort(
            rng.choice(np.arange(1, len(records)), size=3, replace=False)
        )
        got = np.empty(len(records))
        for chunk in np.split(order, cuts):
            got[chunk] = model.predict_prepared_batch(
                [records[i] for i in chunk]
            )
        np.testing.assert_array_equal(got, reference)


def test_cached_prepared_values_replay_bitwise(fitted):
    """What the feature cache stores must replay to the same bits as
    featurizing from scratch."""
    model, records = fitted
    prepared = [model.prepare_one(r) for r in records]
    np.testing.assert_array_equal(
        model.predict_prepared_batch(records, prepared),
        model.predict_prepared_batch(records),
    )


def test_template_path_matches_direct_path(fitted):
    model, records = fitted
    via_template = [
        model.prepare_from_template(r, model.prepare_template(r))
        for r in records
    ]
    np.testing.assert_array_equal(
        model.predict_prepared_batch(records, via_template),
        model.predict_prepared_batch(records),
    )


def _perturb_literals(record, rng):
    """A same-template, different-literals variant of *record*: new
    cardinality estimates and predicate constants, identical shape."""
    clone = copy.deepcopy(record)
    for node in clone.plan.walk():
        node.est_rows = float(node.est_rows) * float(rng.uniform(0.5, 2.0))
        node.predicates = [
            dataclasses.replace(
                pred,
                value=float(pred.value) + float(rng.uniform(0.1, 3.0)),
            )
            if isinstance(pred.value, (int, float))
            and not isinstance(pred.value, bool)
            else pred
            for pred in node.predicates
        ]
    return clone


def test_template_memo_hit_with_perturbed_literals(fitted):
    """The memoization premise: a literal change keeps the template
    fingerprint (cache hit) but not the plan fingerprint, and patching
    the cached skeleton is bit-identical to a cold featurization."""
    model, records = fitted
    rng = np.random.default_rng(5)
    for record in records[:8]:
        perturbed = _perturb_literals(record, rng)
        assert template_fingerprint(record.plan) == template_fingerprint(
            perturbed.plan
        )
        assert plan_fingerprint(record.plan) != plan_fingerprint(
            perturbed.plan
        )
        template = model.prepare_template(record)
        patched = model.prepare_from_template(perturbed, template)
        np.testing.assert_array_equal(
            model.predict_prepared_batch([perturbed], [patched]),
            model.predict_prepared_batch([perturbed]),
        )


def _zeroed_input_oracle(model, records, keep):
    """Predictions of the fitted *model* with the reducible input dims
    *keep* drops multiplied by zero at encode time, then the fused
    forward: the greedy reducer's former in-model soft mask, rebuilt
    here from the public encoders."""
    zero = np.asarray(keep, dtype=np.float64)
    prepared = []
    for record in records:
        if isinstance(model, QPPNet):
            walk = walk_plan(record.plan)
            matrix = model.encoder.encode_nodes(walk.nodes, None) * zero
            prepared.append(
                prepared_from_matrix(record.plan, matrix, model.masks, walk)
            )
        else:
            sample = model.prepare_one(record)
            prepared.append(
                dataclasses.replace(sample, plan_global=sample.plan_global * zero)
            )
    return model.predict_prepared_batch(records, prepared)


def test_greedy_scorer_matches_zeroed_inputs_bitwise(fitted):
    """Greedy reduction scores a candidate keep-mask on a copy whose
    first-layer weight rows for the dropped dims are zero; its
    predictions carry the bits of zeroing those inputs, for every
    candidate, and the fitted model is left untouched."""
    model, records = fitted
    before = model.predict_many(records)
    scorer = ZeroedInputs(model)
    rng = np.random.default_rng(3)
    candidates = [np.ones(scorer.dim, dtype=bool)]
    for density in (0.9, 0.6, 0.2):
        keep = rng.random(scorer.dim) < density
        keep[0] = True
        candidates.append(keep)
    for keep in candidates:
        got = scorer.zeroed(keep).predict_many(records)
        expected = _zeroed_input_oracle(model, records, keep)
        np.testing.assert_array_equal(
            got.view(np.uint64), expected.view(np.uint64)
        )
    np.testing.assert_array_equal(model.predict_many(records), before)
    assert not np.array_equal(got, before)


def test_greedy_scorer_refuses_a_masked_model(fitted):
    """Greedy scoring runs on the base model, before any keep-mask."""
    model, _ = fitted
    masked = copy.deepcopy(model)
    if isinstance(masked, QPPNet):
        masked.install_masks({OperatorType.SEQ_SCAN: np.ones(masked.encoder.dim, bool)})
    else:
        masked.install_masks({"out_net": np.ones(masked.encoder.global_dim, bool)})
    with pytest.raises(TrainingError):
        ZeroedInputs(masked)


def test_qppnet_hard_masks_preserve_bit_identity(tpch, tpch_split):
    """Feature-reduction keep-masks change every unit's input width;
    the grouped path must stay bit-identical to the scalar path."""
    train, test = tpch_split
    model = QPPNet(OperatorEncoder(tpch.catalog), epochs=1, seed=9)
    model.fit(train)
    rng = np.random.default_rng(9)
    masks = {}
    for op in OperatorType:
        keep = rng.random(model.encoder.dim) < 0.6
        keep[0] = True
        masks[op] = keep
    model.install_masks(masks)
    records = list(test)
    batch = model.predict_prepared_batch(records)
    np.testing.assert_array_equal(batch, _scalar(model, records))
    via_template = [
        model.prepare_from_template(r, model.prepare_template(r))
        for r in records
    ]
    np.testing.assert_array_equal(
        model.predict_prepared_batch(records, via_template), batch
    )


def test_mscn_hard_mask_preserves_bit_identity(tpch, tpch_split):
    train, test = tpch_split
    model = MSCN(MSCNEncoder(tpch.catalog), epochs=1, seed=9)
    model.fit(train)
    rng = np.random.default_rng(13)
    keep = rng.random(model.encoder.global_dim) < 0.6
    keep[0] = True
    model.install_masks({"out_net": keep})
    records = list(test)
    batch = model.predict_prepared_batch(records)
    np.testing.assert_array_equal(batch, _scalar(model, records))
    via_template = [
        model.prepare_from_template(r, model.prepare_template(r))
        for r in records
    ]
    np.testing.assert_array_equal(
        model.predict_prepared_batch(records, via_template), batch
    )


# ----------------------------------------------------------------------
# merge_prepared against the per-entry merge it replaced
# ----------------------------------------------------------------------
def _reference_merge(prepared_seq):
    """Oracle: the per-entry merge — one dict entry per (height,
    operator), every plan's indices shifted with its own add and
    ``np.where``."""
    counts = np.array([p.n_nodes for p in prepared_seq], dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    total = int(offsets[-1])
    merged = {}
    for prepared, off in zip(prepared_seq, offsets[:-1], strict=True):
        for level, op, feats, nodes, children in zip(
            prepared.levels,
            prepared.ops,
            prepared.feats,
            prepared.nodes,
            prepared.children,
            strict=True,
        ):
            _, feat_parts, node_parts, child_parts = merged.setdefault(
                (level, op.value), (op, [], [], [])
            )
            feat_parts.append(feats)
            node_parts.append(nodes + off)
            child_parts.append(np.where(children >= 0, children + off, total))
    groups = []
    for _key, (op, feat_parts, node_parts, child_parts) in sorted(merged.items()):
        feats = (
            feat_parts[0]
            if len(feat_parts) == 1
            else np.concatenate(feat_parts, axis=0)
        )
        groups.append(
            (
                op,
                feats,
                np.concatenate(node_parts),
                np.concatenate(child_parts, axis=0),
            )
        )
    return groups, offsets


def _assert_same_merge(prepared_seq):
    from repro.models.prepared import merge_prepared

    got, got_offsets = merge_prepared(prepared_seq)
    want, want_offsets = _reference_merge(prepared_seq)
    np.testing.assert_array_equal(got_offsets, want_offsets)
    assert [g[0] for g in got] == [w[0] for w in want]
    for (_, feats, nodes, children), (_, w_feats, w_nodes, w_children) in zip(
        got, want, strict=True
    ):
        np.testing.assert_array_equal(feats, w_feats)
        np.testing.assert_array_equal(nodes, w_nodes)
        np.testing.assert_array_equal(children, w_children)
        assert nodes.dtype == np.int64 and children.dtype == np.int64
    return got, got_offsets


@pytest.fixture(scope="module")
def qppnet_prepared(tpch, tpch_split):
    """Prepared plans of the held-out records, from a QPPNet fit."""
    train, test = tpch_split
    model = QPPNet(OperatorEncoder(tpch.catalog), epochs=1, seed=7)
    model.fit(train)
    return [model.prepare_one(r) for r in test]


def _synthetic(ops, n_feats=3, index_dtype=np.int64):
    """A hand-built prepared plan: a chain of one node per group, leaf
    first (the root is walk index 0), so every group has absent
    children and each key is ``(height, op)``."""
    from repro.models.prepared import PreparedPlan

    n = len(ops)
    rng = np.random.default_rng(n)
    return PreparedPlan(
        levels=list(range(n)),
        ops=list(ops),
        feats=[rng.normal(size=(1, n_feats)) for _ in ops],
        nodes=[np.array([n - 1 - h], dtype=index_dtype) for h in range(n)],
        children=[
            np.array([[n - h if h else -1, -1]], dtype=index_dtype)
            for h in range(n)
        ],
        n_nodes=n,
    )


def test_merge_of_one_plan_matches_the_per_entry_merge(qppnet_prepared):
    for prepared in qppnet_prepared:
        _assert_same_merge([prepared])
    _assert_same_merge([_synthetic([OperatorType.SEQ_SCAN], index_dtype=np.int32)])


def test_merge_of_many_plans_matches_the_per_entry_merge(qppnet_prepared):
    """Shared keys (a plan repeated, random subsets of real plans) and
    unshared keys (synthetic plans with disjoint operators)."""
    plans = qppnet_prepared
    assert _assert_same_merge([])[0] == []
    _assert_same_merge([plans[0]] * 3)
    _assert_same_merge(plans)
    rng = np.random.default_rng(21)
    for size in (2, 4, 16):
        pick = rng.choice(len(plans), size=size, replace=True)
        _assert_same_merge([plans[i] for i in pick])
    seq = _synthetic([OperatorType.SEQ_SCAN, OperatorType.SORT])
    index = _synthetic([OperatorType.INDEX_SCAN], index_dtype=np.int32)
    groups, _ = _assert_same_merge([seq, index])
    assert [op for op, *_ in groups] == [
        OperatorType.INDEX_SCAN, OperatorType.SEQ_SCAN, OperatorType.SORT
    ]
    _assert_same_merge([index, seq, index, seq])


def test_merged_absent_children_point_one_past_the_last_node(qppnet_prepared):
    flushes = [[qppnet_prepared[0]], qppnet_prepared[:5]]
    flushes.append([_synthetic([OperatorType.SEQ_SCAN, OperatorType.SORT])] * 2)
    for flush in flushes:
        groups, offsets = _assert_same_merge(flush)
        sources = {}
        for plan_index, prepared in enumerate(flush):
            for level, op, children in zip(
                prepared.levels, prepared.ops, prepared.children, strict=True
            ):
                sources.setdefault((level, op.value), []).append(
                    np.where(children >= 0, children + offsets[plan_index], -1)
                )
        absent = 0
        for (_, parts), (_, _, _, children) in zip(
            sorted(sources.items()), groups, strict=True
        ):
            want = np.concatenate(parts, axis=0)
            np.testing.assert_array_equal(children[want < 0], offsets[-1])
            np.testing.assert_array_equal(children[want >= 0], want[want >= 0])
            absent += int((want < 0).sum())
        assert absent > 0
