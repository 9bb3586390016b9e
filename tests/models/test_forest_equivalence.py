"""Bit-identity of the forest path against per-plan oracles.

``QPPNet.predict_prepared_batch`` groups a flush's fresh plans as one
forest: one walk, one height pass, one sort.  Two test-only routes
predict each plan on its own:

- :func:`recursive_route` runs every node's unit by itself, children
  first, recursing over the plan: it shares no walk, grouping or merge
  with the code under test;
- :func:`per_plan_route` is ``prepare_one`` plus a one-plan
  ``fused_forward``, the cached path at batch size one.

Every comparison is exact, through ``view(np.uint64)``, over every
collected TPC-H, sysbench and job-light plan, with environments
interleaved in the input order, under no mask, hard keep-masks and the
soft ``zero_mask``.
"""

from __future__ import annotations

import copy
from typing import Dict, List

import numpy as np
import pytest

from repro.engine.executor import LabeledPlan
from repro.engine.operators import OperatorType, PlanNode
from repro.featurization.encoding import OperatorEncoder
from repro.models.base import PREDICT_CHUNK_PLANS
from repro.models.prepared import MAX_CHILDREN, fused_forward
from repro.models.qppnet import QPPNet, from_log
from repro.workload.collect import collect_labeled_plans

from ..featurization.test_encoding_reference import edge_plan, snapshot_mapping


class Snapshots:
    """Stands in for a ``SnapshotSet``: one fixed coefficient mapping
    per environment, the same object on every call."""

    def __init__(self, env_names):
        self._by_env = {
            name: snapshot_mapping(seed) for seed, name in enumerate(env_names, 1)
        }

    def normalized(self, env_name: str) -> Dict[OperatorType, np.ndarray]:
        return self._by_env[env_name]


def recursive_route(model: QPPNet, records, snapshots) -> np.ndarray:
    """Each plan on its own: encode its nodes, then run each node's
    unit on one row, its first :data:`MAX_CHILDREN` children's data
    vectors (zeros for absent ones) appended."""
    roots = []
    for record in records:
        nodes = list(record.plan.walk())
        matrix = model.encoder.encode_plan(
            record.plan, snapshots.normalized(record.env_name)
        )
        if model.zero_mask is not None:
            matrix = matrix * model.zero_mask
        rows = {id(node): row for node, row in zip(nodes, matrix, strict=True)}

        def run(node: PlanNode) -> np.ndarray:
            data = [run(child)[1:] for child in node.children][:MAX_CHILDREN]
            data += [np.zeros(model.data_size)] * (MAX_CHILDREN - len(data))
            feats = rows[id(node)]
            keep = model.masks.get(node.op)
            if keep is not None:
                feats = feats[keep]
            unit_input = np.concatenate([feats, *data]).reshape(1, -1)
            return model.units[node.op].forward_batched(unit_input)[0]

        roots.append(run(record.plan)[0])
    return from_log(np.array(roots, dtype=np.float64))


def per_plan_route(model: QPPNet, records, snapshots) -> np.ndarray:
    """``prepare_one`` and a one-plan ``fused_forward`` per plan."""
    roots = [
        fused_forward(
            [model.prepare_one(record, snapshots)], model.units, model.data_size
        )[0]
        for record in records
    ]
    return from_log(np.array(roots, dtype=np.float64))


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.fixture(scope="module", params=["tpch", "sysbench", "joblight"])
def corpus(
    request, tpch, sysbench, joblight, environments, tpch_labeled, sysbench_labeled
):
    """A QPPNet fitted on a few of one benchmark's plans, every
    collected plan of it (environments interleaved) and a snapshot
    mapping per environment."""
    bench, labeled = {
        "tpch": (tpch, tpch_labeled),
        "sysbench": (sysbench, sysbench_labeled),
        "joblight": (
            joblight,
            collect_labeled_plans(joblight, environments, 120, seed=1),
        ),
    }[request.param]
    model = QPPNet(OperatorEncoder(bench.catalog), epochs=1, seed=3)
    model.fit(labeled[:24])
    order = np.random.default_rng(8).permutation(len(labeled))
    records = [labeled[i] for i in order]
    if request.param == "tpch":
        records += [
            LabeledPlan(edge_plan(), 1.0, env.name) for env in environments
        ]
    assert len({r.env_name for r in records[:8]}) > 1
    return model, records, Snapshots([env.name for env in environments])


def masked(model: QPPNet, kind: str) -> QPPNet:
    """A copy of *model* with no mask, hard keep-masks or a soft
    zero-mask."""
    model = copy.deepcopy(model)
    rng = np.random.default_rng(17)
    if kind == "hard":
        masks = {}
        for op in OperatorType:
            keep = rng.random(model.encoder.dim) < 0.6
            keep[0] = True
            masks[op] = keep
        model.set_masks(masks)
    elif kind == "soft":
        mask = (rng.random(model.encoder.dim) < 0.6).astype(np.float64)
        mask[0] = 1.0
        model.zero_mask = mask
    return model


@pytest.mark.parametrize("kind", ["none", "hard", "soft"])
def test_fresh_flush_matches_the_per_plan_routes(corpus, kind):
    """One flush of every plan, one plan repeated, plus the edge plan
    (an Aggregate with 3 children, zero rows) for TPC-H."""
    base, records, snapshots = corpus
    model = masked(base, kind)
    flush = records + [records[3]] * 4
    expected = recursive_route(model, flush, snapshots)
    got = model.predict_prepared_batch(flush, snapshot_set=snapshots)
    assert_same_bits(got, expected)
    assert_same_bits(per_plan_route(model, flush, snapshots), expected)


@pytest.mark.parametrize("kind", ["none", "hard", "soft"])
def test_cached_and_fresh_plans_mix_in_one_flush(corpus, kind):
    base, records, snapshots = corpus
    model = masked(base, kind)
    expected = recursive_route(model, records, snapshots)
    values: List[object] = [
        model.prepare_one(record, snapshots) if i % 3 == 0 else None
        for i, record in enumerate(records)
    ]
    got = model.predict_prepared_batch(records, values, snapshots)
    assert_same_bits(got, expected)


def test_a_flush_larger_than_a_chunk(corpus):
    base, records, snapshots = corpus
    expected = recursive_route(base, records, snapshots)
    repeats = PREDICT_CHUNK_PLANS // len(records) + 2
    flush = records * repeats
    assert len(flush) > PREDICT_CHUNK_PLANS
    got = base.predict_prepared_batch(flush, snapshot_set=snapshots)
    assert_same_bits(got, np.tile(expected, repeats))


def test_a_flush_of_one_and_the_empty_flush(corpus):
    base, records, snapshots = corpus
    for record in records[:10]:
        assert_same_bits(
            base.predict_prepared_batch([record], snapshot_set=snapshots),
            recursive_route(base, [record], snapshots),
        )
    for out in (
        base.predict_prepared_batch([], snapshot_set=snapshots),
        base.predict_many([], snapshots),
    ):
        assert out.shape == (0,)
        assert out.dtype == np.float64
