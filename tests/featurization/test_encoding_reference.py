"""Bit-identity of the array-shaped featurization against per-node oracles.

:meth:`OperatorEncoder.encode_nodes` builds a plan's whole matrix in a
fixed number of numpy calls and :func:`plan_topology` groups a plan in
one reverse pass over its walk.  This file keeps the straightforward
versions they replaced as test-only oracles:

- :func:`reference_encode_node` builds one node's vector on its own
  (``np.zeros``, scattered one-hots, a per-scalar ``np.log1p`` numeric
  block, the snapshot coefficients), locating every one-hot through
  ``feature_names`` rather than the encoder's private position maps;
- :func:`reference_topology` computes heights recursively and groups
  nodes with a dict.

Every comparison is exact: float matrices through ``view(np.uint64)``,
so even a sign of zero or a NaN payload would count, over every
collected TPC-H, sysbench and job-light plan, with and without a
snapshot mapping, and over hand-built edge nodes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
import pytest

from repro.catalog.statistics import Predicate
from repro.engine.operators import OperatorType, PlanNode, scan_node
from repro.featurization.encoding import SNAPSHOT_SLOTS, OperatorEncoder
from repro.models.prepared import (
    MAX_CHILDREN,
    plan_topology,
    prepared_from_matrix,
    walk_plan,
)
from repro.workload.collect import collect_labeled_plans


def reference_encode_node(
    encoder: OperatorEncoder,
    node: PlanNode,
    snapshot: Optional[Mapping[OperatorType, np.ndarray]] = None,
) -> np.ndarray:
    """One node's feature vector, built on its own."""
    position = {name: i for i, name in enumerate(encoder.feature_names)}
    vec = np.zeros(encoder.dim, dtype=np.float64)
    vec[position[f"op:{node.op.value}"]] = 1.0
    if node.table is not None:
        vec[position[f"table:{node.table}"]] = 1.0
    refs: List[Tuple[str, str]] = [(p.table, p.column) for p in node.predicates]
    for key in (*node.sort_keys, *node.group_keys):
        if "." in key:
            table, column = key.split(".", 1)
            refs.append((table, column))
    if len(node.join_columns) == 4:
        lt, lc, rt, rc = node.join_columns
        refs.extend([(lt, lc), (rt, rc)])
    for table, column in refs:
        pos = position.get(f"column:{table}.{column}")
        if pos is not None:
            vec[pos] = 1.0
    if node.index is not None and f"index:{node.index}" in position:
        vec[position[f"index:{node.index}"]] = 1.0
    child_rows = 1.0
    for child in node.children:
        child_rows *= max(child.est_rows, 1.0)
    if node.table is not None:
        child_rows = float(encoder.catalog.table(node.table).row_count)
    selectivity = min(node.est_rows / max(child_rows, 1.0), 1.0)
    vec[encoder.block_slice("numeric")] = np.array(
        [
            np.log1p(max(node.est_rows, 0.0)),
            np.log1p(max(node.est_width, 0)),
            np.log1p(max(node.est_total_cost, 0.0)),
            np.log1p(max(node.est_startup_cost, 0.0)),
            float(len(node.predicates)),
            float(len(node.sort_keys)),
            float(len(node.group_keys)),
            float(len(node.children)),
            selectivity,
            np.log1p(float(node.limit_count or 0)),
        ],
        dtype=np.float64,
    )
    if snapshot is not None and node.op in snapshot:
        coeffs = np.asarray(snapshot[node.op], dtype=np.float64)
        width = min(len(coeffs), encoder.snapshot_slots)
        base = encoder.block_slice("snapshot").start
        vec[base:base + width] = coeffs[:width]
    return vec


def reference_encode_plan(encoder, plan, snapshot=None) -> np.ndarray:
    return np.stack([reference_encode_node(encoder, n, snapshot) for n in plan.walk()])


def reference_topology(plan: PlanNode):
    """Recursive heights, dict grouping, sorted by (height, op value)."""
    heights: Dict[int, int] = {}

    def height_of(node: PlanNode) -> int:
        h = 1 + max((height_of(c) for c in node.children), default=-1)
        heights[id(node)] = h
        return h

    height_of(plan)
    walk = list(plan.walk())
    index = {id(node): i for i, node in enumerate(walk)}
    groups: Dict[Tuple[int, str], Tuple[OperatorType, List[int], List[List[int]]]] = {}
    for i, node in enumerate(walk):
        op, nodes, children = groups.setdefault(
            (heights[id(node)], node.op.value), (node.op, [], [])
        )
        nodes.append(i)
        children.append(
            [
                index[id(node.children[slot])] if slot < len(node.children) else -1
                for slot in range(MAX_CHILDREN)
            ]
        )
    return [
        (level, op, nodes, children)
        for (level, _), (op, nodes, children) in sorted(groups.items())
    ], len(walk)


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.fixture(scope="module")
def corpora(tpch, sysbench, joblight, environments, tpch_labeled, sysbench_labeled):
    """(encoder, plans) per benchmark: every collected plan."""
    joblight_labeled = collect_labeled_plans(joblight, environments, 120, seed=1)
    return {
        name: (OperatorEncoder(bench.catalog), [r.plan for r in labeled])
        for name, bench, labeled in (
            ("tpch", tpch, tpch_labeled),
            ("sysbench", sysbench, sysbench_labeled),
            ("joblight", joblight, joblight_labeled),
        )
    }


def snapshot_mapping(seed: int) -> Dict[OperatorType, np.ndarray]:
    """Coefficients for most operators, some narrower and some wider
    than the snapshot block; one operator left out."""
    rng = np.random.default_rng(seed)
    return {
        op: rng.normal(size=int(rng.integers(1, SNAPSHOT_SLOTS + 3)))
        for op in list(OperatorType)[:-1]
    }


@pytest.mark.parametrize("corpus", ["tpch", "sysbench", "joblight"])
@pytest.mark.parametrize("with_snapshot", [False, True])
def test_plan_matrices_match_the_per_node_oracle(corpora, corpus, with_snapshot):
    encoder, plans = corpora[corpus]
    snapshot = snapshot_mapping(len(plans)) if with_snapshot else None
    assert len(plans) >= 100
    for plan in plans:
        expected = reference_encode_plan(encoder, plan, snapshot)
        assert_same_bits(encoder.encode_plan(plan, snapshot), expected)
        skeleton = encoder.encode_plan_skeleton(plan, snapshot)
        assert not skeleton[:, encoder.block_slice("numeric")].any()
        assert_same_bits(encoder.fill_numerics(skeleton.copy(), plan), expected)
        assert_same_bits(
            encoder.encode_nodes(walk_plan(plan).nodes, snapshot), expected
        )


@pytest.mark.parametrize("corpus", ["tpch", "sysbench", "joblight"])
def test_operator_rows_match_per_node_rows(corpora, corpus):
    """The drift loop's one-matrix split gives each operator the rows
    encode_node gives, in the same order."""
    encoder, plans = corpora[corpus]
    expected: Dict[OperatorType, List[np.ndarray]] = {}
    for plan in plans:
        for node in plan.walk():
            expected.setdefault(node.op, []).append(reference_encode_node(encoder, node))
    got = encoder.operator_rows(plans)
    assert list(got) == list(expected)
    for op, rows in expected.items():
        assert_same_bits(got[op], np.stack(rows))


@pytest.mark.parametrize("corpus", ["tpch", "sysbench", "joblight"])
def test_topology_matches_the_recursive_oracle(corpora, corpus):
    _, plans = corpora[corpus]
    for plan in plans:
        assert_same_topology(plan)


def assert_same_topology(plan: PlanNode) -> None:
    groups, n_nodes = plan_topology(plan)
    expected, expected_nodes = reference_topology(plan)
    assert n_nodes == expected_nodes
    assert len(groups) == len(expected)
    for (level, op, nodes, children), (e_level, e_op, e_nodes, e_children) in zip(
        groups, expected, strict=True
    ):
        assert (level, op) == (e_level, e_op)
        assert nodes.dtype == children.dtype == np.int64
        np.testing.assert_array_equal(nodes, e_nodes)
        assert children.shape == (len(e_nodes), MAX_CHILDREN)
        np.testing.assert_array_equal(children, e_children)


def test_prepared_groups_match_per_row_masking(corpora):
    """One indexing step per group (rows x kept columns) equals masking
    every row on its own."""
    encoder, plans = corpora["tpch"]
    rng = np.random.default_rng(5)
    masks = {op: rng.random(encoder.dim) < 0.6 for op in list(OperatorType)[::2]}
    for plan in plans[:40]:
        matrix = encoder.encode_plan(plan)
        prepared = prepared_from_matrix(plan, matrix, masks)
        for op, feats, nodes in zip(prepared.ops, prepared.feats, prepared.nodes, strict=True):
            keep = masks.get(op)
            rows = [matrix[i] if keep is None else matrix[i][keep] for i in nodes]
            assert_same_bits(feats, np.stack(rows))


# ----------------------------------------------------------------------
# edge nodes
# ----------------------------------------------------------------------
def edge_plan() -> PlanNode:
    """A plan exercising every branch of the encoder and the grouping.

    - a Sort and an Aggregate (no table), one with a limit;
    - an Index Scan whose index is not in the catalog, and one whose is;
    - zero estimated rows and widths, negative costs;
    - a join with 4-tuple ``join_columns`` and a sort key naming a
      column the catalog lacks;
    - an Aggregate with more children than ``MAX_CHILDREN``.
    """
    missing_index = scan_node(
        OperatorType.INDEX_SCAN, "orders",
        [Predicate("orders", "o_orderkey", "=", 5)], index="no_such_index",
    )
    known_index = scan_node(
        OperatorType.INDEX_SCAN, "orders",
        [Predicate("orders", "o_orderkey", "<", 50)], index="orders_pkey",
    )
    known_index.est_rows, known_index.est_width = 50.0, 16
    known_index.est_startup_cost, known_index.est_total_cost = 0.3, 12.5
    empty = scan_node(OperatorType.SEQ_SCAN, "lineitem", [])
    empty.est_rows, empty.est_total_cost = 0.0, -1.0
    join = PlanNode(
        op=OperatorType.HASH_JOIN,
        children=[empty, known_index],
        join_columns=("lineitem", "l_orderkey", "orders", "o_orderkey"),
        est_rows=7.0, est_width=24, est_total_cost=80.0,
    )
    wide = PlanNode(
        op=OperatorType.AGGREGATE,
        children=[join, missing_index, scan_node(OperatorType.SEQ_SCAN, "nation", [])],
        group_keys=("orders.o_orderdate", "no_dot_key"),
        est_rows=3.0,
    )
    sort = PlanNode(
        op=OperatorType.SORT,
        children=[wide],
        sort_keys=("orders.o_totalprice", "orders.no_such_column"),
        est_rows=3.0, est_width=8,
    )
    return PlanNode(
        op=OperatorType.LIMIT, children=[sort], limit_count=10, est_rows=3.0
    )


def test_edge_nodes_match_the_oracles(tpch):
    encoder = OperatorEncoder(tpch.catalog)
    plan = edge_plan()
    nodes = list(plan.walk())
    assert max(len(n.children) for n in nodes) > MAX_CHILDREN
    for snapshot in (None, snapshot_mapping(1), {}):
        expected = reference_encode_plan(encoder, plan, snapshot)
        assert_same_bits(encoder.encode_plan(plan, snapshot), expected)
        for node, row in zip(nodes, expected, strict=True):
            assert_same_bits(encoder.encode_node(node, snapshot), row)
        skeleton = encoder.encode_plan_skeleton(plan, snapshot)
        assert_same_bits(encoder.fill_numerics(skeleton, plan), expected)
    index_block = encoder.encode_plan(plan)[:, encoder.block_slice("index")]
    assert index_block.sum() == 1.0  # the catalog's index only
    assert_same_topology(plan)
    groups, _ = plan_topology(plan)
    # The third child of the Aggregate counts for its height but gets
    # no child slot.
    assert max(level for level, *_ in groups) == 4


def signed_zero_plan() -> PlanNode:
    """A plan of the values where numpy's clamps part from Python's.

    - a scan whose estimated rows and costs are ``-0.0`` (``max(-0.0,
      0.0)`` is ``-0.0``; ``np.maximum`` gives ``0.0``);
    - a join whose children estimate ``0.5`` and ``-0.0`` rows (both
      clamp to 1 in the selectivity's denominator);
    - a Sort over the join whose estimated rows are NaN, under a Limit
      (its selectivity's denominator is NaN).
    """
    def zero_scan() -> PlanNode:
        scan = scan_node(OperatorType.SEQ_SCAN, "lineitem", [])
        scan.est_rows = scan.est_total_cost = scan.est_startup_cost = -0.0
        return scan

    half = PlanNode(op=OperatorType.MATERIALIZE, children=[zero_scan()], est_rows=0.5)
    join = PlanNode(
        op=OperatorType.HASH_JOIN,
        children=[half, zero_scan()],
        join_columns=("lineitem", "l_orderkey", "lineitem", "l_partkey"),
        est_rows=0.75, est_width=12, est_total_cost=3.0,
    )
    nan = PlanNode(
        op=OperatorType.SORT, children=[join], est_rows=float("nan"), est_width=12
    )
    return PlanNode(op=OperatorType.LIMIT, children=[nan], limit_count=5, est_rows=5.0)


def test_signed_zero_and_nan_match_the_oracle(tpch):
    encoder = OperatorEncoder(tpch.catalog)
    plan = signed_zero_plan()
    limit, sort, _, _, zero, _ = plan.walk()
    numeric = encoder.block_slice("numeric")
    # log1p of the clamped rows, total cost and startup cost keeps -0.0.
    assert np.signbit(encoder.encode_node(zero)[numeric][[0, 2, 3]]).all()
    assert np.isnan(encoder.encode_node(sort)[numeric][0])
    assert np.isnan(encoder.encode_node(limit)[numeric][8])
    for snapshot in (None, snapshot_mapping(3)):
        expected = reference_encode_plan(encoder, plan, snapshot)
        assert_same_bits(encoder.encode_plan(plan, snapshot), expected)
        skeleton = encoder.encode_plan_skeleton(plan, snapshot)
        assert_same_bits(encoder.fill_numerics(skeleton, plan), expected)
        for node, row in zip(plan.walk(), expected, strict=True):
            assert_same_bits(encoder.encode_node(node, snapshot), row)


def test_a_node_encodes_alone_without_its_children(tpch):
    """An inner join encoded on its own still reads its children's rows:
    the selectivity does not depend on which nodes share the call."""
    encoder = OperatorEncoder(tpch.catalog)
    for plan in (edge_plan(), signed_zero_plan()):
        for node in plan.walk():
            if len(node.children) < 2:
                continue
            expected = reference_encode_node(encoder, node)
            assert_same_bits(encoder.encode_node(node), expected)
            assert_same_bits(encoder.encode_nodes([node, *node.children])[0], expected)
            assert_same_bits(encoder.encode_nodes([*node.children, node])[-1], expected)


def test_walk_records_parents_and_slots(tpch):
    plan = edge_plan()
    walk = walk_plan(plan)
    assert walk.nodes == list(plan.walk())
    for i, node in enumerate(walk.nodes):
        for slot, child in enumerate(node.children):
            j = next(k for k, other in enumerate(walk.nodes) if other is child)
            assert (walk.parents[j], walk.slots[j]) == (i, slot)
    assert walk.parents[0] == -1


def test_no_nodes_encode_to_an_empty_matrix(tpch):
    encoder = OperatorEncoder(tpch.catalog)
    assert encoder.encode_nodes([]).shape == (0, encoder.dim)
    assert encoder.encode_nodes([], snapshot_mapping(2)).shape == (0, encoder.dim)
    assert encoder.operator_rows([]) == {}
