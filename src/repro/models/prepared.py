"""Prepared-plan exchange format and the fused batch forward.

This is the vectorized spine of the serving hot path.  A
:class:`PreparedPlan` is a plan featurized *and grouped*: nodes are
bucketed by ``(height, operator)`` with one feature matrix per bucket,
so inference never assembles per-node dicts or stacks Python lists of
rows.  :func:`fused_forward` merges any number of prepared plans and
runs one unit forward per ``(height, operator)`` group across the whole
flush — zero per-item dispatch, which is what lets the MicroBatcher's
coalescing actually pay off.  Training merges each mini-batch with the
same :func:`merge_prepared`, so both paths group plans one way.

Featurizing one plan walks it once: :func:`walk_plan` records the
pre-order nodes with each node's parent and child slot, the encoder
turns the node list into one matrix, and :func:`plan_topology` derives
heights, child slots and groups from the same walk in one reverse
pass.  :func:`prepared_from_matrix` then cuts each group's block out of
the matrix with one indexing step (its rows by its operator's kept
columns).

Bit-identity contract: every matmul goes through
:meth:`repro.nn.layers.Module.forward_batched` (fixed-block GEMM, see
:mod:`repro.nn.batched`), so a row's result is independent of how many
other rows share the call.  A plan therefore predicts identically
whether fused alone or with a thousand neighbours — the scalar and
batched serving paths are the *same* code at different batch sizes,
and the equivalence suite asserts exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..engine.operators import OperatorType, PlanNode

#: Child-data slots per node (QPPNet's binary-plan assumption).
MAX_CHILDREN = 2


@dataclass
class PreparedPlan:
    """One plan, featurized and grouped for the fused forward.

    Parallel lists, one entry per ``(height, operator)`` group, sorted
    by ``(height, operator value)``:

    - ``levels``: the group's node height (leaves are 0)
    - ``ops``: the group's operator type
    - ``feats``: ``(n_i, masked_dim)`` feature matrix, rows in walk order
    - ``nodes``: ``(n_i,)`` pre-order walk indices of the group's nodes
    - ``children``: ``(n_i, MAX_CHILDREN)`` walk indices of each node's
      children, ``-1`` for absent slots

    Walk indices (not node ids) are the exchange format, so a prepared
    plan cached for one plan object replays onto any plan sharing its
    fingerprint.  The form round-trips through the ``repro.persist``
    codec (kind ``"qppnet_plan"``).
    """

    levels: List[int]
    ops: List[OperatorType]
    feats: List[np.ndarray]
    nodes: List[np.ndarray]
    children: List[np.ndarray]
    n_nodes: int


class PlanWalk(NamedTuple):
    """A plan's pre-order walk with each node's place in the tree.

    ``nodes[i]`` is walk index *i*; ``parents[i]`` is the walk index
    of its parent (``-1`` for the root) and ``slots[i]`` its position
    among that parent's children.  Built once by :func:`walk_plan` and
    shared by the encoder (rows) and :func:`plan_topology` (groups).
    """

    nodes: List[PlanNode]
    parents: List[int]
    slots: List[int]


def walk_plan(plan: PlanNode) -> PlanWalk:
    """Walk *plan* in pre-order with an explicit stack (no recursion)."""
    nodes: List[PlanNode] = []
    parents: List[int] = []
    slots: List[int] = []
    stack = [(plan, -1, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        node, parent, slot = pop()
        index = len(nodes)
        nodes.append(node)
        parents.append(parent)
        slots.append(slot)
        children = node.children
        if children:
            slot = len(children)
            for child in reversed(children):
                slot -= 1
                push((child, index, slot))
    return PlanWalk(nodes, parents, slots)


def plan_topology(
    plan: PlanNode, walk: Optional[PlanWalk] = None
) -> Tuple[List[Tuple[int, OperatorType, np.ndarray, np.ndarray]], int]:
    """Group *plan*'s nodes by ``(height, operator)``.

    Returns ``(groups, n_nodes)`` where each group is ``(level, op,
    node_indices, child_indices)`` over pre-order walk indices, sorted
    by ``(level, op value)`` so iterating groups in order always
    computes children before parents.

    One pass over the walk (*walk*, when the caller already has
    :func:`walk_plan`'s), iterated in reverse: a node's descendants
    follow it in pre-order, so when the pass reaches a node its height
    is final; it then raises its parent's height and fills its
    parent's child slot.  Children past :data:`MAX_CHILDREN` count for
    the height but get no slot.  The groups' index arrays are slices of
    one array each, built once per plan.
    """
    nodes, parents, slots = walk if walk is not None else walk_plan(plan)
    n_nodes = len(nodes)
    heights = [0] * n_nodes
    child_slots = [[-1] * MAX_CHILDREN for _ in range(n_nodes)]
    members: Dict[Tuple[int, str], Tuple[OperatorType, List[int]]] = {}
    for i in range(n_nodes - 1, -1, -1):
        height, op = heights[i], nodes[i].op
        members.setdefault((height, op.value), (op, []))[1].append(i)
        parent = parents[i]
        if parent >= 0:
            if height >= heights[parent]:
                heights[parent] = height + 1
            if slots[i] < MAX_CHILDREN:
                child_slots[parent][slots[i]] = i
    order: List[int] = []
    bounds = []
    for (level, _), (op, indices) in sorted(members.items()):
        order.extend(reversed(indices))
        bounds.append((level, op, len(order)))
    node_order = np.array(order, dtype=np.int64)
    child_order = np.array(
        [child_slots[i] for i in order], dtype=np.int64
    ).reshape(n_nodes, MAX_CHILDREN)
    groups = []
    lo = 0
    for level, op, hi in bounds:
        groups.append((level, op, node_order[lo:hi], child_order[lo:hi]))
        lo = hi
    return groups, n_nodes


def prepared_from_matrix(
    plan: PlanNode,
    matrix: np.ndarray,
    masks: Optional[Mapping[OperatorType, np.ndarray]] = None,
    walk: Optional[PlanWalk] = None,
) -> PreparedPlan:
    """Build a :class:`PreparedPlan` from a full ``(n_nodes, dim)``
    feature matrix (pre-order rows), applying per-operator keep-masks
    group-wise — identical values to masking each row individually.

    Each group's feature block is one indexing step: its rows crossed
    with its operator's kept columns.  *walk* is passed on to
    :func:`plan_topology`.
    """
    groups, n_nodes = plan_topology(plan, walk)
    levels: List[int] = []
    ops: List[OperatorType] = []
    feats: List[np.ndarray] = []
    nodes: List[np.ndarray] = []
    children: List[np.ndarray] = []
    for level, op, node_idx, child_idx in groups:
        keep = masks.get(op) if masks else None
        levels.append(level)
        ops.append(op)
        feats.append(
            matrix[node_idx]
            if keep is None
            else matrix[node_idx[:, None], np.asarray(keep)]
        )
        nodes.append(node_idx)
        children.append(child_idx)
    return PreparedPlan(levels, ops, feats, nodes, children, n_nodes)


def prepared_from_rows(
    plan: PlanNode, rows: Sequence[np.ndarray]
) -> PreparedPlan:
    """Regroup legacy per-node feature rows (pre-order, already masked)
    into the grouped form — the upgrade path for prepared values
    restored from pre-``PreparedPlan`` checkpoints."""
    groups, n_nodes = plan_topology(plan)
    levels: List[int] = []
    ops: List[OperatorType] = []
    feats: List[np.ndarray] = []
    nodes: List[np.ndarray] = []
    children: List[np.ndarray] = []
    for level, op, node_idx, child_idx in groups:
        levels.append(level)
        ops.append(op)
        feats.append(
            np.stack([np.asarray(rows[i], dtype=np.float64) for i in node_idx])
        )
        nodes.append(node_idx)
        children.append(child_idx)
    return PreparedPlan(levels, ops, feats, nodes, children, n_nodes)


def merge_prepared(
    prepared_seq: Sequence[PreparedPlan],
) -> Tuple[List[Tuple[OperatorType, np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """Merge prepared plans' groups across plans by ``(height, operator)``.

    Node indices become flush-wide: plan ``i``'s walk index ``j`` is
    ``offsets[i] + j``.  Returns ``(groups, offsets)``: each group is
    ``(op, feats, nodes, children)``, sorted by ``(height, operator
    value)`` so children are always computed before parents, with rows
    plan-major and in walk order within a plan; absent child slots point
    at ``offsets[-1]`` (one past the last node).  ``offsets`` has one
    entry per plan plus the total.  Serving (:func:`fused_forward`) and
    training (:meth:`repro.models.qppnet.QPPNet.fit`) share this merge.

    A single plan's groups are already unique and sorted, so a flush of
    one skips the merge (35 vs 54 us per call on a 2-vCPU Xeon; every
    synchronous ``estimate`` is such a flush).  A flush of many sorts its groups into buckets
    once, then shifts every node and child index of the flush with one
    ``np.repeat`` of the plans' offsets; each bucket is a slice of the
    shifted arrays.
    """
    if len(prepared_seq) == 1:
        (prepared,) = prepared_seq
        offsets = np.array([0, prepared.n_nodes], dtype=np.int64)
        total = offsets[-1]
        groups = [
            (
                op,
                feats,
                nodes.astype(np.int64, copy=False),
                np.where(children >= 0, children, total),
            )
            for op, feats, nodes, children in zip(
                prepared.ops,
                prepared.feats,
                prepared.nodes,
                prepared.children,
                strict=True,
            )
        ]
        return groups, offsets
    counts = np.array([p.n_nodes for p in prepared_seq], dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    if not prepared_seq:
        return [], offsets
    # One (height, operator value, plan, group, op) entry per plan
    # group, sorted bucket-major and plan-major within a bucket: the row
    # order of the merged groups.  (plan, group) is unique, so the sort
    # never compares operators.
    entries = sorted(
        (level, op.value, plan, group, op)
        for plan, prepared in enumerate(prepared_seq)
        for group, (level, op) in enumerate(
            zip(prepared.levels, prepared.ops, strict=True)
        )
    )
    node_parts = [prepared_seq[plan].nodes[group] for _, _, plan, group, _ in entries]
    shift = np.repeat(
        offsets[[entry[2] for entry in entries]],
        [len(part) for part in node_parts],
    )
    nodes = np.concatenate(node_parts) + shift
    children = np.concatenate(
        [prepared_seq[plan].children[group] for _, _, plan, group, _ in entries]
    )
    children = np.where(children >= 0, children + shift[:, None], offsets[-1])
    groups = []
    lo = 0
    for _key, bucket in groupby(entries, key=itemgetter(0, 1)):
        feat_parts = []
        for _, _, plan, group, op in bucket:
            feat_parts.append(prepared_seq[plan].feats[group])
        feats = (
            feat_parts[0]
            if len(feat_parts) == 1
            else np.concatenate(feat_parts, axis=0)
        )
        hi = lo + feats.shape[0]
        groups.append((op, feats, nodes[lo:hi], children[lo:hi]))
        lo = hi
    return groups, offsets


def fused_forward(
    prepared_seq: Sequence[PreparedPlan],
    units: Mapping[OperatorType, object],
    data_size: int,
) -> np.ndarray:
    """One forward pass over *all* plans in the flush.

    Groups are merged across plans (:func:`merge_prepared`) and each
    merged group makes a single :meth:`forward_batched` call; node
    outputs land in one shared ``(total_nodes + 1, 1 + data_size)``
    buffer whose final all-zeros row is the target of every absent
    child slot (so leaf child-data gathers read zeros, exactly like the
    per-node zero vector the scalar encoder used).  Returns the root
    log-latency per plan, in input order.
    """
    if not prepared_seq:
        # Empty flush: the contract is an empty *float64* array, same
        # dtype as the populated path, so downstream concatenation and
        # the persist codec never see a dtype flip.
        return np.zeros(0, dtype=np.float64)
    groups, offsets = merge_prepared(prepared_seq)
    out = np.zeros((int(offsets[-1]) + 1, 1 + data_size))
    for op, feats, nodes, children in groups:
        child_data = out[children.reshape(-1), 1:].reshape(
            nodes.shape[0], MAX_CHILDREN * data_size
        )
        out[nodes] = units[op].forward_batched(
            np.concatenate([feats, child_data], axis=1)
        )
    return out[offsets[:-1], 0]
