"""Plan forests, the prepared-plan exchange format and the fused forward.

This is the vectorized spine of the inference path.  Any set of plans
is grouped as one *forest*, nodes bucketed by ``(height, operator)``
so every unit runs once per bucket, children's buckets before
parents':

- :func:`walk_plans` walks every plan once, in pre-order, into one
  node list, recording each root's position and each node's parent
  and child slot;
- the encoder turns that node list into one matrix (per environment);
- :func:`group_forest` makes one reverse pass for heights, child slots
  and bucket keys, and sorts the nodes into buckets with one stable
  argsort over the int key ``height * n_ops + op code``;
- :func:`cut_groups` cuts each bucket's features out of the matrix
  with one index (its rows by its operator's kept columns);
- :func:`forward_groups` runs one ``forward_batched`` per bucket into
  one output buffer, from which the roots' rows are read.

A fresh flush runs exactly that (:func:`forest_forward`), with no
per-plan step.  A single plan is a forest of one: a
:class:`PreparedPlan` (what the feature cache stores and what training
samples mini-batches from) holds that forest's buckets, and
:func:`plan_topology` and :func:`prepared_from_matrix` are the one-root
case of the same routine.  Prepared plans are regrouped across a
cached flush or a training mini-batch by :func:`merge_prepared`, one
stable sort by the same int key.

Bit-identity contract: every matmul goes through
:meth:`repro.nn.layers.Module.forward_batched` (fixed-block GEMM, see
:mod:`repro.nn.batched`), so a row's result is independent of how many
other rows share the call and of where it sits.  A plan therefore
predicts identically whether grouped alone or in a forest of a
thousand, fresh or cached — the scalar and batched serving paths are
the *same* code at different batch sizes, and the equivalence suite
asserts exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..engine.operators import OperatorType, PlanNode

#: Child-data slots per node (QPPNet's binary-plan assumption).
MAX_CHILDREN = 2

#: Operators in ``value`` order.  An operator's code is its position,
#: so sorting by ``height * _N_OPS + code`` sorts by ``(height,
#: operator value)``: the group order of every prepared plan.
_OPS = tuple(sorted(OperatorType, key=lambda op: op.value))
#: Code by operator value, looked up with ``op._value_``: a plain
#: attribute read, where ``Enum.__hash__`` and ``op.value`` are
#: Python-level calls (4-6x slower per lookup).
_CODE = {op.value: code for code, op in enumerate(_OPS)}
_N_OPS = len(_OPS)


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
    """Plans' pre-order walks, concatenated into one forest.

    ``nodes[i]`` is forest index *i*; ``parents[i]`` is the forest
    index of its parent (``-1`` for a root) and ``slots[i]`` its
    position among that parent's children; ``roots[k]`` is the forest
    index of plan *k*'s root.  Built once by :func:`walk_plans` and
    shared by the encoder (rows) and :func:`group_forest` (buckets).
    One plan's walk has ``roots == [0]``, so its forest indices are its
    walk indices.
    """

    nodes: List[PlanNode]
    parents: List[int]
    slots: List[int]
    roots: List[int]


class Forest(NamedTuple):
    """A :class:`PlanWalk`'s nodes grouped by ``(height, operator)``.

    Parallel lists, one entry per bucket, sorted by ``(height,
    operator value)`` so iterating buckets in order always computes
    children before parents: ``levels``, ``ops``, ``nodes`` (``(n_i,)``
    forest indices, ascending, so plan-major and in walk order within a
    plan) and ``children`` (``(n_i, MAX_CHILDREN)`` forest indices of
    each node's children, ``-1`` for absent slots).  ``roots`` and
    ``n_nodes`` are the walk's.
    """

    levels: List[int]
    ops: List[OperatorType]
    nodes: List[np.ndarray]
    children: List[np.ndarray]
    roots: np.ndarray
    n_nodes: int


def walk_plans(plans: Sequence[PlanNode]) -> PlanWalk:
    """Walk every plan in pre-order, plan after plan, into one forest
    (explicit stack, no recursion)."""
    nodes: List[PlanNode] = []
    parents: List[int] = []
    slots: List[int] = []
    roots: List[int] = []
    stack: List[Tuple[PlanNode, int, int]] = []
    pop, push = stack.pop, stack.append
    for plan in plans:
        roots.append(len(nodes))
        push((plan, -1, 0))
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
    return PlanWalk(nodes, parents, slots, roots)


def walk_plan(plan: PlanNode) -> PlanWalk:
    """*plan*'s walk: the forest of one."""
    return walk_plans((plan,))


def group_forest(walk: PlanWalk) -> Forest:
    """Group *walk*'s nodes by ``(height, operator)``.

    One pass over the walk, iterated in reverse: a node's descendants
    follow it in pre-order, so when the pass reaches a node its height
    is final; it takes its key ``height * n_ops + op code``, raises
    its parent's height and fills its parent's child slot (children
    past :data:`MAX_CHILDREN` count for the height but get no slot).
    One stable argsort of the keys then orders the nodes bucket by
    bucket, in forest order within a bucket.  Each bucket's index
    arrays are slices of one array each.
    """
    nodes, parents, slots, roots = walk
    n_nodes = len(nodes)
    heights = [0] * n_nodes
    keys = [0] * n_nodes
    child_slots = [-1] * (n_nodes * MAX_CHILDREN)
    for i in range(n_nodes - 1, -1, -1):
        height = heights[i]
        keys[i] = height * _N_OPS + _CODE[nodes[i].op._value_]
        parent = parents[i]
        if parent >= 0:
            if height >= heights[parent]:
                heights[parent] = height + 1
            if slots[i] < MAX_CHILDREN:
                child_slots[parent * MAX_CHILDREN + slots[i]] = i
    key_of = np.array(keys, dtype=np.int64)
    order = np.argsort(key_of, kind="stable")
    sorted_keys = key_of[order]
    child_order = np.array(child_slots, dtype=np.int64).reshape(-1, MAX_CHILDREN)
    child_order = child_order[order]
    cuts = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist()
    levels: List[int] = []
    ops: List[OperatorType] = []
    members: List[np.ndarray] = []
    children: List[np.ndarray] = []
    for lo, hi in zip([0, *cuts], [*cuts, n_nodes]):
        level, code = divmod(int(sorted_keys[lo]), _N_OPS)
        levels.append(level)
        ops.append(_OPS[code])
        members.append(order[lo:hi])
        children.append(child_order[lo:hi])
    return Forest(
        levels, ops, members, children, np.array(roots, dtype=np.int64), n_nodes
    )


def cut_groups(
    forest: Forest,
    matrix: np.ndarray,
    masks: Optional[Mapping[OperatorType, np.ndarray]] = None,
) -> List[np.ndarray]:
    """Each bucket's feature block from the forest's ``(n_nodes, dim)``
    matrix (rows in forest order), one indexing step per bucket: its
    rows crossed with its operator's kept columns — identical values to
    masking each row on its own."""
    feats: List[np.ndarray] = []
    for op, rows in zip(forest.ops, forest.nodes, strict=True):
        keep = masks.get(op) if masks else None
        feats.append(
            matrix[rows] if keep is None else matrix[rows[:, None], np.asarray(keep)]
        )
    return feats


def plan_topology(
    plan: PlanNode, walk: Optional[PlanWalk] = None
) -> Tuple[List[Tuple[int, OperatorType, np.ndarray, np.ndarray]], int]:
    """Group *plan*'s nodes by ``(height, operator)``: the forest of
    one (:func:`group_forest`).

    Returns ``(groups, n_nodes)`` where each group is ``(level, op,
    node_indices, child_indices)`` over pre-order walk indices, sorted
    by ``(level, op value)``.  *walk* is :func:`walk_plan`'s, when the
    caller already has it.
    """
    forest = group_forest(walk if walk is not None else walk_plan(plan))
    groups = list(
        zip(forest.levels, forest.ops, forest.nodes, forest.children, strict=True)
    )
    return groups, forest.n_nodes


def prepared_from_matrix(
    plan: PlanNode,
    matrix: np.ndarray,
    masks: Optional[Mapping[OperatorType, np.ndarray]] = None,
    walk: Optional[PlanWalk] = None,
) -> PreparedPlan:
    """Build a :class:`PreparedPlan` from a full ``(n_nodes, dim)``
    feature matrix (pre-order rows), applying per-operator keep-masks
    group-wise: the forest of one, cut by :func:`cut_groups`.  *walk*
    is :func:`walk_plan`'s, when the caller already has it.
    """
    forest = group_forest(walk if walk is not None else walk_plan(plan))
    return PreparedPlan(
        forest.levels,
        forest.ops,
        cut_groups(forest, matrix, masks),
        forest.nodes,
        forest.children,
        forest.n_nodes,
    )


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
    one skips the merge (every synchronous ``estimate`` is such a
    flush).  A flush of many orders its (plan, group) entries with one
    stable sort of their indices by the int key ``height * n_ops + op
    code`` (a plan holds each key at most once, so ties stay
    plan-major), then
    shifts every node and child index of the flush with one
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
    # One entry per (plan, group), plan-major; a stable sort of their
    # keys puts them bucket-major and plan-major within a bucket.
    keys = [
        level * _N_OPS + _CODE[op._value_]
        for prepared in prepared_seq
        for level, op in zip(prepared.levels, prepared.ops, strict=True)
    ]
    entries = sorted(range(len(keys)), key=keys.__getitem__)
    plan_of = [plan for plan, p in enumerate(prepared_seq) for _ in p.levels]
    node_parts = [part for p in prepared_seq for part in p.nodes]
    child_parts = [part for p in prepared_seq for part in p.children]
    feat_parts = [part for p in prepared_seq for part in p.feats]
    node_parts = [node_parts[e] for e in entries]
    sizes = [len(part) for part in node_parts]
    shift = np.repeat(offsets[[plan_of[e] for e in entries]], sizes)
    nodes = np.concatenate(node_parts) + shift
    children = np.concatenate([child_parts[e] for e in entries])
    children = np.where(children >= 0, children + shift[:, None], offsets[-1])
    groups = []
    lo = hi = first = 0
    for stop, entry in enumerate(entries, 1):
        hi += sizes[stop - 1]
        if stop < len(entries) and keys[entries[stop]] == keys[entry]:
            continue
        bucket = entries[first:stop]
        feats = (
            feat_parts[entry]
            if len(bucket) == 1
            else np.concatenate([feat_parts[e] for e in bucket], axis=0)
        )
        op = _OPS[keys[entry] % _N_OPS]
        groups.append((op, feats, nodes[lo:hi], children[lo:hi]))
        lo, first = hi, stop
    return groups, offsets


def forward_groups(
    groups: Iterable[Tuple[OperatorType, np.ndarray, np.ndarray, np.ndarray]],
    n_nodes: int,
    units: Mapping[OperatorType, object],
    data_size: int,
) -> np.ndarray:
    """Run each ``(op, feats, nodes, children)`` group's unit once, in
    order, into one ``(n_nodes + 1, 1 + data_size)`` output buffer.

    A group reads its children's data vectors from the rows earlier
    groups wrote.  The buffer's final row stays all zeros and is the
    target of every absent child slot, whether it is marked ``-1`` (a
    forest's) or ``n_nodes`` (a merge's), so leaf child-data gathers
    read zeros, exactly like the per-node zero vector the scalar
    encoder used.  Returns the buffer: row *i* is node *i*'s output.
    """
    out = np.zeros((n_nodes + 1, 1 + data_size))
    for op, feats, nodes, children in groups:
        child_data = out[children.reshape(-1), 1:].reshape(
            nodes.shape[0], MAX_CHILDREN * data_size
        )
        out[nodes] = units[op].forward_batched(
            np.concatenate([feats, child_data], axis=1)
        )
    return out


def forest_forward(
    walk: PlanWalk,
    matrix: np.ndarray,
    masks: Optional[Mapping[OperatorType, np.ndarray]],
    units: Mapping[OperatorType, object],
    data_size: int,
) -> np.ndarray:
    """One forward pass over fresh plans grouped as one forest.

    *matrix* holds the encoded nodes of *walk*, one row per forest
    index.  The walk is grouped (:func:`group_forest`), each bucket's
    features cut (:func:`cut_groups`) and run (:func:`forward_groups`).
    Returns the root log-latency of each plan, in ``walk.roots`` order.
    """
    forest = group_forest(walk)
    groups = zip(
        forest.ops,
        cut_groups(forest, matrix, masks),
        forest.nodes,
        forest.children,
        strict=True,
    )
    out = forward_groups(groups, forest.n_nodes, units, data_size)
    return out[forest.roots, 0]


def fused_forward(
    prepared_seq: Sequence[PreparedPlan],
    units: Mapping[OperatorType, object],
    data_size: int,
) -> np.ndarray:
    """One forward pass over *all* prepared plans in the flush.

    Groups are merged across plans (:func:`merge_prepared`) and each
    merged group makes a single :meth:`forward_batched` call
    (:func:`forward_groups`).  Returns the root log-latency per plan,
    in input order.
    """
    if not prepared_seq:
        # Empty flush: the contract is an empty *float64* array, same
        # dtype as the populated path, so downstream concatenation and
        # the persist codec never see a dtype flip.
        return np.zeros(0, dtype=np.float64)
    groups, offsets = merge_prepared(prepared_seq)
    out = forward_groups(groups, int(offsets[-1]), units, data_size)
    return out[offsets[:-1], 0]
