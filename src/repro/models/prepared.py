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
  and bucket keys (:func:`forest_keys`), and sorts the nodes into
  buckets with one stable argsort over the int key ``height * n_ops +
  op code``;
- :func:`cut_groups` cuts each bucket's features out of the matrix
  with one index (its rows by its operator's kept columns);
- :func:`forward_groups` runs one ``forward_batched`` per bucket into
  one output buffer, from which the roots' rows are read.

A fresh flush runs exactly that (:func:`forest_forward`), with no
per-plan step.  A single plan is a forest of one: a
:class:`PreparedPlan` (what the feature cache stores) holds that
forest's buckets, and :func:`plan_topology` and
:func:`prepared_from_matrix` are the one-root case of the same routine.
Prepared plans are regrouped across a cached flush by
:func:`merge_prepared`, one stable sort by the same int key.  Training
keys its whole training set once as a :class:`TrainingForest` and cuts
each mini-batch from it into the groups :func:`merge_prepared` would
make of the batch's prepared plans.

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


def forest_keys(walk: PlanWalk) -> Tuple[np.ndarray, np.ndarray]:
    """Each of *walk*'s nodes' bucket key and child slots.

    One pass over the walk, iterated in reverse: a node's descendants
    follow it in pre-order, so when the pass reaches a node its height
    is final; it takes its key ``height * n_ops + op code``, raises
    its parent's height and fills its parent's child slot (children
    past :data:`MAX_CHILDREN` count for the height but get no slot).
    Returns ``(keys, children)``: ``(n_nodes,)`` int keys and
    ``(n_nodes, MAX_CHILDREN)`` forest indices, ``-1`` for absent
    slots.
    """
    nodes, parents, slots, _ = walk
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
    return (
        np.array(keys, dtype=np.int64),
        np.array(child_slots, dtype=np.int64).reshape(-1, MAX_CHILDREN),
    )


def _bucket_bounds(sorted_keys: np.ndarray) -> List[Tuple[int, int]]:
    """``(lo, hi)`` of each run of equal keys in *sorted_keys*."""
    cuts = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(sorted_keys)]))


def group_forest(walk: PlanWalk) -> Forest:
    """Group *walk*'s nodes by ``(height, operator)``.

    The keys come from :func:`forest_keys`; one stable argsort of them
    orders the nodes bucket by bucket, in forest order within a
    bucket.  Each bucket's index arrays are slices of one array each.
    """
    key_of, child_of = forest_keys(walk)
    order = np.argsort(key_of, kind="stable")
    sorted_keys = key_of[order]
    child_order = child_of[order]
    levels: List[int] = []
    ops: List[OperatorType] = []
    members: List[np.ndarray] = []
    children: List[np.ndarray] = []
    for lo, hi in _bucket_bounds(sorted_keys):
        level, code = divmod(int(sorted_keys[lo]), _N_OPS)
        levels.append(level)
        ops.append(_OPS[code])
        members.append(order[lo:hi])
        children.append(child_order[lo:hi])
    return Forest(
        levels,
        ops,
        members,
        children,
        np.array(walk.roots, dtype=np.int64),
        len(walk.nodes),
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
    entry per plan plus the total.  Serving (:func:`fused_forward`) runs
    on this merge; a :class:`TrainingForest` batch gives the same groups.

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


class ForestBatch(NamedTuple):
    """A mini-batch cut from a :class:`TrainingForest`.

    ``groups`` and ``n_nodes`` are what :func:`merge_prepared` gives
    for the batch's prepared plans (its ``offsets[-1]``): batch-wide
    node indices, absent child slots at ``n_nodes``.  ``members`` is
    the forest index of every group row, groups in order, for reading
    per-node values the forest was built with.  ``sources[g]`` lists,
    ascending, the groups that hold group *g*'s children.
    """

    groups: List[Tuple[OperatorType, np.ndarray, np.ndarray, np.ndarray]]
    n_nodes: int
    members: np.ndarray
    sources: List[List[int]]


class TrainingForest:
    """Training plans walked, encoded and keyed once per fit.

    Built from one :func:`walk_plans` forest of every training plan and
    its encoded matrix.  Each operator's rows are cut once, with that
    operator's kept columns, into one feature block.  A mini-batch
    (:meth:`batch`) is then a gather of its plans' node keys, one
    stable argsort, and one feature gather per group, where
    :func:`merge_prepared` would merge per-plan groups in Python.
    *plan_order[k]* is the training index of the walk's plan *k*.
    """

    def __init__(
        self,
        walk: PlanWalk,
        matrix: np.ndarray,
        masks: Optional[Mapping[OperatorType, np.ndarray]],
        plan_order: Sequence[int],
    ):
        self.keys, self.children = forest_keys(walk)
        roots = np.array(walk.roots, dtype=np.int64)
        self.starts = np.empty(len(roots), dtype=np.int64)
        self.sizes = np.empty(len(roots), dtype=np.int64)
        self.starts[plan_order] = roots
        self.sizes[plan_order] = np.diff(roots, append=len(walk.nodes))
        codes = self.keys % _N_OPS
        self.row_in_op = np.empty(len(walk.nodes), dtype=np.int64)
        self.feats: List[Optional[np.ndarray]] = [None] * _N_OPS
        for code in np.unique(codes).tolist():
            rows = np.flatnonzero(codes == code)
            keep = masks.get(_OPS[code]) if masks else None
            self.feats[code] = (
                matrix[rows] if keep is None else matrix[rows[:, None], np.asarray(keep)]
            )
            self.row_in_op[rows] = np.arange(len(rows))

    def batch(self, plans: np.ndarray) -> ForestBatch:
        """The training plans *plans* (indices, in batch order) grouped
        as :func:`merge_prepared` groups their prepared plans."""
        sizes = self.sizes[plans]
        n_nodes = int(sizes.sum())
        # Forest index minus batch index, constant over a plan's nodes.
        shift = np.repeat(self.starts[plans] - (np.cumsum(sizes) - sizes), sizes)
        keys = self.keys[np.arange(n_nodes) + shift]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        members = order + shift[order]
        children = self.children[members]
        children = np.where(children >= 0, children - shift[order, None], n_nodes)
        bounds = _bucket_bounds(sorted_keys)
        groups = []
        for lo, hi in bounds:
            code = int(sorted_keys[lo]) % _N_OPS
            feats = self.feats[code][self.row_in_op[members[lo:hi]]]
            groups.append((_OPS[code], feats, order[lo:hi], children[lo:hi]))
        # The group DAG: which groups each group's children sit in.
        n_groups = len(bounds)
        group_ids = np.repeat(
            np.arange(n_groups), [hi - lo for lo, hi in bounds]
        )
        group_of = np.full(n_nodes + 1, n_groups, dtype=np.int64)
        group_of[order] = group_ids
        pairs = np.unique(group_ids[:, None] * (n_groups + 1) + group_of[children])
        sources: List[List[int]] = [[] for _ in range(n_groups)]
        for pair in pairs.tolist():
            group, source = divmod(pair, n_groups + 1)
            if source < n_groups:
                sources[group].append(source)
        return ForestBatch(groups, n_nodes, members, sources)


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
