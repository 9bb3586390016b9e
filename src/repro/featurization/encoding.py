"""QPPNet-style per-operator feature encoding.

Following the encoding survey in the paper's Table III, every plan node
is encoded as one-hot blocks (operator type, table, referenced columns,
index) plus numerical values (cardinalities, widths, optimizer costs,
clause counts), and — when QCFE is enabled — the feature-snapshot
coefficient slots for the node's operator type.

The layout is deliberately *unified* across operator types: one fixed
vector with named dimensions.  Many dimensions are ineffective for any
given benchmark (columns never filtered, operators never produced,
index slots for workloads that plan no index scans) — precisely the
dead weight the paper's feature reduction prunes.

Encoding is array-shaped: :meth:`OperatorEncoder.encode_nodes` builds
a whole node list's matrix with one Python pass and a fixed number of
numpy calls, and every other entry point (one node, one plan, a
template skeleton, its numeric patch, the drift loop's per-operator
rows) calls it.  Each row is a function of its own node alone, so a
node encodes to the same bits whichever call it rides in;
``tests/featurization/test_encoding_reference.py`` holds it to a
per-node oracle bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import Catalog
from ..engine.operators import OperatorType, PlanNode
from ..errors import FeatureError

#: Width of the snapshot block: the widest logical formula (Nested
#: Loop, Table I) has four coefficients.
SNAPSHOT_SLOTS = 4

_NUMERIC_NAMES = (
    "log_est_rows",
    "log_est_width",
    "log_est_total_cost",
    "log_est_startup_cost",
    "n_predicates",
    "n_sort_keys",
    "n_group_keys",
    "n_children",
    "est_selectivity",
    "log_limit",
)
#: Columns of the numeric block stored as ``log1p`` of the raw value.
_LOG_COLUMNS = np.array([0, 1, 2, 3, 9])


class OperatorEncoder:
    """Encodes plan nodes into fixed-width named feature vectors."""

    def __init__(self, catalog: Catalog, snapshot_slots: int = SNAPSHOT_SLOTS):
        self.catalog = catalog
        self.snapshot_slots = snapshot_slots
        self.operators: List[OperatorType] = list(OperatorType)
        self.tables: List[str] = catalog.table_names
        self.columns: List[Tuple[str, str]] = catalog.all_columns()
        self.indexes: List[str] = [ix.name for ix in catalog.all_indexes()]
        self._op_pos = {op: i for i, op in enumerate(self.operators)}
        self._table_pos = {t: i for i, t in enumerate(self.tables)}
        self._col_pos = {tc: i for i, tc in enumerate(self.columns)}
        self._index_pos = {name: i for i, name in enumerate(self.indexes)}
        self._offsets = self._build_offsets()
        self.feature_names: List[str] = self._build_names()

    # ------------------------------------------------------------------
    def _build_offsets(self) -> Dict[str, int]:
        offsets = {"op": 0}
        offsets["table"] = offsets["op"] + len(self.operators)
        offsets["column"] = offsets["table"] + len(self.tables)
        offsets["index"] = offsets["column"] + len(self.columns)
        offsets["numeric"] = offsets["index"] + len(self.indexes)
        offsets["snapshot"] = offsets["numeric"] + len(_NUMERIC_NAMES)
        offsets["end"] = offsets["snapshot"] + self.snapshot_slots
        return offsets

    def _build_names(self) -> List[str]:
        names = [f"op:{op.value}" for op in self.operators]
        names += [f"table:{t}" for t in self.tables]
        names += [f"column:{t}.{c}" for t, c in self.columns]
        names += [f"index:{name}" for name in self.indexes]
        names += [f"num:{n}" for n in _NUMERIC_NAMES]
        names += [f"snapshot:c{i}" for i in range(self.snapshot_slots)]
        return names

    @property
    def dim(self) -> int:
        return self._offsets["end"]

    def block_slice(self, block: str) -> slice:
        """The dimension range of a named block (op/table/column/...)."""
        order = ["op", "table", "column", "index", "numeric", "snapshot", "end"]
        if block not in order[:-1]:
            raise FeatureError(f"unknown feature block {block!r}")
        start = self._offsets[block]
        stop = self._offsets[order[order.index(block) + 1]]
        return slice(start, stop)

    # ------------------------------------------------------------------
    def encode_nodes(
        self,
        nodes: Sequence[PlanNode],
        snapshot: Optional[Mapping[OperatorType, np.ndarray]] = None,
        skeleton: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Encode *nodes* as one ``(len(nodes), dim)`` matrix, row *i*
        for ``nodes[i]``; *snapshot* maps operator type -> coefficients.

        The one encoder behind every entry point.  A single Python pass
        collects each node's one-hot cells and its raw numeric values,
        followed by its operator's snapshot coefficients (the block
        that comes next in the layout).  numpy then fills the matrix in
        a fixed number of calls however many nodes there are: one
        ``zeros``, one scatter of the one-hots, one conversion of the
        raw values, one ``log1p`` over the five log columns and one
        block write.  A row depends only on its own node (and that
        node's children), never on which other nodes share the call.

        With *skeleton* (an :meth:`encode_plan_skeleton` matrix of the
        same nodes) only the numeric block is computed, written into
        *skeleton* in place, and *skeleton* is returned; *snapshot* is
        then unused.
        """
        offsets = self._offsets
        dim = offsets["end"]
        table_base, column_base = offsets["table"], offsets["column"]
        index_base = offsets["index"]
        op_pos, table_pos = self._op_pos, self._table_pos
        col_pos, index_pos = self._col_pos, self._index_pos
        table_of = self.catalog.table
        one_hots = skeleton is None
        cells: List[int] = []
        values: List[float] = []
        snapshot_rows: Dict[int, Tuple[float, ...]] = {}
        for row, node in enumerate(nodes):
            if one_hots:
                base = row * dim
                op_row = op_pos[node.op]
                cells.append(base + op_row)
                if node.table is not None:
                    cells.append(base + table_base + table_pos[node.table])
                refs = [(p.table, p.column) for p in node.predicates]
                for key in (*node.sort_keys, *node.group_keys):
                    if "." in key:
                        refs.append(tuple(key.split(".", 1)))
                if len(node.join_columns) == 4:
                    lt, lc, rt, rc = node.join_columns
                    refs += [(lt, lc), (rt, rc)]
                for ref in refs:
                    pos = col_pos.get(ref)
                    if pos is not None:
                        cells.append(base + column_base + pos)
                if node.index is not None and node.index in index_pos:
                    cells.append(base + index_base + index_pos[node.index])
            child_rows = 1.0
            for child in node.children:
                child_rows *= max(child.est_rows, 1.0)
            if node.table is not None:
                child_rows = float(table_of(node.table).row_count)
            values += (
                max(node.est_rows, 0.0),
                max(node.est_width, 0),
                max(node.est_total_cost, 0.0),
                max(node.est_startup_cost, 0.0),
                float(len(node.predicates)),
                float(len(node.sort_keys)),
                float(len(node.group_keys)),
                float(len(node.children)),
                min(node.est_rows / max(child_rows, 1.0), 1.0),
                float(node.limit_count or 0),
            )
            if one_hots:
                coefficients = snapshot_rows.get(op_row)
                if coefficients is None:
                    coefficients = snapshot_rows[op_row] = self._snapshot_row(
                        node.op, snapshot
                    )
                values += coefficients
        block = np.array(values, dtype=np.float64).reshape(
            len(nodes), offsets["end" if one_hots else "snapshot"] - offsets["numeric"]
        )
        block[:, _LOG_COLUMNS] = np.log1p(block[:, _LOG_COLUMNS])
        if not one_hots:
            skeleton[:, offsets["numeric"]:offsets["snapshot"]] = block
            return skeleton
        matrix = np.zeros((len(nodes), dim), dtype=np.float64)
        matrix.put(cells, 1.0)
        matrix[:, offsets["numeric"]:dim] = block
        return matrix

    def _snapshot_row(
        self,
        op: OperatorType,
        snapshot: Optional[Mapping[OperatorType, np.ndarray]],
    ) -> Tuple[float, ...]:
        """*op*'s snapshot block: its leading coefficients, zero-padded
        to the block's width (all zeros when *snapshot* lacks *op*)."""
        if snapshot is None or op not in snapshot:
            return (0.0,) * self.snapshot_slots
        coeffs = np.asarray(snapshot[op], dtype=np.float64)
        width = min(len(coeffs), self.snapshot_slots)
        return (*coeffs[:width].tolist(), *(0.0,) * (self.snapshot_slots - width))

    def encode_node(
        self,
        node: PlanNode,
        snapshot: Optional[Mapping[OperatorType, np.ndarray]] = None,
    ) -> np.ndarray:
        """Encode one node (a one-row :meth:`encode_nodes`)."""
        return self.encode_nodes([node], snapshot)[0]

    def encode_plan(
        self,
        plan: PlanNode,
        snapshot: Optional[Mapping[OperatorType, np.ndarray]] = None,
    ) -> np.ndarray:
        """Encode every node (pre-order) into an (n_nodes, dim) matrix."""
        return self.encode_nodes(list(plan.walk()), snapshot)

    def operator_rows(
        self, plans: Iterable[PlanNode]
    ) -> Dict[OperatorType, np.ndarray]:
        """Every node of *plans*, encoded without a snapshot, stacked
        per operator type.

        Rows are plan-major and in walk order within a plan; operators
        appear in order of first occurrence.  All nodes are encoded in
        one :meth:`encode_nodes` call, so each row is bit-identical to
        :meth:`encode_node` of its node.
        """
        nodes = [node for plan in plans for node in plan.walk()]
        matrix = self.encode_nodes(nodes)
        positions: Dict[OperatorType, List[int]] = {}
        for row, node in enumerate(nodes):
            positions.setdefault(node.op, []).append(row)
        return {op: matrix[rows] for op, rows in positions.items()}

    # ------------------------------------------------------------------
    # template memoization
    # ------------------------------------------------------------------
    def encode_plan_skeleton(
        self,
        plan: PlanNode,
        snapshot: Optional[Mapping[OperatorType, np.ndarray]] = None,
    ) -> np.ndarray:
        """Encode the plan with the literal-derived block zeroed.

        The numeric block is the only part of a node vector that
        changes between executions of the same statement template with
        different literals (one-hot blocks depend on predicate
        *columns*, never values); zeroing it yields a matrix shared by
        every instantiation, cacheable under
        :func:`~repro.featurization.fingerprint.template_fingerprint`.
        :meth:`fill_numerics` patches a copy back to exactly what
        :meth:`encode_plan` would have produced.
        """
        matrix = self.encode_plan(plan, snapshot)
        matrix[:, self.block_slice("numeric")] = 0.0
        return matrix

    def fill_numerics(self, matrix: np.ndarray, plan: PlanNode) -> np.ndarray:
        """Write this plan's numeric block into a skeleton copy, in place.

        Row *i* of *matrix* must correspond to the *i*-th pre-order
        node of *plan* (the :meth:`encode_plan_skeleton` layout).  The
        block is computed by :meth:`encode_nodes`, the code that builds
        a fresh :meth:`encode_plan`, so the patched matrix is
        bit-identical to one — the memoized and unmemoized serving
        paths cannot disagree.  Returns *matrix* for chaining.
        """
        return self.encode_nodes(list(plan.walk()), skeleton=matrix)


def apply_mask(features: np.ndarray, keep: Optional[np.ndarray]) -> np.ndarray:
    """Project feature vectors/matrices onto the kept dimensions."""
    if keep is None:
        return features
    keep = np.asarray(keep)
    if keep.dtype == bool:
        return features[..., keep]
    return features[..., keep.astype(int)]
