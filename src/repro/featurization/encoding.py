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

Encoding is column-wise: :meth:`OperatorEncoder.encode_nodes` builds
a whole node list's matrix field by field, not node by node.  A few
comprehensions read the nodes' raw fields and one-hot cells, and a
fixed number of numpy calls, however many nodes there are, gather the
operator rows, clamp, divide and take logs; the clamps keep Python's
``max``/``min`` semantics bit for bit (``-0.0`` and NaN pass through).
Every other entry point (one node, one plan, a template skeleton, its
numeric patch, the drift loop's per-operator rows) calls it.  Each row
is a function of its own node alone, so a node encodes to the same
bits whichever call it rides in;
``tests/featurization/test_encoding_reference.py`` holds it to a
per-node oracle bit for bit.
"""

from __future__ import annotations

import struct
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


class OperatorEncoder:
    """Encodes plan nodes into fixed-width named feature vectors."""

    def __init__(self, catalog: Catalog, snapshot_slots: int = SNAPSHOT_SLOTS):
        self.catalog = catalog
        self.snapshot_slots = snapshot_slots
        self.operators: List[OperatorType] = list(OperatorType)
        self.tables: List[str] = catalog.table_names
        self.columns: List[Tuple[str, str]] = catalog.all_columns()
        self.indexes: List[str] = [ix.name for ix in catalog.all_indexes()]
        self._offsets = self._build_offsets()
        self._numeric = self.block_slice("numeric")
        self._snapshot = self.block_slice("snapshot")
        # Operator code by ``op._value_`` (a plain attribute read, where
        # ``Enum.__hash__`` is a Python-level call), and the flat cell
        # offset within a row of every table, column and index one-hot.
        self._op_code = {op._value_: i for i, op in enumerate(self.operators)}
        # Row *c*: the one-hot of the operator with code *c*.
        self._op_rows = np.eye(len(self.operators), self.dim, dtype=np.float64)
        base = self._offsets["table"]
        self._table_cell = {t: base + i for i, t in enumerate(self.tables)}
        base = self._offsets["column"]
        self._col_cell = {tc: base + i for i, tc in enumerate(self.columns)}
        # A ``"table.column"`` sort or group key, looked up whole: the
        # same cell as its ``split(".", 1)`` pair, for every such pair.
        self._key_cell = {
            f"{t}.{c}": cell
            for (t, c), cell in self._col_cell.items()
            if "." not in t
        }
        base = self._offsets["index"]
        self._index_cell = {name: base + i for i, name in enumerate(self.indexes)}
        # A scan's selectivity denominator: its table's row count,
        # clamped like every other input row count (at least 1); 1.0
        # starts the product of a node without a table.  Tables are
        # immutable once built.
        rows = np.array(
            [float(catalog.table(t).row_count) for t in self.tables], dtype=np.float64
        )
        np.maximum(rows, 1.0, out=rows)
        self._input_rows: Dict[Optional[str], float] = dict(
            zip(self.tables, rows.tolist(), strict=True)
        )
        self._input_rows[None] = 1.0
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

        The one encoder behind every entry point, built column by
        column rather than node by node: :meth:`_one_hots` writes the
        one-hot and snapshot blocks and :meth:`_numeric_block` the
        numeric one, each with a few comprehensions over *nodes* and a
        fixed number of numpy calls however many nodes there are.  A
        row depends only on its own node and that node's children
        (read through ``node.children``, whether or not they are in
        *nodes*), never on which other nodes share the call.

        With *skeleton* (an :meth:`encode_plan_skeleton` matrix of the
        same nodes) only the numeric block is computed, written into
        *skeleton* in place, and *skeleton* is returned; *snapshot* is
        then unused.
        """
        tables = [node.table for node in nodes]
        matrix = self._one_hots(nodes, tables, snapshot) if skeleton is None else skeleton
        matrix[:, self._numeric] = self._numeric_block(nodes, tables)
        return matrix

    def _one_hots(
        self,
        nodes: Sequence[PlanNode],
        tables: Sequence[Optional[str]],
        snapshot: Optional[Mapping[OperatorType, np.ndarray]],
    ) -> np.ndarray:
        """*nodes*' matrix with the one-hot and snapshot blocks written
        and the numeric block zero (*tables*: each node's table).

        The rows start as a gather, by operator code, from a per-call
        ``(n_ops, dim)`` table: each operator's one-hot and its
        snapshot coefficients.  The other one-hot cells are collected
        as flat offsets, the tables' by one comprehension and the
        column and index references by one loop over the nodes, and
        written with one ``put``.
        """
        op_code = self._op_code
        codes = [op_code[node.op._value_] for node in nodes]
        rows = self._op_rows
        if snapshot:
            rows = rows.copy()
            present = set(codes)
            first, slots = self._snapshot.start, self.snapshot_slots
            for op, coefficients in snapshot.items():
                code = op_code[op._value_]
                if code in present:
                    head = coefficients[:slots]
                    rows[code, first:first + len(head)] = head
        matrix = rows.take(codes, axis=0)
        dim = self.dim
        bases = range(0, len(nodes) * dim, dim)
        table_cell = self._table_cell
        cells = [
            base + table_cell[table]
            for base, table in zip(bases, tables, strict=True)
            if table is not None
        ]
        col_cell, key_cell = self._col_cell, self._key_cell
        index_cell = self._index_cell
        append = cells.append
        for base, node in zip(bases, nodes, strict=True):
            if node.predicates:
                for p in node.predicates:
                    cell = col_cell.get((p.table, p.column))
                    if cell is not None:
                        append(base + cell)
            if node.sort_keys:
                for key in node.sort_keys:
                    cell = key_cell.get(key)
                    if cell is not None:
                        append(base + cell)
            if node.group_keys:
                for key in node.group_keys:
                    cell = key_cell.get(key)
                    if cell is not None:
                        append(base + cell)
            join = node.join_columns
            if len(join) == 4:
                cell = col_cell.get((join[0], join[1]))
                if cell is not None:
                    append(base + cell)
                cell = col_cell.get((join[2], join[3]))
                if cell is not None:
                    append(base + cell)
            if node.index is not None:
                cell = index_cell.get(node.index)
                if cell is not None:
                    append(base + cell)
        matrix.put(cells, 1.0)
        return matrix

    def _numeric_block(
        self, nodes: Sequence[PlanNode], tables: Sequence[Optional[str]]
    ) -> np.ndarray:
        """The ``(len(nodes), 10)`` numeric block (*tables*: each
        node's table).

        One comprehension reads every node's raw fields in block order,
        with the estimated rows again in the selectivity field, and the
        children's estimated rows follow; one array holds them all.
        The clamps keep Python's ``max``/``min`` bits.  ``max(x, 0.0)``
        is ``np.where(0.0 > x, 0.0, x)``, done in place by
        ``np.putmask``: ``-0.0`` and NaN pass through, where
        ``np.maximum(-0.0, 0.0)`` is ``0.0``.  Against a bound of 1.0,
        ``np.maximum``/``np.minimum`` are already exact: they part from
        Python only at a tie between zeros of opposite sign, and like
        Python they return a NaN operand.
        """
        n = len(nodes)
        values = [
            value
            for node in nodes
            for value in (
                node.est_rows,
                node.est_width,
                node.est_total_cost,
                node.est_startup_cost,
                len(node.predicates),
                len(node.sort_keys),
                len(node.group_keys),
                len(node.children),
                node.est_rows,
                node.limit_count or 0,
            )
        ]
        # The selectivity's denominator: a scan's table row count, else
        # the product of its children's estimated rows, every factor at
        # least 1.  The clamped factors are multiplied in slot order,
        # ``1.0 * c0 * c1``, in Python floats (the same IEEE products as
        # numpy's).  A product of factors >= 1 is >= 1 (or NaN), so it
        # needs no clamp of its own; the row counts are clamped once,
        # in ``__init__``.
        values += [
            child.est_rows
            for node, table in zip(nodes, tables, strict=True)
            if table is None
            for child in node.children
        ]
        # ``struct`` packs a list of Python numbers into doubles (each
        # exactly ``float(value)``) faster than ``np.array`` converts it.
        values = np.frombuffer(bytearray(struct.pack(f"{len(values)}d", *values)))
        # Field-major: each field one contiguous row, as the clamps and
        # logs below read it.
        fields = np.ascontiguousarray(values[:10 * n].reshape(n, 10).T)
        estimates = fields[:4]
        np.putmask(estimates, 0.0 > estimates, 0.0)
        factors = values[10 * n:]
        np.maximum(factors, 1.0, out=factors)
        factors = iter(factors.tolist())
        input_rows = self._input_rows
        denominator = []
        for node, table in zip(nodes, tables, strict=True):
            rows = input_rows[table]
            if table is None:
                for _ in node.children:
                    rows *= next(factors)
            denominator.append(rows)
        selectivity = fields[8]
        np.divide(selectivity, denominator, out=selectivity)
        np.minimum(selectivity, 1.0, out=selectivity)
        np.log1p(estimates, out=estimates)
        np.log1p(fields[9], out=fields[9])
        return fields.T

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
        nodes = list(plan.walk())
        return self._one_hots(nodes, [node.table for node in nodes], snapshot)

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
