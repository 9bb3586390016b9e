"""Cardinality derivation: the optimizer's estimates and the truth.

Estimates use textbook PostgreSQL rules (uniformity, independence,
1/max(ndv) joins); truths come from
:class:`~repro.catalog.statistics.CatalogStatistics`, which models skew
and correlation.  Both walks are bottom-up over a plan tree.
"""

from __future__ import annotations

from ..catalog.schema import Catalog
from ..catalog.statistics import CatalogStatistics
from ..errors import PlanError
from .operators import JOIN_OPERATORS, OperatorType, PlanNode


class CardinalityModel:
    """Computes estimated and true row counts for every plan node."""

    def __init__(self, catalog: Catalog, stats: CatalogStatistics):
        self.catalog = catalog
        self.stats = stats

    # ------------------------------------------------------------------
    def annotate_estimates(self, root: PlanNode) -> None:
        """Fill ``est_rows`` and ``est_width`` bottom-up."""
        self._annotate(root, truth=False)

    def annotate_truth(self, root: PlanNode) -> None:
        """Fill ``true_rows`` bottom-up."""
        self._annotate(root, truth=True)

    # ------------------------------------------------------------------
    def estimate_node(self, node: PlanNode) -> None:
        """Fill ``est_rows`` and ``est_width`` of *node* alone; its
        children must already carry theirs."""
        node.est_rows = float(max(self._node_rows(node, False), 0.0))
        node.est_width = self._node_width(node)

    # ------------------------------------------------------------------
    def _annotate(self, node: PlanNode, truth: bool) -> None:
        for child in node.children:
            self._annotate(child, truth)
        if truth:
            node.true_rows = float(max(self._node_rows(node, True), 0.0))
        else:
            self.estimate_node(node)

    def _child_rows(self, node: PlanNode, index: int, truth: bool) -> float:
        child = node.children[index]
        return child.true_rows if truth else child.est_rows

    def _node_rows(self, node: PlanNode, truth: bool) -> float:
        op = node.op
        if op in (OperatorType.SEQ_SCAN, OperatorType.INDEX_SCAN):
            table = self.catalog.table(node.table)  # type: ignore[arg-type]
            if truth:
                sel = self.stats.true_conjunction(node.predicates)
            else:
                sel = self.stats.estimated_conjunction(node.predicates)
            return sel * table.row_count
        if op in JOIN_OPERATORS:
            left = self._child_rows(node, 0, truth)
            right = self._child_rows(node, 1, truth)
            if len(node.join_columns) == 4:
                lt, lc, rt, rc = node.join_columns
                if truth:
                    sel = self.stats.true_join_selectivity((lt, lc), (rt, rc))
                else:
                    sel = self.stats.estimated_join_selectivity((lt, lc), (rt, rc))
            else:
                sel = 1.0  # cross join
            return left * right * sel
        if op is OperatorType.AGGREGATE:
            rows_in = self._child_rows(node, 0, truth)
            if not node.group_keys:
                return 1.0
            groups = 1.0
            for key in node.group_keys:
                table, column = key.split(".", 1)
                groups *= self.catalog.column(table, column).ndv
            groups = min(groups, rows_in)
            if truth:
                # Skewed data produces fewer groups than the ndv product.
                groups = min(groups, max(1.0, rows_in * 0.8))
            return max(groups, 1.0) if rows_in > 0 else 0.0
        if op is OperatorType.LIMIT:
            rows_in = self._child_rows(node, 0, truth)
            limit = float(node.limit_count) if node.limit_count is not None else rows_in
            return min(rows_in, limit)
        if op in (OperatorType.SORT, OperatorType.MATERIALIZE):
            return self._child_rows(node, 0, truth)
        raise PlanError(f"unknown operator {op}")

    def _node_width(self, node: PlanNode) -> int:
        if node.table is not None:
            return self.catalog.table(node.table).tuple_width
        if node.op in JOIN_OPERATORS:
            return node.children[0].est_width + node.children[1].est_width
        if node.op is OperatorType.AGGREGATE:
            return 8 * max(len(node.group_keys), 1)
        if node.children:
            return node.children[0].est_width
        return 8


def estimated_distinct(catalog: Catalog, table: str, column: str, rows: float) -> float:
    """Estimated distinct values among *rows* tuples of ``table.column``."""
    ndv = catalog.column(table, column).ndv
    total = max(catalog.table(table).row_count, 1)
    if rows >= total:
        return float(ndv)
    # Cardenas' formula for distinct-value scaling.
    return float(ndv * (1.0 - (1.0 - rows / total) ** (total / max(ndv, 1))))
