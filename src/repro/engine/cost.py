"""Resource accounting and the PostgreSQL-style estimated cost model.

The paper's basic cost identity is::

    Cost_total = cs*ns + cr*nr + ct*nt + ci*ni + co*no

This module computes the count vector ``N = (ns, nr, nt, ni, no)`` for
every operator from a row-count view (estimated or true), and folds it
with the optimizer's knob coefficients to produce PG-unit estimated
costs.  The execution simulator reuses the same counts with the
environment's *true* millisecond coefficients.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..catalog.schema import PAGE_SIZE_BYTES, Catalog
from ..errors import PlanError
from .environment import DatabaseEnvironment
from .operators import OperatorType, PlanNode

RowsOf = Callable[[PlanNode], float]


def _log2(value: float) -> float:
    return float(np.log2(max(value, 2.0)))


def _est_rows(node: PlanNode) -> float:
    return node.est_rows


def resource_counts(
    node: PlanNode,
    catalog: Catalog,
    rows_of: RowsOf,
    env: DatabaseEnvironment,
) -> Dict[str, float]:
    """Count vector ``N`` for *node* under the *rows_of* view.

    ``rows_of`` maps a node to its (estimated or true) output rows, so
    the same accounting serves the cost model and the executor.
    """
    op = node.op
    out_rows = rows_of(node)
    counts = {"ns": 0.0, "nr": 0.0, "nt": 0.0, "ni": 0.0, "no": 0.0}

    if op is OperatorType.SEQ_SCAN:
        table = catalog.table(node.table)  # type: ignore[arg-type]
        counts["ns"] = float(table.pages)
        counts["nt"] = float(table.row_count)
        counts["no"] = float(len(node.predicates) * table.row_count)
    elif op is OperatorType.INDEX_SCAN:
        table = catalog.table(node.table)  # type: ignore[arg-type]
        matched = max(out_rows, 1.0)
        depth = max(_log2(table.row_count) / 8.0, 1.0)  # b-tree descent pages
        pages = min(matched, float(table.pages))
        counts["nr"] = pages + depth
        counts["ni"] = matched
        counts["nt"] = matched
        counts["no"] = float(len(node.predicates)) * matched
    elif op is OperatorType.SORT:
        rows_in = rows_of(node.children[0])
        counts["no"] = rows_in * _log2(rows_in)
        counts["nt"] = rows_in
        bytes_needed = rows_in * max(node.children[0].est_width, 8)
        if bytes_needed > env.work_mem_kb * 1024.0:
            # External sort: write + read one run set per merge pass.
            spill_pages = bytes_needed / PAGE_SIZE_BYTES
            counts["ns"] += 2.0 * spill_pages
    elif op is OperatorType.HASH_JOIN:
        outer, inner = (rows_of(node.children[0]), rows_of(node.children[1]))
        counts["no"] = outer + inner  # hash computations
        counts["nt"] = outer + inner + out_rows
        inner_bytes = inner * max(node.children[1].est_width, 8)
        if inner_bytes > env.work_mem_kb * 1024.0:
            counts["ns"] += 2.0 * inner_bytes / PAGE_SIZE_BYTES
    elif op is OperatorType.MERGE_JOIN:
        outer, inner = (rows_of(node.children[0]), rows_of(node.children[1]))
        counts["no"] = outer + inner  # merge comparisons
        counts["nt"] = outer + inner + out_rows
    elif op is OperatorType.NESTED_LOOP:
        outer, inner = (rows_of(node.children[0]), rows_of(node.children[1]))
        counts["no"] = outer * inner
        counts["nt"] = outer * inner + out_rows
    elif op is OperatorType.AGGREGATE:
        rows_in = rows_of(node.children[0])
        counts["nt"] = rows_in
        counts["no"] = rows_in * (1.0 + len(node.group_keys))
    elif op is OperatorType.MATERIALIZE:
        rows_in = rows_of(node.children[0])
        counts["nt"] = rows_in
    elif op is OperatorType.LIMIT:
        counts["nt"] = out_rows
    else:  # pragma: no cover - all operators handled
        raise PlanError(f"unknown operator {op}")
    return counts


def combine(counts: Dict[str, float], coefficients: Dict[str, float]) -> float:
    """Fold ``N`` with ``C``: the paper's Cost_total identity."""
    return (
        coefficients["cs"] * counts["ns"]
        + coefficients["cr"] * counts["nr"]
        + coefficients["ct"] * counts["nt"]
        + coefficients["ci"] * counts["ni"]
        + coefficients["co"] * counts["no"]
    )


class CostModel:
    """PostgreSQL-style estimated cost, in abstract PG units."""

    def __init__(self, catalog: Catalog, env: DatabaseEnvironment):
        self.catalog = catalog
        self.env = env
        self._coefficients = env.optimizer_coefficients()

    def annotate(self, root: PlanNode) -> None:
        """Fill ``est_startup_cost``/``est_total_cost`` bottom-up.

        ``annotate_estimates`` must already have filled ``est_rows``.
        """
        for child in root.children:
            self.annotate(child)
        self.annotate_node(root)

    def annotate_node(self, node: PlanNode) -> None:
        """Fill the costs of *node* alone: its ``est_rows`` and its
        children's estimates and costs must already be filled."""
        counts = resource_counts(node, self.catalog, _est_rows, self.env)
        own = combine(counts, self._coefficients)
        child_total = sum(c.est_total_cost for c in node.children)
        node.est_total_cost = own + child_total
        node.est_startup_cost = self._startup_cost(node, own, child_total)

    def _startup_cost(self, node: PlanNode, own: float, child_total: float) -> float:
        """Blocking operators pay (almost) everything before row one."""
        if node.op is OperatorType.SORT:
            return child_total + 0.9 * own
        if node.op is OperatorType.HASH_JOIN:
            # Build side must finish first.
            return node.children[1].est_total_cost + 0.5 * own
        if node.op is OperatorType.AGGREGATE and not node.group_keys:
            return child_total + own
        if node.children:
            return min(c.est_startup_cost for c in node.children)
        return 0.0
