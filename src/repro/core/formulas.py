"""Logical cost formulas (paper Table I).

Each operator's cost is assumed to follow a small *logical* formula in
its input cardinalities — ``F = c0*n + c1`` for scans/joins/aggregates,
``F = c0*n*log(n) + c1`` for Sort, and the bilinear form for Nested
Loop.  The coefficient vectors fitted against these formulas *are* the
feature snapshot: they absorb everything the environment (knobs,
hardware, storage, OS) does to per-unit costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..engine.operators import OperatorType, PlanNode
from ..errors import SnapshotError


@dataclass(frozen=True)
class LogicalFormula:
    """One row of Table I: a design-row builder for least squares."""

    name: str
    n_coefficients: int
    design_row: Callable[[Tuple[float, ...]], np.ndarray]

    def design_matrix(self, inputs: Sequence[Tuple[float, ...]]) -> np.ndarray:
        """One design row per operator-input tuple, stacked."""
        return np.stack([self.design_row(x) for x in inputs])

    def predict(self, coefficients: np.ndarray, inputs: Tuple[float, ...]) -> float:
        """The formula's estimate for *inputs* under fitted *coefficients*."""
        row = self.design_row(inputs)
        return float(row @ coefficients[: len(row)])


def _linear_row(inputs: Tuple[float, ...]) -> np.ndarray:
    (n,) = inputs
    return np.array([n, 1.0])


def _nlogn_row(inputs: Tuple[float, ...]) -> np.ndarray:
    (n,) = inputs
    return np.array([n * np.log2(max(n, 2.0)), 1.0])


def _nested_loop_row(inputs: Tuple[float, ...]) -> np.ndarray:
    n1, n2 = inputs
    return np.array([n1 * n2, n1, n2, 1.0])


LINEAR = LogicalFormula("linear", 2, _linear_row)
NLOGN = LogicalFormula("nlogn", 2, _nlogn_row)
NESTED_LOOP = LogicalFormula("nested_loop", 4, _nested_loop_row)

#: Operator -> logical formula (Table I, with Limit treated as linear).
FORMULAS: Dict[OperatorType, LogicalFormula] = {
    OperatorType.SEQ_SCAN: LINEAR,
    OperatorType.INDEX_SCAN: LINEAR,
    OperatorType.MATERIALIZE: LINEAR,
    OperatorType.AGGREGATE: LINEAR,
    OperatorType.MERGE_JOIN: LINEAR,
    OperatorType.HASH_JOIN: LINEAR,
    OperatorType.LIMIT: LINEAR,
    OperatorType.SORT: NLOGN,
    OperatorType.NESTED_LOOP: NESTED_LOOP,
}


def operator_inputs(node: PlanNode, catalog=None) -> Tuple[float, ...]:
    """The cardinality argument(s) ``n`` of a node's logical formula.

    Uses measured (true) cardinalities, as would be read from
    ``EXPLAIN ANALYZE`` when labelling operators.
    """
    op = node.op
    if op is OperatorType.SEQ_SCAN:
        if catalog is not None and node.table is not None:
            return (float(catalog.table(node.table).row_count),)
        return (max(node.true_rows, 1.0),)
    if op is OperatorType.INDEX_SCAN:
        return (max(node.true_rows, 1.0),)
    if op is OperatorType.NESTED_LOOP:
        return (
            max(node.children[0].true_rows, 1.0),
            max(node.children[1].true_rows, 1.0),
        )
    if op in (OperatorType.HASH_JOIN, OperatorType.MERGE_JOIN):
        return (
            max(node.children[0].true_rows, 1.0)
            + max(node.children[1].true_rows, 1.0),
        )
    if op in (OperatorType.SORT, OperatorType.AGGREGATE, OperatorType.MATERIALIZE):
        return (max(node.children[0].true_rows, 1.0),)
    if op is OperatorType.LIMIT:
        return (max(node.true_rows, 1.0),)
    raise SnapshotError(f"no logical formula inputs for {op}")
