"""Fine-grained feature snapshots (paper Section III, Discussions).

The paper's snapshot is fitted at the *operator* level and notes it
"could be extended to more fine-grained levels such as the
operator-table level ... fine-grained feature snapshots will bring
higher efficiency, and also increase the collection cost."  This module
implements that extension: coefficients fitted per (operator, table)
key, falling back to the operator-level fit for keys with too few
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import Catalog
from ..engine.executor import ExecutionSimulator
from ..engine.operators import OperatorType, PlanNode
from ..errors import SnapshotError
from ..sql.ast import SelectQuery
from .formulas import FORMULAS, operator_inputs
from .snapshot import MIN_SAMPLES, FeatureSnapshot

#: A fine-grained key: operator plus the table it touches (scans) or
#: None for table-independent operators (joins, sorts above joins).
FineKey = Tuple[OperatorType, Optional[str]]


@dataclass
class FineGrainedSnapshot:
    """Operator-table level snapshot with operator-level fallback."""

    env_name: str
    base: FeatureSnapshot
    fine_coefficients: Dict[FineKey, np.ndarray] = field(default_factory=dict)

    def coefficients_for(self, node: PlanNode) -> np.ndarray:
        """Most specific coefficients available for *node*."""
        key: FineKey = (node.op, node.table)
        if key in self.fine_coefficients:
            return self.fine_coefficients[key]
        coeffs = self.base.coefficients.get(node.op)
        if coeffs is None:
            raise SnapshotError(f"no coefficients for {node.op}")
        return coeffs

    def predict_node_ms(self, node: PlanNode, catalog: Optional[Catalog] = None) -> float:
        """The node's time in ms from its finest available coefficients."""
        coeffs = self.coefficients_for(node)
        return FORMULAS[node.op].predict(coeffs, operator_inputs(node, catalog))

    @property
    def fine_key_count(self) -> int:
        """Number of operator-table keys with their own coefficients."""
        return len(self.fine_coefficients)


def fit_fine_grained(
    queries: Sequence[SelectQuery],
    simulator: ExecutionSimulator,
    min_samples: int = MIN_SAMPLES,
) -> FineGrainedSnapshot:
    """Execute *queries* and fit both granularities.

    Per-key fits reuse the same Table I design matrices; keys with
    fewer than *min_samples* observations fall back to the operator-
    level coefficients, so the snapshot degrades gracefully exactly as
    the paper's discussion anticipates (higher collection cost for full
    fine-grained coverage).
    """
    by_op: Dict[OperatorType, List[Tuple[Tuple[float, ...], float]]] = {}
    by_key: Dict[FineKey, List[Tuple[Tuple[float, ...], float]]] = {}
    collection_ms = 0.0
    for query in queries:
        result = simulator.run_query(query)
        collection_ms += result.latency_ms
        for node in result.plan.walk():
            sample = (operator_inputs(node, simulator.catalog), node.actual_ms)
            by_op.setdefault(node.op, []).append(sample)
            by_key.setdefault((node.op, node.table), []).append(sample)

    base = FeatureSnapshot(env_name=simulator.env.name, source="fine")
    base.collection_ms = collection_ms
    for op, rows in by_op.items():
        if len(rows) < min_samples:
            continue
        formula = FORMULAS[op]
        design = formula.design_matrix([x for x, _ in rows])
        target = np.array([ms for _, ms in rows])
        coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        base.coefficients[op] = coeffs
        base.residuals[op] = float(
            np.sqrt(np.mean((design @ coeffs - target) ** 2))
        )
    if not base.coefficients:
        raise SnapshotError("no operator reached the minimum sample count")

    snapshot = FineGrainedSnapshot(env_name=simulator.env.name, base=base)
    for key, rows in by_key.items():
        op, _ = key
        if len(rows) < min_samples or op not in base.coefficients:
            continue
        formula = FORMULAS[op]
        design = formula.design_matrix([x for x, _ in rows])
        target = np.array([ms for _, ms in rows])
        coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        snapshot.fine_coefficients[key] = coeffs
    return snapshot


def residual_improvement(
    snapshot: FineGrainedSnapshot,
    queries: Sequence[SelectQuery],
    simulator: ExecutionSimulator,
) -> Tuple[float, float]:
    """Mean absolute per-node error of operator-level vs fine-grained
    predictions on fresh executions — quantifies the paper's "higher
    efficiency" claim for fine granularity."""
    coarse_errors: List[float] = []
    fine_errors: List[float] = []
    for query in queries:
        result = simulator.run_query(query)
        for node in result.plan.walk():
            if node.op not in snapshot.base.coefficients:
                continue
            actual = node.actual_ms
            coarse = FORMULAS[node.op].predict(
                snapshot.base.coefficients[node.op],
                operator_inputs(node, simulator.catalog),
            )
            fine = snapshot.predict_node_ms(node, simulator.catalog)
            coarse_errors.append(abs(coarse - actual))
            fine_errors.append(abs(fine - actual))
    if not coarse_errors:
        raise SnapshotError("no overlapping operators to compare")
    return float(np.mean(coarse_errors)), float(np.mean(fine_errors))
