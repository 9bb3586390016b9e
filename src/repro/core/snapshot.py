"""The feature snapshot (paper Section III).

For each environment, per-operator coefficient vectors are fitted by
least squares against the logical formulas of Table I, from labelled
operator executions (the per-node actual times the executor records).
The snapshot summarises the environment's influence on cost — the
"ignored variables" — and is appended to operator feature vectors.

Two fitting sources correspond to the paper's FSO/FST ablation:
original workload queries (:func:`fit_snapshot_from_queries` on the
real templates) or Algorithm 1's simplified templates
(:mod:`repro.core.templates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import Catalog
from ..engine.executor import ExecutionSimulator, LabeledPlan
from ..engine.operators import OperatorType, PlanNode
from ..errors import SnapshotError
from ..featurization.encoding import SNAPSHOT_SLOTS
from ..sql.ast import SelectQuery
from .formulas import FORMULAS, operator_inputs

#: An operator needs at least this many labelled samples to be fitted.
MIN_SAMPLES = 3

OperatorSamples = Dict[OperatorType, List[Tuple[Tuple[float, ...], float]]]


@dataclass
class FeatureSnapshot:
    """Per-operator fitted coefficients for one environment."""

    env_name: str
    coefficients: Dict[OperatorType, np.ndarray] = field(default_factory=dict)
    residuals: Dict[OperatorType, float] = field(default_factory=dict)
    source: str = "original"  # "original" (FSO) or "template" (FST)
    #: Total *simulated* execution time of the labelling queries — the
    #: collection cost the paper's Table V compares (FSO hours vs FST).
    collection_ms: float = 0.0

    def padded(self, op: OperatorType) -> np.ndarray:
        """Coefficients padded to the encoder's snapshot width."""
        out = np.zeros(SNAPSHOT_SLOTS)
        coeffs = self.coefficients.get(op)
        if coeffs is not None:
            width = min(len(coeffs), SNAPSHOT_SLOTS)
            out[:width] = coeffs[:width]
        return out

    def predict_node_ms(self, node: PlanNode, catalog: Optional[Catalog] = None) -> float:
        """Logical-formula prediction for one node (sanity checks)."""
        coeffs = self.coefficients.get(node.op)
        if coeffs is None:
            raise SnapshotError(f"snapshot has no coefficients for {node.op}")
        return FORMULAS[node.op].predict(coeffs, operator_inputs(node, catalog))

    # ------------------------------------------------------------------
    # serialization (operator types stored by value; arrays stay
    # arrays so the persist layer keeps coefficients byte-exact)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The snapshot's full state as plain data + arrays."""
        return {
            "env_name": self.env_name,
            "coefficients": {
                op.value: coeffs for op, coeffs in self.coefficients.items()
            },
            "residuals": {
                op.value: float(res) for op, res in self.residuals.items()
            },
            "source": self.source,
            "collection_ms": float(self.collection_ms),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "FeatureSnapshot":
        """Rebuild a snapshot from :meth:`state_dict` output."""
        try:
            snapshot = cls(
                env_name=str(state["env_name"]),
                source=str(state.get("source", "original")),
                collection_ms=float(state.get("collection_ms", 0.0)),
            )
            for op, coeffs in dict(state.get("coefficients", {})).items():
                snapshot.coefficients[OperatorType(op)] = np.asarray(
                    coeffs, dtype=np.float64
                )
            for op, res in dict(state.get("residuals", {})).items():
                snapshot.residuals[OperatorType(op)] = float(res)
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"invalid FeatureSnapshot state: {exc}") from exc
        return snapshot


class SnapshotSet:
    """Snapshots for many environments, with cross-env normalisation.

    Raw coefficients span orders of magnitude (ms per tuple vs fixed
    startup), so the mapping handed to encoders is standardised per
    (operator, slot) across the environments in the set — preserving
    exactly the cross-environment variation the model needs.
    """

    def __init__(self, snapshots: Iterable[FeatureSnapshot]):
        self._by_env: Dict[str, FeatureSnapshot] = {
            snap.env_name: snap for snap in snapshots
        }
        if not self._by_env:
            raise SnapshotError("a SnapshotSet needs at least one snapshot")
        self._normalized: Optional[Dict[str, Dict[OperatorType, np.ndarray]]] = None

    @property
    def env_names(self) -> List[str]:
        return sorted(self._by_env)

    @property
    def total_collection_ms(self) -> float:
        """Simulated labelling cost across all environments (Table V)."""
        return sum(snap.collection_ms for snap in self._by_env.values())

    def raw(self, env_name: str) -> FeatureSnapshot:
        try:
            return self._by_env[env_name]
        except KeyError:
            raise SnapshotError(f"no snapshot for environment {env_name!r}") from None

    def snapshots(self) -> List[FeatureSnapshot]:
        """The member snapshots (serving-layer extension point)."""
        return [self._by_env[name] for name in self.env_names]

    def with_snapshot(self, snapshot: FeatureSnapshot) -> "SnapshotSet":
        """A new set including *snapshot* (replacing any same-named one).

        Normalisation statistics are recomputed over the extended pool,
        which is why the serving layer swaps the whole set — and bumps
        the bundle version so feature caches keyed on the old
        normalisation expire — instead of mutating in place.
        """
        merged = dict(self._by_env)
        merged[snapshot.env_name] = snapshot
        return SnapshotSet(merged.values())

    def state_dict(self) -> Dict[str, object]:
        """Member snapshots as plain data (normalisation statistics are
        derived, so they are recomputed — identically — on restore)."""
        return {
            "snapshots": [snap.state_dict() for snap in self.snapshots()]
        }

    @classmethod
    def from_state(cls, state: "Mapping[str, object]") -> "SnapshotSet":
        """Rebuild a set from :meth:`state_dict` output."""
        try:
            members = list(state["snapshots"])
        except (KeyError, TypeError) as exc:
            raise SnapshotError(f"invalid SnapshotSet state: {exc}") from exc
        return cls(FeatureSnapshot.from_state(member) for member in members)

    def normalized(self, env_name: str) -> Dict[OperatorType, np.ndarray]:
        """Standardised coefficient mapping for *env_name*."""
        if self._normalized is None:
            self._normalized = self._normalize_all()
        if env_name not in self._normalized:
            raise SnapshotError(f"no snapshot for environment {env_name!r}")
        return self._normalized[env_name]

    def _normalize_all(self) -> Dict[str, Dict[OperatorType, np.ndarray]]:
        ops = sorted(
            {op for snap in self._by_env.values() for op in snap.coefficients},
            key=lambda o: o.value,
        )
        env_names = self.env_names
        result: Dict[str, Dict[OperatorType, np.ndarray]] = {
            name: {} for name in env_names
        }
        for op in ops:
            stacked = np.stack([self._by_env[name].padded(op) for name in env_names])
            mean = stacked.mean(axis=0)
            std = stacked.std(axis=0)
            std[std < 1e-12] = 1.0
            normalized = (stacked - mean) / std
            for row, name in enumerate(env_names):
                result[name][op] = normalized[row]
        return result


# ----------------------------------------------------------------------
# sample collection and fitting
# ----------------------------------------------------------------------
def collect_operator_samples(
    labeled: Sequence[LabeledPlan], catalog: Optional[Catalog] = None
) -> OperatorSamples:
    """Gather (formula inputs, actual ms) per operator from plans."""
    samples: OperatorSamples = {}
    for record in labeled:
        for node in record.plan.walk():
            samples.setdefault(node.op, []).append(
                (operator_inputs(node, catalog), node.actual_ms)
            )
    return samples


def fit_snapshot(
    samples: OperatorSamples,
    env_name: str,
    source: str = "original",
) -> FeatureSnapshot:
    """Least-squares fit of Table I formulas (paper Section III-A)."""
    snapshot = FeatureSnapshot(env_name=env_name, source=source)
    for op, rows in samples.items():
        if len(rows) < MIN_SAMPLES:
            continue
        formula = FORMULAS[op]
        design = formula.design_matrix([inputs for inputs, _ in rows])
        target = np.array([ms for _, ms in rows])
        coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        predictions = design @ coeffs
        residual = float(np.sqrt(np.mean((predictions - target) ** 2)))
        snapshot.coefficients[op] = coeffs
        snapshot.residuals[op] = residual
    if not snapshot.coefficients:
        raise SnapshotError(f"no operator had >= {MIN_SAMPLES} samples")
    return snapshot


def fit_snapshot_from_queries(
    queries: Sequence[SelectQuery],
    simulator: ExecutionSimulator,
    source: str = "original",
) -> FeatureSnapshot:
    """Execute *queries* in the simulator's environment and fit."""
    samples: OperatorSamples = {}
    collection_ms = 0.0
    for query in queries:
        result = simulator.run_query(query)
        collection_ms += result.latency_ms
        for node in result.plan.walk():
            samples.setdefault(node.op, []).append(
                (operator_inputs(node, simulator.catalog), node.actual_ms)
            )
    snapshot = fit_snapshot(samples, simulator.env.name, source=source)
    snapshot.collection_ms = collection_ms
    return snapshot

