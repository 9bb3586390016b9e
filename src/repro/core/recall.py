"""Feature recall for dynamic workloads (paper Section IV, Discussions).

Feature reduction is fitted against one workload; when the workload
drifts (the paper's example: a write-only workload, whose index
features were pruned, starts receiving reads) the pruned dimensions may
regain "inherent value".  The paper sketches a *recall* mechanism as
future work; this module implements it:

- :class:`FeatureRecall` remembers the full encoder layout, the
  installed keep-masks and per-dimension activity statistics from the
  reduction-time data;
- :meth:`observe` watches freshly encoded operator data; a pruned
  dimension that starts *varying* (beyond its reduction-time behaviour)
  is flagged;
- :meth:`recall_masks` returns updated masks with the flagged
  dimensions re-included, so the pipeline can warm-retrain with them;
- :func:`collect_baselines` exports the per-operator mean feature
  vectors from reduction-time data (the "what did the pruned dims look
  like when we pruned them" reference), and
  :meth:`FeatureRecall.state_dict` / :meth:`FeatureRecall.from_state`
  serialize a watcher so a serving layer can persist and restore its
  drift state across deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from ..engine.operators import OperatorType
from ..errors import FeatureError

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.executor import LabeledPlan
    from ..featurization.encoding import OperatorEncoder

#: A pruned dimension is recalled once its observed standard deviation
#: exceeds this fraction of the live dimensions' median std.
_RECALL_STD_RATIO = 0.05


@dataclass
class _DimensionStats:
    """Streaming mean/variance per feature dimension (Welford)."""

    count: int = 0
    mean: Optional[np.ndarray] = None
    m2: Optional[np.ndarray] = None

    def update(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(rows)
        if self.mean is None:
            self.mean = np.zeros(rows.shape[1])
            self.m2 = np.zeros(rows.shape[1])
        for row in rows:
            self.count += 1
            delta = row - self.mean
            self.mean = self.mean + delta / self.count
            self.m2 = self.m2 + delta * (row - self.mean)

    def std(self) -> np.ndarray:
        if self.mean is None or self.count < 2:
            return np.zeros(0 if self.mean is None else len(self.mean))
        return np.sqrt(self.m2 / (self.count - 1))

    def state_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": None if self.mean is None else self.mean.tolist(),
            "m2": None if self.m2 is None else self.m2.tolist(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "_DimensionStats":
        mean = state.get("mean")
        m2 = state.get("m2")
        return cls(
            count=int(state.get("count", 0)),
            mean=None if mean is None else np.asarray(mean, dtype=np.float64),
            m2=None if m2 is None else np.asarray(m2, dtype=np.float64),
        )


class FeatureRecall:
    """Watches operator feature streams and recalls pruned dimensions."""

    def __init__(
        self,
        masks: Mapping[OperatorType, np.ndarray],
        feature_names: Sequence[str],
        baselines: Optional[Mapping[OperatorType, np.ndarray]] = None,
    ):
        """``baselines`` (optional): per-operator mean feature vectors
        from the reduction-time data.  With a baseline, a pruned
        dimension is also recalled when its observed *mean* departs
        from the reduction-time constant — catching workload drift that
        shifts a dimension to a new constant value (e.g. every range
        scan now matching 100 rows instead of 1)."""
        self.masks: Dict[OperatorType, np.ndarray] = {
            op: np.asarray(mask, dtype=bool).copy() for op, mask in masks.items()
        }
        self.feature_names = list(feature_names)
        dim = len(self.feature_names)
        for op, mask in self.masks.items():
            if len(mask) != dim:
                raise FeatureError(
                    f"mask for {op} has {len(mask)} dims, layout has {dim}"
                )
        self.baselines: Dict[OperatorType, np.ndarray] = {}
        for op, mean in (baselines or {}).items():
            mean = np.asarray(mean, dtype=np.float64)[:dim]
            if len(mean) != dim:
                raise FeatureError(
                    f"baseline for {op} has {len(mean)} dims, layout has {dim}"
                )
            self.baselines[op] = mean
        self._stats: Dict[OperatorType, _DimensionStats] = {}
        self._flagged: Dict[OperatorType, Set[int]] = {}

    # ------------------------------------------------------------------
    def observe(self, op: OperatorType, rows: np.ndarray) -> List[str]:
        """Feed freshly encoded (unmasked) rows for operator *op*.

        Returns the names of any newly flagged (recall-worthy) pruned
        dimensions.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != len(self.feature_names):
            raise FeatureError(
                f"expected {len(self.feature_names)} dims, got {rows.shape[1]}"
            )
        stats = self._stats.setdefault(op, _DimensionStats())
        stats.update(rows)
        if op not in self.masks or stats.count < 2:
            return []
        std = stats.std()
        live = self.masks[op]
        live_std = std[live]
        scale = float(np.median(live_std)) if live_std.size else 0.0
        threshold = max(scale * _RECALL_STD_RATIO, 1e-9)
        baseline = self.baselines.get(op)
        newly: List[str] = []
        flagged = self._flagged.setdefault(op, set())
        for dim in np.nonzero(~live)[0]:
            if dim in flagged:
                continue
            drifted = std[dim] > threshold
            if not drifted and baseline is not None:
                shift = abs(float(stats.mean[dim]) - float(baseline[dim]))
                drifted = shift > max(threshold, 0.05 * abs(float(baseline[dim])))
            if drifted:
                flagged.add(int(dim))
                newly.append(self.feature_names[dim])
        return newly

    # ------------------------------------------------------------------
    def flagged_dimensions(self, op: OperatorType) -> List[int]:
        return sorted(self._flagged.get(op, ()))

    def recall_masks(self) -> Dict[OperatorType, np.ndarray]:
        """Masks with every flagged dimension re-included."""
        updated: Dict[OperatorType, np.ndarray] = {}
        for op, mask in self.masks.items():
            new_mask = mask.copy()
            for dim in self._flagged.get(op, ()):
                new_mask[dim] = True
            updated[op] = new_mask
        return updated

    @property
    def total_flagged(self) -> int:
        return sum(len(dims) for dims in self._flagged.values())

    # ------------------------------------------------------------------
    # serialization (JSON-safe: operator types stored by value)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The watcher's full state as plain (JSON-serializable) data:
        masks, layout, baselines, streaming statistics and flags."""
        return {
            "feature_names": list(self.feature_names),
            "masks": {
                op.value: mask.astype(int).tolist()
                for op, mask in self.masks.items()
            },
            "baselines": {
                op.value: mean.tolist() for op, mean in self.baselines.items()
            },
            "stats": {
                op.value: stats.state_dict() for op, stats in self._stats.items()
            },
            "flagged": {
                op.value: sorted(int(d) for d in dims)
                for op, dims in self._flagged.items()
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "FeatureRecall":
        """Rebuild a watcher from :meth:`state_dict` output; streaming
        statistics and already-flagged dimensions are restored, so
        observation continues where the serialized watcher left off."""
        try:
            feature_names = list(state["feature_names"])
            masks = {
                OperatorType(op): np.asarray(mask, dtype=bool)
                for op, mask in dict(state["masks"]).items()
            }
        except (KeyError, ValueError, TypeError) as exc:
            raise FeatureError(f"invalid FeatureRecall state: {exc}") from exc
        baselines = {
            OperatorType(op): np.asarray(mean, dtype=np.float64)
            for op, mean in dict(state.get("baselines", {})).items()
        }
        recall = cls(masks, feature_names, baselines=baselines or None)
        for op, stats_state in dict(state.get("stats", {})).items():
            recall._stats[OperatorType(op)] = _DimensionStats.from_state(
                stats_state
            )
        for op, dims in dict(state.get("flagged", {})).items():
            recall._flagged[OperatorType(op)] = {int(d) for d in dims}
        return recall


def collect_baselines(
    encoder: "OperatorEncoder",
    labeled: Iterable["LabeledPlan"],
) -> Dict[OperatorType, np.ndarray]:
    """Per-operator mean *unmasked* feature vectors over a labelled set.

    This is the baseline export for :class:`FeatureRecall`: computed on
    the reduction-time workload, it records what every dimension looked
    like when the keep-masks were chosen, so a pruned dimension that
    later settles at a *different* constant (est_rows jumping from 1 to
    100 after a drift) is caught by the mean-shift rule even though its
    variance stays near zero.

    Rows are encoded *without* any snapshot mapping, matching how the
    serving adaptation loop observes traffic: the per-environment
    snapshot slots stay zero on both the baseline and observation
    sides, so they can never produce spurious mean-shift flags.
    """
    rows_by_op = encoder.operator_rows(record.plan for record in labeled)
    return {op: np.mean(rows, axis=0) for op, rows in rows_by_op.items()}
