"""QPPNet: plan-structured neural network (Marcus & Papaemmanouil).

One small MLP ("neural unit") per physical operator type.  A unit
reads the operator's feature vector concatenated with the *data
vectors* produced by its children's units, and outputs its subtree's
predicted (log) latency plus a data vector passed to the parent.

Training and serving share one grouping: each plan is featurized once
into a :class:`~repro.models.prepared.PreparedPlan`, and a mini-batch
(or a serving flush) is merged into ``(height, operator)`` groups so
every unit runs once per group, children's groups before parents'.
Training builds that as an autodiff graph: per group, one differentiable
gather of the children's data vectors from earlier groups' outputs, one
unit forward, and one slice of the group's predictions.

Supervision follows QPPNet: every node's latency output is trained
against the measured cumulative subtree time (EXPLAIN ANALYZE-style
per-operator actuals, which our executor records).

QCFE integration: ``snapshot_set`` adds the per-environment snapshot
block to node features; per-operator ``feature masks`` (from feature
reduction) shrink each unit's input, which is where the training-time
savings in Table IV come from.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.executor import LabeledPlan
from ..engine.operators import OperatorType, PlanNode
from ..errors import TrainingError
from ..featurization.encoding import OperatorEncoder, apply_mask
from ..nn import Adam, Tensor, clip_grad_norm, concat, gather_rows, mlp
from ..nn.layers import Sequential
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.snapshot import SnapshotSet
from ..rng import rng_for
from .base import (
    PREDICT_CHUNK_PLANS,
    CostEstimator,
    TrainStats,
    snapshot_mapping_for,
    warm_start_remap,
)
from .prepared import (
    MAX_CHILDREN,
    PreparedPlan,
    fused_forward,
    merge_prepared,
    prepared_from_matrix,
    prepared_from_rows,
)

_MAX_CHILDREN = MAX_CHILDREN

#: Latency floor: targets are natural logs of ms clamped here, so
#: sub-millisecond queries (Sysbench point selects) stay resolvable.
LATENCY_FLOOR_MS = 1e-4


def to_log(ms: float) -> float:
    return float(np.log(max(ms, LATENCY_FLOOR_MS)))


def from_log(value: np.ndarray) -> np.ndarray:
    return np.maximum(np.exp(np.clip(value, -60.0, 60.0)), LATENCY_FLOOR_MS)


class QPPNet(CostEstimator):
    """Plan-structured cost model with per-operator neural units."""

    name = "qppnet"

    def __init__(
        self,
        encoder: OperatorEncoder,
        data_size: int = 8,
        hidden: Tuple[int, ...] = (64, 64),
        lr: float = 1e-3,
        epochs: int = 25,
        batch_size: int = 32,
        seed: int = 0,
        masks: Optional[Mapping[OperatorType, np.ndarray]] = None,
    ):
        self.encoder = encoder
        self.data_size = data_size
        self.hidden = tuple(hidden)
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.masks: Dict[OperatorType, np.ndarray] = dict(masks or {})
        #: Soft mask used by the greedy reducer: dims where it is False
        #: are zeroed at encode time (no rebuild/retrain required).
        self.zero_mask: Optional[np.ndarray] = None
        self.units: Dict[OperatorType, Sequential] = {}
        self._build_units()

    # ------------------------------------------------------------------
    def _feature_dim(self, op: OperatorType) -> int:
        mask = self.masks.get(op)
        return int(mask.sum()) if mask is not None else self.encoder.dim

    def _build_units(self) -> None:
        self.units = {}
        for op in OperatorType:
            in_dim = self._feature_dim(op) + _MAX_CHILDREN * self.data_size
            self.units[op] = mlp(
                in_dim,
                self.hidden,
                1 + self.data_size,
                seed_key=("qppnet", self.seed, op.value),
            )

    def set_masks(
        self,
        masks: Mapping[OperatorType, np.ndarray],
        fold_means: Optional[Mapping[OperatorType, np.ndarray]] = None,
    ) -> None:
        """Install feature-reduction masks and rebuild the units.

        With ``fold_means`` (per-operator mean unit-input vectors over
        the training operator sets), the new units are *warm-started*
        from the trained ones: kept input rows are copied and each
        dropped dimension's contribution — constant over the data, or
        it would not have been dropped — is folded into the first
        layer's bias, so the reduced model starts at the base model's
        function and retraining only refines it.
        """
        old_units = self.units if fold_means is not None else {}
        old_masks = dict(self.masks)
        self.masks = dict(masks)
        self._build_units()
        for op, unit in self.units.items():
            if op not in old_units or fold_means is None or op not in fold_means:
                continue
            self._warm_start_unit(
                op, old_units[op], unit, fold_means[op], old_masks.get(op)
            )

    def _full_keep(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Unit-input keep vector (encoder dims + child-data dims)."""
        encoder_keep = (
            mask.astype(bool)
            if mask is not None
            else np.ones(self.encoder.dim, dtype=bool)
        )
        child_keep = np.ones(_MAX_CHILDREN * self.data_size, dtype=bool)
        return np.concatenate([encoder_keep, child_keep])

    def _warm_start_unit(
        self,
        op: OperatorType,
        old: Sequential,
        new: Sequential,
        mean_input: np.ndarray,
        old_mask: Optional[np.ndarray],
    ) -> None:
        """Copy/fold first-layer rows so the new unit starts at the old
        unit's function.  Handles re-masking an already-masked unit:
        kept-in-both rows are copied, dropped rows fold into the bias
        (sound when constant), and newly added rows start at zero
        (also function-preserving)."""
        warm_start_remap(
            old,
            new,
            self._full_keep(old_mask),
            self._full_keep(self.masks.get(op)),
            mean_input,
        )

    def warm_retrain(
        self,
        train: Sequence[LabeledPlan],
        masks: Optional[Mapping[OperatorType, np.ndarray]] = None,
        snapshot_set: Optional["SnapshotSet"] = None,
        epochs: Optional[int] = None,
    ) -> TrainStats:
        """Install recalled ``masks`` (warm-started) and refit briefly.

        Recalled masks only re-include dimensions, so the warm start is
        exactly function-preserving: kept rows are copied and newly
        added rows begin at zero (the fold means are never consulted —
        zero vectors keep the bookkeeping explicit).
        """
        if masks is not None:
            full_width = self.encoder.dim + _MAX_CHILDREN * self.data_size
            self.set_masks(
                masks,
                fold_means={op: np.zeros(full_width) for op in masks},
            )
        return super().warm_retrain(
            train, snapshot_set=snapshot_set, epochs=epochs
        )

    def parameters(self):
        params = []
        for unit in self.units.values():
            params.extend(unit.parameters())
        return params

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------
    # checkpoint serialization (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Architecture config, masks and per-operator unit weights.

        The encoder is *not* serialized: it is deterministic from the
        benchmark catalog, which the bundle state names, so
        :meth:`from_state` rebuilds it instead of persisting hundreds
        of feature-name strings per checkpoint.
        """
        return {
            "kind": "qppnet",
            "config": {
                "data_size": self.data_size,
                "hidden": list(self.hidden),
                "lr": self.lr,
                "epochs": self.epochs,
                "batch_size": self.batch_size,
                "seed": self.seed,
            },
            "masks": {
                op.value: mask.astype(bool) for op, mask in self.masks.items()
            },
            "units": {
                op.value: unit.state_dict() for op, unit in self.units.items()
            },
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, object], encoder: OperatorEncoder
    ) -> "QPPNet":
        """Rebuild from :meth:`state_dict` output + a rebuilt encoder.

        Restored weights are installed verbatim (shape-checked by
        :meth:`repro.nn.layers.Module.load_state_dict`), so the
        restored model predicts bit-identically to the serialized one.
        """
        config = dict(state.get("config", {}))
        masks = {
            OperatorType(op): np.asarray(mask, dtype=bool)
            for op, mask in dict(state.get("masks", {})).items()
        }
        model = cls(
            encoder,
            data_size=int(config.get("data_size", 8)),
            hidden=tuple(int(h) for h in config.get("hidden", (64, 64))),
            lr=float(config.get("lr", 1e-3)),
            epochs=int(config.get("epochs", 25)),
            batch_size=int(config.get("batch_size", 32)),
            seed=int(config.get("seed", 0)),
            masks=masks,
        )
        for op, arrays in dict(state.get("units", {})).items():
            model.units[OperatorType(op)].load_state_dict(arrays)
        return model

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @staticmethod
    def _node_targets(record: LabeledPlan) -> np.ndarray:
        """Log-latency target of every node, in walk order.

        Each node is supervised with its cumulative subtree time; the
        root (walk index 0) with the full query latency, which includes
        parse/plan overhead as EXPLAIN ANALYZE total runtime would.
        """
        targets = np.array(
            [to_log(node.actual_total_ms) for node in record.plan.walk()]
        )
        targets[0] = to_log(record.latency_ms)
        return targets

    def _forward_prepared(
        self, prepared: Sequence[PreparedPlan], targets: Sequence[np.ndarray]
    ) -> Tuple[Tensor, np.ndarray]:
        """Differentiable forward over the merged ``(height, operator)``
        groups of a mini-batch (:func:`~repro.models.prepared.merge_prepared`).

        Each group reads its children's data vectors from earlier
        groups' outputs with one :func:`~repro.nn.tensor.gather_rows`
        and runs its unit once.  Returns every node's prediction, group
        by group, and the matching log targets.
        """
        groups, offsets = merge_prepared(prepared)
        # Which group, and which row of it, computed each batch-wide
        # node; the final entry stands for absent child slots.
        group_of = np.full(int(offsets[-1]) + 1, -1, dtype=np.int64)
        row_of = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)
        outputs: List[Tensor] = []
        predictions: List[Tensor] = []
        for op, feats, nodes, children in groups:
            child_data = gather_rows(
                outputs, group_of[children], row_of[children], 1, self.data_size
            )
            unit_out = self.units[op](concat([Tensor(feats), child_data], axis=1))
            group_of[nodes] = len(outputs)
            row_of[nodes] = np.arange(len(nodes))
            outputs.append(unit_out)
            predictions.append(unit_out[:, 0])
        order = np.concatenate([nodes for _, _, nodes, _ in groups])
        return concat(predictions, axis=0), np.concatenate(targets)[order]

    def fit(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> TrainStats:
        if not train:
            raise TrainingError("empty training set")
        start = time.perf_counter()
        prepared = [self.prepare_one(r, snapshot_set) for r in train]
        node_targets = [self._node_targets(r) for r in train]
        optimizer = Adam(self.parameters(), lr=self.lr)
        rng = rng_for("qppnet-fit", self.seed)
        history: List[float] = []
        indices = np.arange(len(train))
        for _ in range(self.epochs):
            rng.shuffle(indices)
            epoch_loss = 0.0
            batches = 0
            for lo in range(0, len(indices), self.batch_size):
                batch = indices[lo:lo + self.batch_size]
                preds, targets = self._forward_prepared(
                    [prepared[i] for i in batch], [node_targets[i] for i in batch]
                )
                diff = preds - Tensor(targets)
                loss = (diff * diff).mean()
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.parameters(), 5.0)
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            history.append(epoch_loss / max(batches, 1))
        return TrainStats(
            epochs=self.epochs,
            final_loss=history[-1] if history else float("nan"),
            train_seconds=time.perf_counter() - start,
            n_parameters=self.num_parameters(),
            loss_history=history,
        )

    def predict_many(
        self,
        labeled: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:
        return self.predict_prepared_batch(labeled, snapshot_set=snapshot_set)

    # ------------------------------------------------------------------
    # serving hooks
    # ------------------------------------------------------------------
    def _masked_matrix(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"]
    ) -> np.ndarray:
        """The full encoded plan matrix with the soft zero-mask applied
        (per-operator keep-masks are applied at grouping time)."""
        mapping = snapshot_mapping_for(record, snapshot_set)
        matrix = self.encoder.encode_plan(record.plan, mapping)
        if self.zero_mask is not None:
            matrix = matrix * self.zero_mask
        return matrix

    def prepare_one(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"] = None
    ) -> PreparedPlan:
        """Featurize and group one plan for the fused batch forward.

        The value is keyed by plan fingerprint downstream, so it is
        walk-order based and safe to replay onto any plan object with
        the same fingerprint (see :class:`~repro.models.prepared.PreparedPlan`).
        """
        return prepared_from_matrix(
            record.plan, self._masked_matrix(record, snapshot_set), self.masks
        )

    def prepare_template(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"] = None
    ) -> np.ndarray:
        """The literal-independent encoded skeleton, shared by every
        instantiation of one statement template (cache under
        ``template_fingerprint``).  Masks are deliberately *not* baked
        in: they are applied per request in
        :meth:`prepare_from_template`, so mask updates need no
        template-cache flush."""
        mapping = snapshot_mapping_for(record, snapshot_set)
        return self.encoder.encode_plan_skeleton(record.plan, mapping)

    def prepare_from_template(
        self,
        record: LabeledPlan,
        template: np.ndarray,
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> PreparedPlan:
        """Instantiate a cached skeleton with this plan's literals.

        Patches only the numeric block, then masks and groups exactly
        as :meth:`prepare_one` would — bit-identical output, minus the
        one-hot assembly cost."""
        matrix = self.encoder.fill_numerics(template.copy(), record.plan)
        if self.zero_mask is not None:
            matrix = matrix * self.zero_mask
        return prepared_from_matrix(record.plan, matrix, self.masks)

    def _as_prepared(
        self,
        record: LabeledPlan,
        value: object,
        snapshot_set: Optional["SnapshotSet"],
    ) -> PreparedPlan:
        """Normalize a cached prepared value: None means encode now;
        a legacy row list (pre-``PreparedPlan`` checkpoints) is
        regrouped; a :class:`PreparedPlan` passes through."""
        if value is None:
            return self.prepare_one(record, snapshot_set=snapshot_set)
        if isinstance(value, PreparedPlan):
            return value
        return prepared_from_rows(record.plan, value)

    def predict_prepared_batch(
        self,
        labeled: Sequence[LabeledPlan],
        prepared: Optional[Sequence] = None,
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:
        """Fused forward over the whole flush (see
        :func:`~repro.models.prepared.fused_forward`): one
        ``forward_batched`` call per (height, operator) group across
        all plans.  Scalar requests are the batch-size-1 special case
        of the same code, which is what makes the bit-identity
        guarantee structural rather than aspirational."""
        if not labeled:
            return np.zeros(0, dtype=np.float64)
        if prepared is None:
            prepared = [None] * len(labeled)
        plans = [
            self._as_prepared(record, value, snapshot_set)
            for record, value in zip(labeled, prepared, strict=True)
        ]
        out = np.zeros(len(labeled))
        for lo in range(0, len(labeled), PREDICT_CHUNK_PLANS):
            chunk = plans[lo:lo + PREDICT_CHUNK_PLANS]
            roots = fused_forward(chunk, self.units, self.data_size)
            out[lo:lo + len(chunk)] = from_log(roots)
        return out

    # ------------------------------------------------------------------
    # feature-reduction support
    # ------------------------------------------------------------------
    def operator_dataset(
        self,
        labeled: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> Dict[OperatorType, np.ndarray]:
        """Per-operator matrices of *unit inputs* (features + child data)
        as seen by the trained units — the labelled operator sets D that
        feature reduction runs on.  Rows are in post-order over each
        plan, plans in input order."""
        collected: Dict[OperatorType, List[np.ndarray]] = {}
        for record in labeled:
            matrix = self._masked_matrix(record, snapshot_set)
            rows = {
                id(node): row
                for node, row in zip(record.plan.walk(), matrix, strict=True)
            }
            self._collect_unit_inputs(record.plan, rows, collected)
        return {
            op: np.stack(rows) for op, rows in collected.items() if len(rows) >= 2
        }

    def _collect_unit_inputs(
        self,
        node: PlanNode,
        rows: Dict[int, np.ndarray],
        out: Dict[OperatorType, List[np.ndarray]],
    ) -> np.ndarray:
        child_vectors = []
        for slot in range(_MAX_CHILDREN):
            if slot < len(node.children):
                child_out = self._collect_unit_inputs(node.children[slot], rows, out)
                child_vectors.append(child_out)
            else:
                child_vectors.append(np.zeros(self.data_size))
        features = apply_mask(rows[id(node)], self.masks.get(node.op))
        unit_input = np.concatenate([features, *child_vectors])
        out.setdefault(node.op, []).append(unit_input)
        result = self.units[node.op].forward_numpy(unit_input.reshape(1, -1))
        return result[0, 1:]
