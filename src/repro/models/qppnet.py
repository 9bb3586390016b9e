"""QPPNet: plan-structured neural network (Marcus & Papaemmanouil).

One small MLP ("neural unit") per physical operator type.  A unit
reads the operator's feature vector concatenated with the *data
vectors* produced by its children's units, and outputs its subtree's
predicted (log) latency plus a data vector passed to the parent.

Training and serving share one grouping, by ``(height, operator)``,
so every unit runs once per group, children's groups before parents'
(:mod:`repro.models.prepared`).  A flush of fresh plans is grouped as
one forest: walked once, encoded per environment, grouped with one
reverse pass and one sort, with no per-plan step.  A plan featurized on
its own (``prepare_one``, the feature cache's value) is a forest of
one, a :class:`~repro.models.prepared.PreparedPlan`; cached flushes
merge those.  Training walks, encodes and keys its plans once per fit
as one :class:`~repro.models.prepared.TrainingForest` and cuts every
mini-batch from it.  It trains on hand-derived gradients
(:mod:`repro.nn.train`): per batch the training forward once per group,
keeping each layer's input, then a reverse pass over the groups that
writes each unit's gradients into its flat buffer, for one in-place
Adam step per unit.  The fitted bits are those of the autodiff graph
over the same groups.  Feature reduction's operator sets are one
forest pass of the serving forward.

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
from ..engine.operators import OperatorType
from ..errors import TrainingError
from ..featurization.encoding import OperatorEncoder
from ..nn import Adam, FlatNet, clip_grad_norm, forward_trace, mlp, mse_grad
from ..nn.layers import Sequential
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.snapshot import SnapshotSet
from ..rng import rng_for
from .base import (
    PREDICT_CHUNK_PLANS,
    CostEstimator,
    ReductionSet,
    TrainStats,
    snapshot_mapping_for,
    warm_start_remap,
)
from .prepared import (
    MAX_CHILDREN,
    ForestBatch,
    PlanWalk,
    PreparedPlan,
    TrainingForest,
    cut_groups,
    forest_forward,
    forward_groups,
    fused_forward,
    group_forest,
    prepared_from_matrix,
    prepared_from_rows,
    walk_plan,
    walk_plans,
)

_MAX_CHILDREN = MAX_CHILDREN

#: Latency floor: targets are natural logs of ms clamped here, so
#: sub-millisecond queries (Sysbench point selects) stay resolvable.
LATENCY_FLOOR_MS = 1e-4


def to_log(ms: float) -> float:
    """A latency in ms as a training target: its natural log, floored
    at :data:`LATENCY_FLOOR_MS`."""
    return float(np.log(max(ms, LATENCY_FLOOR_MS)))


def from_log(value: np.ndarray) -> np.ndarray:
    """Predicted log-latencies back in ms (clipped, floored)."""
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

    def install_masks(
        self,
        masks: Mapping[OperatorType, np.ndarray],
        fold_means: Optional[Mapping[OperatorType, np.ndarray]] = None,
    ) -> None:
        """Install per-operator keep vectors over the operator encoding
        and rebuild the units (see :meth:`CostEstimator.install_masks`).

        ``fold_means`` are per-operator mean unit-input vectors over
        the training operator sets; a unit is warm-started when its
        operator has one, so the reduced model starts at the base
        model's function and retraining only refines it.
        """
        old_units = self.units if fold_means is not None else {}
        old_masks = dict(self.masks)
        self.masks = dict(masks)
        self._build_units()
        for op, unit in self.units.items():
            if op in old_units and op in fold_means:
                warm_start_remap(
                    old_units[op],
                    unit,
                    old_masks.get(op),
                    self.masks.get(op),
                    slice(0, self.encoder.dim),
                    fold_means[op],
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
            self.install_masks(
                masks, fold_means={op: np.zeros(full_width) for op in masks}
            )
        return super().warm_retrain(
            train, snapshot_set=snapshot_set, epochs=epochs
        )

    def keep_masks(self) -> Optional[Dict[OperatorType, np.ndarray]]:
        """The installed per-operator keep-masks (None when unreduced)."""
        return dict(self.masks) or None

    def parameters(self):
        """Every unit's parameters, in :class:`OperatorType` order."""
        params = []
        for unit in self.units.values():
            params.extend(unit.parameters())
        return params

    def num_parameters(self) -> int:
        """Number of trainable scalars over every unit."""
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

    def fit(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> TrainStats:
        """Train every unit on hand-derived gradients.

        The training plans are walked, encoded and keyed once
        (:class:`~repro.models.prepared.TrainingForest`) and each
        mini-batch is cut from that forest.  Each unit trains as one
        :class:`~repro.nn.train.FlatNet` (one flat parameter, one flat
        gradient buffer); :meth:`_step_gradients` fills the buffers,
        then the clip and the Adam step run over the flat parameters.
        A unit absent from a batch has no gradient and is not updated.
        The weights, losses and their bits are those of the autodiff
        graph over the same groups.
        """
        if not train:
            raise TrainingError("empty training set")
        start = time.perf_counter()
        walk, matrix, order = self._forest_matrix(train, snapshot_set)
        forest = TrainingForest(walk, matrix, self.masks, order)
        targets = np.concatenate([self._node_targets(train[i]) for i in order])
        units = {op: FlatNet(unit) for op, unit in self.units.items()}
        params = [unit.param for unit in units.values()]
        optimizer = Adam(params, lr=self.lr)
        rng = rng_for("qppnet-fit", self.seed)
        history: List[float] = []
        indices = np.arange(len(train))
        for _ in range(self.epochs):
            rng.shuffle(indices)
            epoch_loss = 0.0
            batches = 0
            for lo in range(0, len(indices), self.batch_size):
                batch = forest.batch(indices[lo:lo + self.batch_size])
                optimizer.zero_grad()
                loss = self._step_gradients(batch, targets[batch.members], units)
                clip_grad_norm(params, 5.0)
                optimizer.step()
                epoch_loss += loss
                batches += 1
            history.append(epoch_loss / max(batches, 1))
        return TrainStats(
            epochs=self.epochs,
            final_loss=history[-1] if history else float("nan"),
            train_seconds=time.perf_counter() - start,
            n_parameters=self.num_parameters(),
            loss_history=history,
        )

    def _step_gradients(
        self,
        batch: ForestBatch,
        targets: np.ndarray,
        units: Mapping[OperatorType, FlatNet],
    ) -> float:
        """One mini-batch's mean squared error; leaves each unit's
        gradient in its flat buffer (the units' gradients must be
        zeroed first; an absent unit's stays None).

        The forward runs group by group into one output buffer and
        keeps each group's trace.  The backward writes a group's
        unit-output gradient into one buffer, row per node: column 0
        from the loss, the data columns from the parent's input
        gradient, by plain assignment since every node has one parent.
        It visits the groups in :func:`_backward_order`, so a unit
        shared by several groups sums their contributions in the
        autodiff graph's order, bit for bit.
        """
        groups, n_nodes = batch.groups, batch.n_nodes
        width = 1 + self.data_size
        out = np.zeros((n_nodes + 1, width))
        traces = []
        for op, feats, nodes, children in groups:
            child_data = out[children.reshape(-1), 1:].reshape(
                len(nodes), _MAX_CHILDREN * self.data_size
            )
            trace = forward_trace(
                units[op].net, np.concatenate([feats, child_data], axis=1)
            )
            out[nodes] = trace[-1]
            traces.append(trace)
        order = np.concatenate([nodes for _, _, nodes, _ in groups])
        loss, grad = mse_grad(out[order, 0], targets)
        grad_out = np.zeros((n_nodes + 1, width))
        grad_out[order, 0] = grad
        for g in _backward_order(batch.sources):
            op, feats, nodes, children = groups[g]
            grad_x = units[op].backward(
                traces[g], grad_out[nodes], bool(batch.sources[g])
            )
            if grad_x is not None:
                child_grad = grad_x[:, feats.shape[1]:].reshape(-1, self.data_size)
                grad_out[children.reshape(-1), 1:] = child_grad
        return loss

    def predict_many(
        self,
        labeled: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:
        """Predicted latencies in ms: the fused path over a fresh flush."""
        return self.predict_prepared_batch(labeled, snapshot_set=snapshot_set)

    # ------------------------------------------------------------------
    # serving hooks
    # ------------------------------------------------------------------
    def prepare_one(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"] = None
    ) -> PreparedPlan:
        """Featurize and group one plan for the fused batch forward.

        The value is keyed by plan fingerprint downstream, so it is
        walk-order based and safe to replay onto any plan object with
        the same fingerprint (see :class:`~repro.models.prepared.PreparedPlan`).
        """
        walk = walk_plan(record.plan)
        matrix = self.encoder.encode_nodes(
            walk.nodes, snapshot_mapping_for(record, snapshot_set)
        )
        return prepared_from_matrix(record.plan, matrix, self.masks, walk)

    def _environments(
        self,
        records: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"],
    ) -> List[Tuple[Optional[Dict], List[int]]]:
        """The indices of *records* per snapshot mapping (one mapping per
        environment), environments in first-seen order."""
        by_mapping: Dict[int, Tuple[Optional[Dict], List[int]]] = {}
        for i, record in enumerate(records):
            mapping = snapshot_mapping_for(record, snapshot_set)
            by_mapping.setdefault(id(mapping), (mapping, []))[1].append(i)
        return list(by_mapping.values())

    def _forest_matrix(
        self,
        records: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"],
    ) -> Tuple[PlanWalk, np.ndarray, List[int]]:
        """*records*' plans walked as one forest and encoded.

        The plans are walked environment by environment, so each
        environment's nodes are one contiguous run of the forest and
        encode as one matrix.  Returns ``(walk, matrix, order)``: the
        walk's plan *k* is ``records[order[k]]``.
        """
        environments = self._environments(records, snapshot_set)
        order = [i for _, indices in environments for i in indices]
        walk = walk_plans([records[i].plan for i in order])
        bounds = [*walk.roots, len(walk.nodes)]
        matrices = []
        first = 0
        for mapping, indices in environments:
            rows = slice(bounds[first], bounds[first + len(indices)])
            matrices.append(self.encoder.encode_nodes(walk.nodes[rows], mapping))
            first += len(indices)
        matrix = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
        return walk, matrix, order

    def _forest_roots(
        self,
        records: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"],
    ) -> np.ndarray:
        """Root log-latency of every record, its plans grouped as one
        forest (:func:`~repro.models.prepared.forest_forward`) and the
        roots put back in input order.  No per-plan
        :class:`PreparedPlan` is built.
        """
        walk, matrix, order = self._forest_matrix(records, snapshot_set)
        roots = np.empty(len(records))
        roots[order] = forest_forward(
            walk, matrix, self.masks, self.units, self.data_size
        )
        return roots

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
        walk = walk_plan(record.plan)
        matrix = self.encoder.encode_nodes(walk.nodes, skeleton=template.copy())
        return prepared_from_matrix(record.plan, matrix, self.masks, walk)

    def predict_prepared_batch(
        self,
        labeled: Sequence[LabeledPlan],
        prepared: Optional[Sequence] = None,
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:
        """Fused forward over the whole flush: one ``forward_batched``
        call per (height, operator) group across all plans.  Plans
        without a prepared value are grouped as one forest
        (:func:`~repro.models.prepared.forest_forward`), prepared ones
        are merged (:func:`~repro.models.prepared.fused_forward`).
        Scalar requests are the batch-size-1 special case of the same
        code, which is what makes the bit-identity guarantee structural
        rather than aspirational."""
        if not labeled:
            return np.zeros(0, dtype=np.float64)
        # A value of None means encode now: the flush's unprepared
        # plans are grouped as one forest per chunk.  Cached values are
        # merged; a legacy row list (pre-PreparedPlan checkpoints) is
        # regrouped first.
        values = list(prepared) if prepared is not None else [None] * len(labeled)
        fresh = [i for i, value in enumerate(values) if value is None]
        cached = [i for i, value in enumerate(values) if value is not None]
        out = np.zeros(len(labeled))
        for lo in range(0, len(fresh), PREDICT_CHUNK_PLANS):
            chunk = fresh[lo:lo + PREDICT_CHUNK_PLANS]
            roots = self._forest_roots([labeled[i] for i in chunk], snapshot_set)
            out[chunk] = from_log(roots)
        for lo in range(0, len(cached), PREDICT_CHUNK_PLANS):
            chunk = cached[lo:lo + PREDICT_CHUNK_PLANS]
            plans = [
                values[i] if isinstance(values[i], PreparedPlan)
                else prepared_from_rows(labeled[i].plan, values[i])
                for i in chunk
            ]
            out[chunk] = from_log(fused_forward(plans, self.units, self.data_size))
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
        feature reduction runs on; operators with one row are left out.
        The plans run as one forest, as serving runs a fresh flush.
        Rows are in post-order over each plan, plans in input order
        (FR draws references by row index), operators in order of
        their first row.
        """
        walk, matrix, order = self._forest_matrix(labeled, snapshot_set)
        forest = group_forest(walk)
        groups = list(
            zip(
                forest.ops,
                cut_groups(forest, matrix, self.masks),
                forest.nodes,
                forest.children,
                strict=True,
            )
        )
        out = forward_groups(groups, forest.n_nodes, self.units, self.data_size)
        # Forest indices in listing order; each node's row in its
        # operator's set is its place among that operator's listed nodes.
        listing = np.argsort(_post_order_rank(walk, order))
        codes = {op: i for i, op in enumerate(dict.fromkeys(forest.ops))}
        code = np.empty(forest.n_nodes, dtype=np.int64)
        for op, nodes in zip(forest.ops, forest.nodes, strict=True):
            code[nodes] = codes[op]
        listed = code[listing]
        row_of = np.empty(forest.n_nodes, dtype=np.int64)
        datasets: Dict[OperatorType, np.ndarray] = {}
        # Operators in order of their first listed node.
        for op in sorted(codes, key=lambda op: int(np.argmax(listed == codes[op]))):
            members = listing[listed == codes[op]]
            row_of[members] = np.arange(len(members))
            width = self._feature_dim(op) + _MAX_CHILDREN * self.data_size
            datasets[op] = np.empty((len(members), width))
        for op, feats, nodes, children in groups:
            rows, width = row_of[nodes], feats.shape[1]
            datasets[op][rows, :width] = feats
            datasets[op][rows, width:] = out[children.reshape(-1), 1:].reshape(
                len(nodes), -1
            )
        return {op: rows for op, rows in datasets.items() if len(rows) >= 2}

    def reduction_sets(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> List[ReductionSet]:
        """One set per operator of :meth:`operator_dataset`: its unit,
        scored on the cost output, with the operator encoding reducible
        and the child-data columns outside the block."""
        if self.masks:
            raise TrainingError("collect the reduction sets before masking")
        cost = np.zeros(1 + self.data_size)
        cost[0] = 1.0
        block = slice(0, self.encoder.dim)
        return [
            ReductionSet(op, self.units[op], data, block, cost, (self.seed, op.value))
            for op, data in self.operator_dataset(train, snapshot_set).items()
        ]


def _post_order_rank(walk: PlanWalk, order: Sequence[int]) -> np.ndarray:
    """Each forest node's position when the plans are listed in input
    order (walk plan *k* is input plan ``order[k]``), each in
    post-order: its pre-order index minus its depth plus its subtree
    size minus one."""
    n_nodes = len(walk.nodes)
    parents = walk.parents
    depth = [0] * n_nodes
    for i in range(n_nodes):
        if parents[i] >= 0:
            depth[i] = depth[parents[i]] + 1
    size = [1] * n_nodes
    for i in range(n_nodes - 1, -1, -1):
        if parents[i] >= 0:
            size[parents[i]] += size[i]
    roots = np.array(walk.roots, dtype=np.int64)
    plan_sizes = np.diff(roots, append=n_nodes)
    input_sizes = np.empty_like(plan_sizes)
    input_sizes[order] = plan_sizes
    # Each walk plan's start in input order minus its start in the walk.
    shift = (np.cumsum(input_sizes) - input_sizes)[order] - roots
    return (
        np.arange(n_nodes)
        + np.repeat(shift, plan_sizes)
        - np.array(depth)
        + np.array(size)
        - 1
    )


def _backward_order(sources: Sequence[Sequence[int]]) -> List[int]:
    """The order in which the autodiff graph of a batch back-propagates
    through its groups.

    A reverse-mode graph (the test suite's oracle,
    ``tests/nn/tensor.py``) runs nodes in reverse post-order of a
    depth-first search from the loss.  Over a batch's
    groups that search starts from the predictions' concat, which
    reaches the groups last to first, and leaves a group through its
    child-data gather, which reaches the *sources* groups last to
    first.  Each group's nodes form a chain, so the groups' reverse
    post-order is the order every layer's parameters sum their
    gradients in.
    """
    seen = [False] * len(sources)
    post: List[int] = []

    def visit(group: int) -> None:
        """Depth-first from *group*, appending it after its sources."""
        seen[group] = True
        for source in reversed(sources[group]):
            if not seen[source]:
                visit(source)
        post.append(group)

    for group in range(len(sources) - 1, -1, -1):
        if not seen[group]:
            visit(group)
    return post[::-1]
