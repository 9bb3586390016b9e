"""MSCN adapted to cost estimation (paper Section V-A, Implementation).

The original multi-set convolutional network pools three feature sets
(tables, joins, predicates) through per-set MLPs and concatenates the
averages into a final MLP predicting cardinality.  Following the paper
we (i) retarget the output to query latency and (ii) append the
fine-grained operator features of the query's plan — the averaged
QPPNet-style node encodings, which carry cardinalities and, under QCFE,
the feature-snapshot block.

QCFE's feature reduction applies to that global operator-feature block
via a single keep-mask.

Training runs :mod:`repro.nn.train`'s forward and backward, with the
mean pool and the concatenation written out here; serving runs the
fixed-block forward instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.executor import LabeledPlan
from ..engine.operators import OperatorType
from ..errors import TrainingError
from ..featurization.encoding import apply_mask
from ..featurization.mscn_features import MSCNEncoder, MSCNSample, MSCNTemplate
from ..nn import Adam, FlatNet, Sequential, clip_grad_norm, forward_trace, mlp, mse_grad
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
from .qppnet import from_log, to_log


class MSCN(CostEstimator):
    """Set-based cost model with a global plan-feature vector."""

    name = "mscn"

    def __init__(
        self,
        encoder: MSCNEncoder,
        hidden: int = 64,
        lr: float = 1e-3,
        epochs: int = 40,
        batch_size: int = 64,
        seed: int = 0,
        global_mask: Optional[np.ndarray] = None,
    ):
        self.encoder = encoder
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.global_mask = global_mask
        self._build()

    def _build(self) -> None:
        h = self.hidden
        global_dim = (
            int(self.global_mask.sum())
            if self.global_mask is not None
            else self.encoder.global_dim
        )
        self.table_net = mlp(self.encoder.table_dim, (h,), h, ("mscn-t", self.seed))
        self.join_net = mlp(self.encoder.join_dim, (h,), h, ("mscn-j", self.seed))
        self.pred_net = mlp(self.encoder.predicate_dim, (h,), h, ("mscn-p", self.seed))
        self.out_net = mlp(3 * h + global_dim, (h, h), 1, ("mscn-o", self.seed))

    def set_global_mask(
        self, mask: np.ndarray, fold_mean: Optional[np.ndarray] = None
    ) -> None:
        """Install a feature-reduction mask over the global block.

        With ``fold_mean`` (mean final-MLP input over the training set)
        the new ``out_net`` is warm-started: kept rows of its first
        layer are copied and the dropped — constant — dimensions'
        contributions fold into the bias, so retraining starts from the
        trained base function.  The set networks are untouched.
        """
        old_out = self.out_net if fold_mean is not None else None
        old_nets = (self.table_net, self.join_net, self.pred_net)
        old_mask = self.global_mask
        self.global_mask = np.asarray(mask)
        self._build()
        if old_out is None:
            return
        self.table_net, self.join_net, self.pred_net = old_nets
        # Handle re-masking an already-masked net (recall widens the
        # mask): indexed in the *full* (set outputs + global block)
        # input space, with the set-output prefix always kept.
        set_width = 3 * self.hidden

        def full_keep(keep_global: Optional[np.ndarray]) -> np.ndarray:
            """*keep_global* behind an all-kept set-output prefix."""
            global_keep = (
                np.asarray(keep_global, dtype=bool)
                if keep_global is not None
                else np.ones(self.encoder.global_dim, dtype=bool)
            )
            return np.concatenate(
                [np.ones(set_width, dtype=bool), global_keep]
            )

        warm_start_remap(
            old_out,
            self.out_net,
            full_keep(old_mask),
            full_keep(self.global_mask),
            fold_mean,
        )

    def keep_masks(self) -> Optional[Dict[OperatorType, np.ndarray]]:
        """The global keep-mask under every operator (None when
        unreduced): the global block is the mean of the per-node
        operator rows, so one mask covers every operator's dims."""
        if self.global_mask is None:
            return None
        mask = np.asarray(self.global_mask, dtype=bool)
        return {op: mask for op in OperatorType}

    def warm_retrain(
        self,
        train: Sequence[LabeledPlan],
        masks: Optional[Mapping[OperatorType, np.ndarray]] = None,
        snapshot_set: Optional["SnapshotSet"] = None,
        epochs: Optional[int] = None,
    ) -> TrainStats:
        """Install the union of the recalled per-operator ``masks`` as
        the global mask and refit briefly.

        Recall only re-includes dimensions, so the warm start is
        function-preserving (new first-layer rows start at zero); the
        fold mean is never consulted and passed as zeros.
        """
        if masks is not None:
            full_width = 3 * self.hidden + self.encoder.global_dim
            union = np.logical_or.reduce(
                np.stack([np.asarray(m, dtype=bool) for m in masks.values()])
            )
            self.set_global_mask(union, fold_mean=np.zeros(full_width))
        return super().warm_retrain(
            train, snapshot_set=snapshot_set, epochs=epochs
        )

    def parameters(self):
        """The four networks' parameters, in :attr:`_NET_NAMES` order."""
        params = []
        for net in (self.table_net, self.join_net, self.pred_net, self.out_net):
            params.extend(net.parameters())
        return params

    def num_parameters(self) -> int:
        """Number of trainable scalars over the four networks."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------
    # checkpoint serialization (repro.persist)
    # ------------------------------------------------------------------
    _NET_NAMES = ("table_net", "join_net", "pred_net", "out_net")

    def state_dict(self) -> Dict[str, object]:
        """Architecture config, global mask and the four nets' weights.

        The encoder is rebuilt from the benchmark catalog on restore
        (see :meth:`repro.models.qppnet.QPPNet.state_dict`).
        """
        return {
            "kind": "mscn",
            "config": {
                "hidden": self.hidden,
                "lr": self.lr,
                "epochs": self.epochs,
                "batch_size": self.batch_size,
                "seed": self.seed,
            },
            "global_mask": (
                None
                if self.global_mask is None
                else np.asarray(self.global_mask, dtype=bool)
            ),
            "nets": {
                name: getattr(self, name).state_dict()
                for name in self._NET_NAMES
            },
        }

    @classmethod
    def from_state(cls, state, encoder: MSCNEncoder) -> "MSCN":
        """Rebuild from :meth:`state_dict` output + a rebuilt encoder;
        restored weights are installed verbatim (bit-identical)."""
        config = dict(state.get("config", {}))
        mask = state.get("global_mask")
        model = cls(
            encoder,
            hidden=int(config.get("hidden", 64)),
            lr=float(config.get("lr", 1e-3)),
            epochs=int(config.get("epochs", 40)),
            batch_size=int(config.get("batch_size", 64)),
            seed=int(config.get("seed", 0)),
            global_mask=None if mask is None else np.asarray(mask, dtype=bool),
        )
        for name, arrays in dict(state.get("nets", {})).items():
            if name not in cls._NET_NAMES:
                raise TrainingError(f"unknown MSCN net {name!r} in state")
            getattr(model, name).load_state_dict(arrays)
        return model

    # ------------------------------------------------------------------
    def _encode(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"]
    ) -> MSCNSample:
        mapping = snapshot_mapping_for(record, snapshot_set)
        return self._apply_global_mask(self.encoder.encode(record.plan, mapping))

    def _apply_global_mask(self, sample: MSCNSample) -> MSCNSample:
        """*sample* with the global keep-mask applied to its plan vector."""
        if self.global_mask is None:
            return sample
        return MSCNSample(
            tables=sample.tables,
            joins=sample.joins,
            predicates=sample.predicates,
            plan_global=apply_mask(sample.plan_global, self.global_mask),
        )

    def _pool(
        self, net: Sequential, sets: Sequence[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
        """Every set's rows through *net* and a ReLU in one training
        forward, mean-pooled per query: the pooled block and the trace
        (None when every set is empty)."""
        nonempty = [rows for rows in sets if rows.shape[0] > 0]
        if not nonempty:
            return np.zeros((len(sets), self.hidden)), None
        trace = forward_trace(net, np.concatenate(nonempty, axis=0))
        out = trace[-1]
        return self._mean_pool(out * (out > 0), sets), trace

    def _mean_pool(self, hidden: np.ndarray, sets: Sequence[np.ndarray]) -> np.ndarray:
        """A slice mean per set over *hidden* (the sets' rows stacked);
        zeros for an empty set."""
        pooled = np.zeros((len(sets), self.hidden))
        offset = 0
        for index, rows in enumerate(sets):
            size = rows.shape[0]
            if size:
                pooled[index] = hidden[offset:offset + size].mean(axis=0)
                offset += size
        return pooled

    @staticmethod
    def _unpool(
        unit: FlatNet,
        trace: List[np.ndarray],
        sets: Sequence[np.ndarray],
        grad_pooled: np.ndarray,
    ) -> None:
        """Back-propagate the pooled gradient through the mean pool (a
        scatter into zeros, as the graph's), the ReLU and the net."""
        out = trace[-1]
        grad = np.zeros_like(out)
        offset = 0
        for index, rows in enumerate(sets):
            size = rows.shape[0]
            if size:
                grad[offset:offset + size] += grad_pooled[index] / size
                offset += size
        grad *= out > 0
        unit.backward(trace, grad)

    @staticmethod
    def _set_lists(samples: Sequence[MSCNSample]) -> List[List[np.ndarray]]:
        """The table, join and predicate sets of *samples*."""
        fields = ("tables", "joins", "predicates")
        return [[getattr(s, field) for s in samples] for field in fields]

    # ------------------------------------------------------------------
    def fit(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> TrainStats:
        """Train the four networks, each one
        :class:`~repro.nn.train.FlatNet`, on hand-derived gradients.  A
        set network whose sets are all empty in a batch is not updated.
        """
        if not train:
            raise TrainingError("empty training set")
        start = time.perf_counter()
        samples = [self._encode(r, snapshot_set) for r in train]
        targets = np.array([to_log(r.latency_ms) for r in train])
        units = [FlatNet(getattr(self, name)) for name in self._NET_NAMES]
        params = [unit.param for unit in units]
        optimizer = Adam(params, lr=self.lr)
        rng = rng_for("mscn-fit", self.seed)
        indices = np.arange(len(train))
        history: List[float] = []
        for _ in range(self.epochs):
            rng.shuffle(indices)
            epoch_loss, batches = 0.0, 0
            for lo in range(0, len(indices), self.batch_size):
                batch = indices[lo:lo + self.batch_size]
                optimizer.zero_grad()
                epoch_loss += self._step_gradients(
                    [samples[i] for i in batch], targets[batch], units
                )
                clip_grad_norm(params, 5.0)
                optimizer.step()
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
        samples: Sequence[MSCNSample],
        targets: np.ndarray,
        units: Sequence[FlatNet],
    ) -> float:
        """One mini-batch's mean squared error; leaves the gradients of
        *units* (in :attr:`_NET_NAMES` order, zeroed) in their buffers.
        ``out_net``'s full input gradient is split by columns into the
        pooled blocks' gradients."""
        *set_units, out_unit = units
        sets = self._set_lists(samples)
        pooled, traces = zip(
            *(
                self._pool(unit.net, rows)
                for unit, rows in zip(set_units, sets, strict=True)
            ),
            strict=True,
        )
        global_vec = np.stack([s.plan_global for s in samples])
        trace = forward_trace(
            self.out_net, np.concatenate([*pooled, global_vec], axis=1)
        )
        loss, grad = mse_grad(trace[-1].reshape(-1), targets)
        grad_in = out_unit.backward(trace, grad.reshape(-1, 1), want_input=True)
        h = self.hidden
        columns = zip(set_units, traces, sets, strict=True)
        for k, (unit, set_trace, rows) in enumerate(columns):
            if set_trace is not None:
                self._unpool(unit, set_trace, rows, grad_in[:, k * h:(k + 1) * h])
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
    ) -> MSCNSample:
        """The (masked) MSCN sample; plan-object independent, so safe to
        cache by plan fingerprint and share across requests."""
        return self._encode(record, snapshot_set)

    def prepare_template(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"] = None
    ) -> MSCNTemplate:
        """Literal-independent skeleton sample, cacheable under
        ``template_fingerprint``.  Masks are applied per request in
        :meth:`prepare_from_template`, not baked into the template."""
        mapping = snapshot_mapping_for(record, snapshot_set)
        return self.encoder.encode_skeleton(record.plan, mapping)

    def prepare_from_template(
        self,
        record: LabeledPlan,
        template: MSCNTemplate,
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> MSCNSample:
        """Instantiate a cached *template* with this record's literals
        and apply the masks — bit-identical to :meth:`prepare_one`
        (the pooled global vector is recomputed with the scalar path's
        exact full-matrix mean)."""
        sample = self.encoder.encode_from_skeleton(template, record.plan)
        return self._apply_global_mask(sample)

    def predict_prepared_batch(
        self,
        labeled: Sequence[LabeledPlan],
        prepared: Optional[Sequence] = None,
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:
        """Fused forward over the flush: each set network and the final
        MLP run once per chunk via the fixed-block GEMM
        (``forward_batched``), so each sample's prediction is
        independent of its neighbours — scalar requests are the
        batch-size-1 case of the same code."""
        if not labeled:
            return np.zeros(0, dtype=np.float64)
        if prepared is None:
            prepared = [None] * len(labeled)
        samples = [
            self._encode(record, snapshot_set) if sample is None else sample
            for record, sample in zip(labeled, prepared, strict=True)
        ]
        out = np.zeros(len(labeled))
        for lo in range(0, len(labeled), PREDICT_CHUNK_PLANS):
            chunk = samples[lo:lo + PREDICT_CHUNK_PLANS]
            values = self._forward_batched(chunk).reshape(-1)
            out[lo:lo + len(chunk)] = from_log(values)
        return out

    def _forward_batched(self, samples: Sequence[MSCNSample]) -> np.ndarray:
        """The serving forward: ``forward_batched`` and slice means, both
        row-local, so a sample's prediction ignores its neighbours."""
        pooled = []
        nets = (self.table_net, self.join_net, self.pred_net)
        for net, sets in zip(nets, self._set_lists(samples), strict=True):
            nonempty = [rows for rows in sets if rows.shape[0] > 0]
            hidden = np.zeros((0, self.hidden))
            if nonempty:
                hidden = net.forward_batched(np.concatenate(nonempty, axis=0))
                hidden = hidden * (hidden > 0)
            pooled.append(self._mean_pool(hidden, sets))
        global_vec = np.stack([s.plan_global for s in samples])
        features = np.concatenate([*pooled, global_vec], axis=1)
        return self.out_net.forward_batched(features)

    # ------------------------------------------------------------------
    def final_input_dataset(
        self,
        labeled: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> Tuple[np.ndarray, slice]:
        """Inputs to ``out_net`` as a matrix, plus the slice of columns
        holding the (unmasked) global operator-feature block — the
        dataset feature reduction runs on, with the pooled-set columns
        protected."""
        if self.global_mask is not None:
            raise TrainingError("collect the reduction dataset before masking")
        samples = [self._encode(r, snapshot_set) for r in labeled]
        nets = (self.table_net, self.join_net, self.pred_net)
        pooled = [
            self._pool(net, sets)[0]
            for net, sets in zip(nets, self._set_lists(samples), strict=True)
        ]
        global_rows = np.stack([s.plan_global for s in samples])
        matrix = np.concatenate([*pooled, global_rows], axis=1)
        return matrix, slice(3 * self.hidden, matrix.shape[1])
