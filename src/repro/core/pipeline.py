"""The QCFE pipeline (paper Figure 2a): snapshot -> encode -> reduce.

End-to-end orchestration of the paper's feature engineering around a
base learned estimator:

1. **Feature snapshot** — fit per-environment operator coefficients,
   either from original workload queries (FSO) or from Algorithm 1's
   simplified templates (FST);
2. **Train** the base estimator (QPPNet or MSCN) with the snapshot
   block appended to its operator features;
3. **Feature reduction** — score input dimensions on the trained model
   (difference propagation by default; greedy / gradient baselines for
   the ablation), install the keep-masks and retrain the smaller model.

The retrained reduced model is what QCFE(qpp)/QCFE(mscn) report in
Table IV; its training time is the "time" column (reduction makes it
cheaper than the base model's).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.environment import DatabaseEnvironment
from ..engine.executor import ExecutionSimulator, LabeledPlan
from ..engine.operators import OperatorType
from ..errors import TrainingError
from ..featurization.encoding import OperatorEncoder
from ..featurization.mscn_features import MSCNEncoder
from ..models.base import CostEstimator, TrainStats
from ..models.mscn import MSCN
from ..models.qppnet import QPPNet
from ..models.training import EvaluationReport, evaluate_estimator
from ..nn.loss import numpy_q_error
from ..workload.collect import Benchmark
from .gradient import gradient_importance
from .greedy import greedy_reduction
from .reduction import difference_importance, keep_mask_from_scores
from .snapshot import FeatureSnapshot, SnapshotSet, fit_snapshot_from_queries
from .templates import generate_simplified_queries


@dataclass
class QCFEConfig:
    """Configuration of one QCFE run."""

    model: str = "qppnet"  # "qppnet" | "mscn"
    snapshot_source: Optional[str] = "template"  # "original" | "template" | None
    reduction: Optional[str] = "diff"  # "diff" | "greedy" | "gradient" | None
    template_scale: int = 12  # Algorithm 1's N
    #: FSO labels the original workload; the paper runs the full
    #: parameter sweep per environment (e.g. 40x22 TPC-H queries).
    snapshot_queries_per_env: int = 60
    n_references: int = 16  # Algorithm 3's N
    epochs: int = 20
    hidden: Tuple[int, ...] = (64, 64)
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    greedy_max_rounds: int = 4
    greedy_sample: int = 128
    #: FR's "score > 0" filter: difference contributions of useless
    #: dims are exact zeros, so a tiny relative tolerance suffices.
    fr_tolerance: float = 1e-6
    #: GD has no principled zero: gradients of useless dimensions stay
    #: O(weight-norm) because their (never-trained) weights are random,
    #: so the score distribution is flat and any threshold is
    #: arbitrary — the weakness the paper's Section IV-B identifies.
    #: A practical GD therefore drops a fixed score quantile, tuned
    #: here to the ~41% reduction the paper observes for GD; the
    #: *wrongness* of those drops shows up in Figure 6's accuracy.
    gradient_drop_quantile: float = 0.45


@dataclass
class QCFEResult:
    """Everything a fit produces, for reporting."""

    train_stats: TrainStats
    base_train_stats: Optional[TrainStats] = None
    snapshot_seconds: float = 0.0
    reduction_seconds: float = 0.0
    #: Time spent computing importance scores only (Table VI's runtime
    #: column; grows linearly with the reference count).
    scoring_seconds: float = 0.0
    masks: Dict[OperatorType, np.ndarray] = field(default_factory=dict)
    global_mask: Optional[np.ndarray] = None
    reduction_ratio: float = 0.0


class ZeroedInputs:
    """A fitted, unmasked QPPNet or MSCN that predicts as if the input
    dims a keep-mask drops were zero: greedy reduction's scorer.

    It holds one deep copy of the model and, per keep-mask, zeroes the
    copy's first-layer weight rows of the dropped dims — QPPNet's
    operator-encoding rows in every unit, MSCN's global-block rows in
    ``out_net``.  A zero row contributes what a zeroed input would, so
    the predictions carry the same bits without a masked encode path
    in the model.
    """

    def __init__(self, model: CostEstimator):
        if model.keep_masks() is not None:
            raise TrainingError("score greedy candidates before masking")
        self.model = model = copy.deepcopy(model)
        if isinstance(model, QPPNet):
            nets, offset, dim = list(model.units.values()), 0, model.encoder.dim
        else:
            nets, offset = [model.out_net], 3 * model.hidden
            dim = model.encoder.global_dim
        #: Width of the reducible input block.
        self.dim = dim
        self._rows = slice(offset, offset + dim)
        self._layers = [net.modules[0] for net in nets]
        self._fitted = [layer.weight.data[self._rows].copy() for layer in self._layers]

    def zeroed(self, keep: np.ndarray) -> CostEstimator:
        """The copy, its first-layer rows of the dims *keep* drops set to
        zero and the others to the fitted weights."""
        dropped = self._rows.start + np.flatnonzero(~np.asarray(keep, dtype=bool))
        for layer, fitted in zip(self._layers, self._fitted, strict=True):
            layer.weight.data[self._rows] = fitted
            layer.weight.data[dropped] = 0.0
        return self.model


class QCFE:
    """QCFE feature engineering wrapped around a base estimator."""

    def __init__(
        self,
        benchmark: Benchmark,
        environments: Sequence[DatabaseEnvironment],
        config: Optional[QCFEConfig] = None,
    ):
        self.benchmark = benchmark
        self.environments = list(environments)
        self.config = config or QCFEConfig()
        self.operator_encoder = OperatorEncoder(benchmark.catalog)
        self.snapshot_set: Optional[SnapshotSet] = None
        self.estimator: CostEstimator = self._build_estimator()
        self.result: Optional[QCFEResult] = None
        self._last_scoring_seconds = 0.0

    # ------------------------------------------------------------------
    def _build_estimator(self) -> CostEstimator:
        cfg = self.config
        if cfg.model == "qppnet":
            return QPPNet(
                self.operator_encoder,
                hidden=cfg.hidden,
                lr=cfg.lr,
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                seed=cfg.seed,
            )
        if cfg.model == "mscn":
            return MSCN(
                MSCNEncoder(self.benchmark.catalog, self.operator_encoder),
                hidden=cfg.hidden[0],
                lr=cfg.lr,
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                seed=cfg.seed,
            )
        raise TrainingError(f"unknown model {self.config.model!r}")

    # ------------------------------------------------------------------
    # snapshot fitting
    # ------------------------------------------------------------------
    def fit_snapshot(self) -> Tuple[Optional[SnapshotSet], float]:
        """Fit the per-environment snapshot set per the config source."""
        cfg = self.config
        if cfg.snapshot_source is None:
            return None, 0.0
        start = time.perf_counter()
        snapshots: List[FeatureSnapshot] = []
        for env_index, env in enumerate(self.environments):
            simulator = ExecutionSimulator(
                self.benchmark.catalog, self.benchmark.stats, env
            )
            if cfg.snapshot_source == "template":
                queries = generate_simplified_queries(
                    self.benchmark.template_texts,
                    self.benchmark.catalog,
                    self.benchmark.abstract,
                    scale=cfg.template_scale,
                    seed=cfg.seed + env_index,
                )
            elif cfg.snapshot_source == "original":
                queries = [
                    q
                    for _, q in self.benchmark.generate_queries(
                        cfg.snapshot_queries_per_env, seed=1000 + cfg.seed + env_index
                    )
                ]
            else:
                raise TrainingError(
                    f"unknown snapshot source {cfg.snapshot_source!r}"
                )
            snapshots.append(
                fit_snapshot_from_queries(
                    queries, simulator, source=cfg.snapshot_source
                )
            )
        snapshot_set = SnapshotSet(snapshots)
        return snapshot_set, time.perf_counter() - start

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def _keep_mask(self, scores: np.ndarray, always_keep=None) -> np.ndarray:
        """The config-appropriate filter: FR's near-zero rule or GD's
        quantile cut (see the field docs on :class:`QCFEConfig`)."""
        cfg = self.config
        if cfg.reduction == "gradient":
            threshold = float(np.quantile(scores, cfg.gradient_drop_quantile))
            keep = scores > threshold
            if always_keep is not None:
                keep[np.asarray(list(always_keep), dtype=int)] = True
            if not keep.any():
                keep[:] = True
            return keep
        return keep_mask_from_scores(
            scores, always_keep=always_keep, tolerance_ratio=cfg.fr_tolerance
        )

    def _reduce_qppnet(
        self, model: QPPNet, train: Sequence[LabeledPlan]
    ) -> Tuple[Dict[OperatorType, np.ndarray], float, Dict[OperatorType, np.ndarray]]:
        cfg = self.config
        datasets = model.operator_dataset(train, snapshot_set=self.snapshot_set)
        fold_means = {op: data.mean(axis=0) for op, data in datasets.items()}
        masks: Dict[OperatorType, np.ndarray] = {}
        encoder_dim = self.operator_encoder.dim
        cost_weight = np.zeros(1 + model.data_size)
        cost_weight[0] = 1.0
        self._last_scoring_seconds = 0.0
        for op, data in datasets.items():
            unit = model.units[op]
            score_start = time.perf_counter()
            if cfg.reduction == "diff":
                scores = difference_importance(
                    unit,
                    data,
                    n_references=cfg.n_references,
                    output_weights=cost_weight,
                    seed=(cfg.seed, op.value),
                )
            elif cfg.reduction == "gradient":
                scores = gradient_importance(unit, data, output_weights=cost_weight)
            else:
                raise TrainingError(f"unknown reduction {cfg.reduction!r}")
            self._last_scoring_seconds += time.perf_counter() - score_start
            masks[op] = self._keep_mask(scores[:encoder_dim])
        kept = sum(int(m.sum()) for m in masks.values())
        total = encoder_dim * max(len(masks), 1)
        ratio = 1.0 - kept / total if total else 0.0
        return masks, ratio, fold_means

    def _reduce_mscn(
        self, model: MSCN, train: Sequence[LabeledPlan]
    ) -> Tuple[np.ndarray, float, np.ndarray]:
        cfg = self.config
        matrix, global_slice = model.final_input_dataset(
            train, snapshot_set=self.snapshot_set
        )
        fold_mean = matrix.mean(axis=0)
        protected = list(range(global_slice.start))
        score_start = time.perf_counter()
        if cfg.reduction == "diff":
            scores = difference_importance(
                model.out_net,
                matrix,
                n_references=cfg.n_references,
                seed=cfg.seed,
            )
        elif cfg.reduction == "gradient":
            scores = gradient_importance(model.out_net, matrix)
        else:
            raise TrainingError(f"unknown reduction {cfg.reduction!r}")
        self._last_scoring_seconds = time.perf_counter() - score_start
        keep_full = self._keep_mask(scores, always_keep=protected)
        keep_global = keep_full[global_slice]
        ratio = 1.0 - float(keep_global.sum()) / max(len(keep_global), 1)
        return keep_global, ratio, fold_mean

    def _reduce_greedy(
        self, model: CostEstimator, train: Sequence[LabeledPlan]
    ) -> Tuple[np.ndarray, float]:
        """Algorithm 2 on the trained model, scoring every candidate
        keep-mask on one :class:`ZeroedInputs` copy of it."""
        cfg = self.config
        sample = list(train)[: cfg.greedy_sample]
        actual = np.array([r.latency_ms for r in sample])
        scorer = ZeroedInputs(model)

        def evaluate(mask: np.ndarray) -> float:
            predictions = scorer.zeroed(mask).predict_many(
                sample, snapshot_set=self.snapshot_set
            )
            return float(numpy_q_error(predictions, actual).mean())

        keep, _ = greedy_reduction(
            evaluate, scorer.dim, max_rounds=cfg.greedy_max_rounds
        )
        return keep, 1.0 - float(keep.sum()) / scorer.dim

    # ------------------------------------------------------------------
    # end-to-end fit
    # ------------------------------------------------------------------
    def fit(self, train: Sequence[LabeledPlan]) -> QCFEResult:
        cfg = self.config
        self.snapshot_set, snapshot_seconds = self.fit_snapshot()
        base_stats = self.estimator.fit(train, snapshot_set=self.snapshot_set)

        masks: Dict[OperatorType, np.ndarray] = {}
        global_mask: Optional[np.ndarray] = None
        ratio = 0.0
        reduction_seconds = 0.0
        final_stats = base_stats
        # Warm-starting the reduced model (fold dropped dims into the
        # first-layer bias) is function-preserving ONLY when the
        # dropped dimensions are constant over the data — which is what
        # FR's exact-zero rule and greedy's q-error search select.  GD
        # also drops genuinely varying dimensions (its failure mode),
        # for which no sound warm start exists, so it retrains cold.
        warm = cfg.reduction in ("diff", "greedy")
        if cfg.reduction is not None:
            start = time.perf_counter()
            self._last_scoring_seconds = 0.0
            if isinstance(self.estimator, QPPNet):
                if cfg.reduction == "greedy":
                    keep, ratio = self._reduce_greedy(self.estimator, train)
                    datasets = self.estimator.operator_dataset(
                        train, snapshot_set=self.snapshot_set
                    )
                    masks = {op: keep.copy() for op in datasets}
                    fold_means = {
                        op: data.mean(axis=0) for op, data in datasets.items()
                    }
                else:
                    masks, ratio, fold_means = self._reduce_qppnet(
                        self.estimator, train
                    )
                reduction_seconds = time.perf_counter() - start
                self.estimator.set_masks(
                    masks, fold_means=fold_means if warm else None
                )
            else:
                mscn = self.estimator
                if cfg.reduction == "greedy":
                    global_mask, ratio = self._reduce_greedy(mscn, train)
                    matrix, _ = mscn.final_input_dataset(  # type: ignore[union-attr]
                        train, snapshot_set=self.snapshot_set
                    )
                    fold_mean = matrix.mean(axis=0)
                else:
                    global_mask, ratio, fold_mean = self._reduce_mscn(mscn, train)  # type: ignore[arg-type]
                reduction_seconds = time.perf_counter() - start
                mscn.set_global_mask(  # type: ignore[union-attr]
                    global_mask, fold_mean=fold_mean if warm else None
                )
            final_stats = self.estimator.fit(train, snapshot_set=self.snapshot_set)

        self.result = QCFEResult(
            train_stats=final_stats,
            base_train_stats=base_stats if cfg.reduction is not None else None,
            snapshot_seconds=snapshot_seconds,
            reduction_seconds=reduction_seconds,
            scoring_seconds=self._last_scoring_seconds,
            masks=masks,
            global_mask=global_mask,
            reduction_ratio=ratio,
        )
        return self.result

    def predict_many(self, labeled: Sequence[LabeledPlan]) -> np.ndarray:
        return self.estimator.predict_many(labeled, snapshot_set=self.snapshot_set)

    def export_bundle(self, name: Optional[str] = None):
        """Package the fitted pipeline as a deployable
        :class:`repro.serving.EstimatorBundle` for the serving layer.

        The bundle carries everything an online ``estimate()`` needs:
        the (reduced, retrained) estimator, which holds its keep-masks,
        the snapshot set it was trained with and the benchmark whose
        catalog parses/plans incoming SQL.
        """
        # Local import: serving sits above core in the layer stack.
        from ..serving.registry import EstimatorBundle

        result = self.result
        cfg = self.config
        return EstimatorBundle(
            name=name or f"{self.benchmark.name}:{cfg.model}",
            estimator=self.estimator,
            benchmark=self.benchmark,
            snapshot_set=self.snapshot_set,
            metadata={
                "model": cfg.model,
                "snapshot_source": cfg.snapshot_source,
                "reduction": cfg.reduction,
                "reduction_ratio": result.reduction_ratio if result else 0.0,
                "trained": result is not None,
            },
        )

    def evaluate(self, test: Sequence[LabeledPlan]) -> EvaluationReport:
        train_seconds = (
            self.result.train_stats.train_seconds if self.result is not None else 0.0
        )
        return evaluate_estimator(
            self.estimator, test, snapshot_set=self.snapshot_set,
            train_seconds=train_seconds,
        )
