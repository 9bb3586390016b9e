"""The QCFE pipeline (paper Figure 2a): snapshot -> encode -> reduce.

End-to-end orchestration of the paper's feature engineering around a
base learned estimator:

1. **Feature snapshot** — fit per-environment operator coefficients,
   either from original workload queries (FSO) or from Algorithm 1's
   simplified templates (FST);
2. **Train** the base estimator (QPPNet or MSCN) with the snapshot
   block appended to its operator features;
3. **Feature reduction** — score the input dimensions of each network
   the trained estimator names in its reduction sets (difference
   propagation by default; greedy / gradient baselines for the
   ablation), install the keep-masks and retrain the smaller model.

The retrained reduced model is what QCFE(qpp)/QCFE(mscn) report in
Table IV.  Table IV's "time" column is the whole :meth:`QCFE.fit`:
snapshots, both trainings and the reduction.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.environment import DatabaseEnvironment
from ..engine.executor import ExecutionSimulator, LabeledPlan
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
    #: Share of the reducible input dims the keep-masks drop; the masks
    #: themselves are ``QCFE.estimator.keep_masks()``.
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

    def _greedy_keep(self, train: Sequence[LabeledPlan]) -> np.ndarray:
        """Algorithm 2 on the trained estimator, scoring every candidate
        keep-mask on one :class:`ZeroedInputs` copy of it."""
        cfg = self.config
        sample = list(train)[: cfg.greedy_sample]
        actual = np.array([r.latency_ms for r in sample])
        scorer = ZeroedInputs(self.estimator)

        def evaluate(mask: np.ndarray) -> float:
            """Mean q-error on the sample with the dims *mask* drops zeroed."""
            predictions = scorer.zeroed(mask).predict_many(
                sample, snapshot_set=self.snapshot_set
            )
            return float(numpy_q_error(predictions, actual).mean())

        keep, _ = greedy_reduction(
            evaluate, scorer.dim, max_rounds=cfg.greedy_max_rounds
        )
        return keep

    # ------------------------------------------------------------------
    # end-to-end fit
    # ------------------------------------------------------------------
    def fit(self, train: Sequence[LabeledPlan]) -> QCFEResult:
        """Fit snapshots, train a freshly built estimator on *train*,
        then reduce its features and retrain it (paper Figure 2a).

        Each fit builds its own estimator, so a bundle exported from an
        earlier fit keeps serving what it was exported with.
        """
        cfg = self.config
        if cfg.reduction not in (None, "diff", "gradient", "greedy"):
            raise TrainingError(f"unknown reduction {cfg.reduction!r}")
        self.snapshot_set, snapshot_seconds = self.fit_snapshot()
        self.estimator = self._build_estimator()
        base_stats = self.estimator.fit(train, snapshot_set=self.snapshot_set)
        if cfg.reduction is None:
            self.result = QCFEResult(base_stats, snapshot_seconds=snapshot_seconds)
            return self.result

        start = time.perf_counter()
        scoring_seconds = 0.0
        sets = self.estimator.reduction_sets(train, snapshot_set=self.snapshot_set)
        if cfg.reduction == "greedy":
            keep = self._greedy_keep(train)
            masks = {s.key: keep.copy() for s in sets}
        else:
            masks = {}
            for s in sets:
                score_start = time.perf_counter()
                if cfg.reduction == "diff":
                    scores = difference_importance(
                        s.net,
                        s.data,
                        n_references=cfg.n_references,
                        output_weights=s.output_weights,
                        seed=s.seed,
                    )
                else:
                    scores = gradient_importance(
                        s.net, s.data, output_weights=s.output_weights
                    )
                scoring_seconds += time.perf_counter() - score_start
                keep = self._keep_mask(
                    scores[: s.block.stop], always_keep=range(s.block.start)
                )
                masks[s.key] = keep[s.block]
        kept = sum(int(mask.sum()) for mask in masks.values())
        total = sum(s.block.stop - s.block.start for s in sets)
        # Warm-starting the reduced model (fold dropped dims into the
        # first-layer bias) is function-preserving ONLY when the
        # dropped dimensions are constant over the data — which is what
        # FR's exact-zero rule and greedy's q-error search select.  GD
        # also drops genuinely varying dimensions (its failure mode),
        # for which no sound warm start exists, so it retrains cold.
        fold_means = None
        if cfg.reduction != "gradient":
            fold_means = {s.key: s.data.mean(axis=0) for s in sets}
        reduction_seconds = time.perf_counter() - start
        self.estimator.install_masks(masks, fold_means=fold_means)

        self.result = QCFEResult(
            train_stats=self.estimator.fit(train, snapshot_set=self.snapshot_set),
            base_train_stats=base_stats,
            snapshot_seconds=snapshot_seconds,
            reduction_seconds=reduction_seconds,
            scoring_seconds=scoring_seconds,
            reduction_ratio=1.0 - kept / total if total else 0.0,
        )
        return self.result

    def predict_many(self, labeled: Sequence[LabeledPlan]) -> np.ndarray:
        """Predicted latencies in ms of the fitted estimator."""
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
        """Accuracy of the fitted estimator on *test*; the time is the
        last training's (the retrain, after a reduction)."""
        train_seconds = (
            self.result.train_stats.train_seconds if self.result is not None else 0.0
        )
        return evaluate_estimator(
            self.estimator, test, snapshot_set=self.snapshot_set,
            train_seconds=train_seconds,
        )
