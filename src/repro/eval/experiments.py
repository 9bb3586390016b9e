"""One experiment function per table/figure of the paper (Section V).

Each function regenerates the corresponding result at a configurable
(reduced) scale and returns plain data structures that the benchmark
harness prints in the paper's row/series format.  See EXPERIMENTS.md
for measured-vs-paper values and DESIGN.md for the experiment index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pipeline import QCFE, QCFEConfig
from ..core.snapshot import SnapshotSet, fit_snapshot_from_queries
from ..core.templates import generate_simplified_queries
from ..engine.environment import DatabaseEnvironment, random_environments
from ..engine.executor import ExecutionSimulator, LabeledPlan
from ..models.postgres import PostgresCostEstimator
from ..models.qppnet import QPPNet
from ..models.training import evaluate_estimator, train_test_split
from ..nn.loss import numpy_q_error
from ..workload.collect import collect_labeled_plans
from .harness import (
    ExperimentContext,
    SHARED_CONTEXT,
    default_env_count,
    default_epochs,
    default_scale,
)
from .metrics import QErrorSummary, summarize_q_errors

MODEL_NAMES = ("PGSQL", "QCFE(mscn)", "QCFE(qpp)", "MSCN", "QPPNet", "QPPNet(2x)")


# ----------------------------------------------------------------------
# Figure 1: average query cost across database environments
# ----------------------------------------------------------------------
def figure1(
    context: Optional[ExperimentContext] = None,
    n_environments: int = 5,
    n_queries: int = 100,
) -> Dict[str, Dict[str, float]]:
    """Average query cost (ms) per environment on TPCH and Sysbench.

    Paper Figure 1: the same workload costs 2-3x more under some knob
    configurations than others.
    """
    context = context or SHARED_CONTEXT
    result: Dict[str, Dict[str, float]] = {}
    for name in ("tpch", "sysbench"):
        bench = context.benchmark(name)
        queries = [q for _, q in bench.generate_queries(n_queries, seed=11)]
        per_env: Dict[str, float] = {}
        for env in context.environments(n_environments):
            simulator = ExecutionSimulator(bench.catalog, bench.stats, env)
            latencies = [simulator.run_query(q).latency_ms for q in queries]
            per_env[env.knobs.name] = float(np.mean(latencies))
        result[name] = per_env
    return result


# ----------------------------------------------------------------------
# Table IV + Figure 5: time-accuracy across scales
# ----------------------------------------------------------------------
@dataclass
class ModelRow:
    """One (benchmark, model, scale) cell of Table IV."""

    benchmark: str
    model: str
    scale: int
    pearson: float
    mean_q_error: float
    train_seconds: float
    q_summary: QErrorSummary


def _fit_eval_qcfe(
    context: ExperimentContext,
    benchmark_name: str,
    model: str,
    labeled: Sequence[LabeledPlan],
    epochs: int,
    use_qcfe: bool,
    seed: int = 0,
) -> Tuple[float, float, float, QErrorSummary]:
    bench = context.benchmark(benchmark_name)
    envs = context.environments()
    config = QCFEConfig(
        model=model,
        snapshot_source="template" if use_qcfe else None,
        reduction="diff" if use_qcfe else None,
        epochs=epochs,
        seed=seed,
    )
    pipeline = QCFE(bench, envs, config)
    train, test = train_test_split(list(labeled), seed=seed)
    began = time.perf_counter()
    pipeline.fit(train)
    seconds = time.perf_counter() - began
    report = pipeline.evaluate(test)
    predictions = pipeline.predict_many(test)
    summary = summarize_q_errors(
        predictions, [r.latency_ms for r in test]
    )
    return report.pearson, report.mean_q_error, seconds, summary


def _fit_eval_postgres(
    labeled: Sequence[LabeledPlan], seed: int = 0
) -> Tuple[float, float, float, QErrorSummary]:
    train, test = train_test_split(list(labeled), seed=seed)
    estimator = PostgresCostEstimator()
    stats = estimator.fit(train)
    report = evaluate_estimator(estimator, test, train_seconds=stats.train_seconds)
    predictions = estimator.predict_many(test)
    summary = summarize_q_errors(predictions, [r.latency_ms for r in test])
    return report.pearson, report.mean_q_error, stats.train_seconds, summary


def table4(
    context: Optional[ExperimentContext] = None,
    benchmarks: Sequence[str] = ("tpch", "sysbench", "joblight"),
    scales: Optional[Sequence[int]] = None,
    epochs: Optional[int] = None,
) -> List[ModelRow]:
    """Time-accuracy of the five methods across labelled-set scales.

    Paper Table IV (scales 2000..10000 there; scaled down here).  A
    learned model's time is its whole ``QCFE.fit``: for a QCFE row the
    snapshot, the first fit, the reduction scoring and the retrain.
    QCFE trains twice, so the extra ``QPPNet(2x)`` row trains the base
    model for twice the epochs: QCFE(qpp)'s optimizer step count.
    """
    context = context or SHARED_CONTEXT
    base = default_scale()
    scales = list(scales or (base // 2, base))
    epochs = epochs or default_epochs()
    rows: List[ModelRow] = []
    for benchmark_name in benchmarks:
        for scale in scales:
            labeled = context.labeled(benchmark_name, total=scale)
            pearson, mean_q, seconds, summary = _fit_eval_postgres(labeled)
            rows.append(
                ModelRow(benchmark_name, "PGSQL", scale, pearson, mean_q, seconds, summary)
            )
            for model, use_qcfe, label, model_epochs in (
                ("mscn", True, "QCFE(mscn)", epochs),
                ("qppnet", True, "QCFE(qpp)", epochs),
                ("mscn", False, "MSCN", epochs),
                ("qppnet", False, "QPPNet", epochs),
                ("qppnet", False, "QPPNet(2x)", 2 * epochs),
            ):
                pearson, mean_q, seconds, summary = _fit_eval_qcfe(
                    context, benchmark_name, model, labeled, model_epochs, use_qcfe
                )
                rows.append(
                    ModelRow(benchmark_name, label, scale, pearson, mean_q, seconds, summary)
                )
    return rows


def figure5(
    context: Optional[ExperimentContext] = None,
    benchmarks: Sequence[str] = ("tpch", "sysbench", "joblight"),
    scales: Optional[Sequence[int]] = None,
    epochs: Optional[int] = None,
) -> Dict[Tuple[str, str, int], Dict[str, float]]:
    """Q-error quantile boxes (25/50/75), paper Figure 5.

    Shares all computation with Table IV: the returned mapping has a
    (benchmark, model, scale) key per box.
    """
    rows = table4(context, benchmarks=benchmarks, scales=scales, epochs=epochs)
    return {
        (row.benchmark, row.model, row.scale): row.q_summary.quantile_box()
        for row in rows
        if row.model != "PGSQL"
    }


# ----------------------------------------------------------------------
# Figure 6 + Figure 7: ablation of snapshot sources and reducers
# ----------------------------------------------------------------------
ABLATION_VARIANTS = ("FSO", "FST", "FSO+FR", "FSO+GD", "FSO+Greedy")


def _ablation_config(variant: str, epochs: int, seed: int) -> QCFEConfig:
    source = "template" if variant == "FST" else "original"
    reduction = {
        "FSO": None,
        "FST": None,
        "FSO+FR": "diff",
        "FSO+GD": "gradient",
        "FSO+Greedy": "greedy",
    }[variant]
    return QCFEConfig(
        model="qppnet",
        snapshot_source=source,
        reduction=reduction,
        epochs=epochs,
        seed=seed,
    )


def figure6(
    context: Optional[ExperimentContext] = None,
    benchmarks: Sequence[str] = ("tpch", "sysbench", "joblight"),
    epochs: Optional[int] = None,
    seed: int = 0,
) -> Dict[Tuple[str, str], QErrorSummary]:
    """Ablation of QCFE design choices on QPPNet (paper Figure 6)."""
    context = context or SHARED_CONTEXT
    epochs = epochs or default_epochs()
    results: Dict[Tuple[str, str], QErrorSummary] = {}
    for benchmark_name in benchmarks:
        bench = context.benchmark(benchmark_name)
        envs = context.environments()
        labeled = context.labeled(benchmark_name)
        train, test = train_test_split(labeled, seed=seed)
        for variant in ABLATION_VARIANTS:
            pipeline = QCFE(bench, envs, _ablation_config(variant, epochs, seed))
            pipeline.fit(train)
            predictions = pipeline.predict_many(test)
            results[(benchmark_name, variant)] = summarize_q_errors(
                predictions, [r.latency_ms for r in test]
            )
    return results


@dataclass
class ReductionCounts:
    """Per-operator feature counts for one reducer (paper Figure 7)."""

    method: str
    total_features: int
    kept: Dict[str, int] = field(default_factory=dict)

    @property
    def reduction_ratio(self) -> float:
        if not self.kept:
            return 0.0
        kept_total = sum(self.kept.values())
        return 1.0 - kept_total / (self.total_features * len(self.kept))


def figure7(
    context: Optional[ExperimentContext] = None,
    benchmark_name: str = "tpch",
    epochs: Optional[int] = None,
    seed: int = 0,
) -> List[ReductionCounts]:
    """Features kept per operator by Greedy / GD / FR on TPCH."""
    context = context or SHARED_CONTEXT
    epochs = epochs or default_epochs()
    bench = context.benchmark(benchmark_name)
    envs = context.environments()
    labeled = context.labeled(benchmark_name)
    train, _ = train_test_split(labeled, seed=seed)
    counts: List[ReductionCounts] = []
    for method, reduction in (("Greedy", "greedy"), ("GD", "gradient"), ("FR", "diff")):
        config = QCFEConfig(
            model="qppnet",
            snapshot_source="original",
            reduction=reduction,
            epochs=epochs,
            seed=seed,
        )
        pipeline = QCFE(bench, envs, config)
        result = pipeline.fit(train)
        entry = ReductionCounts(
            method=method, total_features=pipeline.operator_encoder.dim
        )
        for op, mask in result.masks.items():
            entry.kept[op.value] = int(np.asarray(mask).sum())
        counts.append(entry)
    return counts


# ----------------------------------------------------------------------
# Table V: robustness of the template scale
# ----------------------------------------------------------------------
@dataclass
class TemplateScaleRow:
    """One column of Table V: q-error + collection cost at a scale."""

    benchmark: str
    label: str  # "FSO" or "scale=N"
    mean_q_error: float
    collection_ms: float


def table5(
    context: Optional[ExperimentContext] = None,
    benchmarks: Sequence[str] = ("tpch", "joblight"),
    scales: Sequence[int] = (2, 4, 6, 8),
    epochs: Optional[int] = None,
    seed: int = 0,
) -> List[TemplateScaleRow]:
    """FSO vs FST at several template scales (paper Table V).

    Collection cost is the *simulated* execution time of the labelling
    queries, the quantity the paper reports in hours.
    """
    context = context or SHARED_CONTEXT
    epochs = epochs or default_epochs()
    rows: List[TemplateScaleRow] = []
    for benchmark_name in benchmarks:
        bench = context.benchmark(benchmark_name)
        envs = context.environments()
        labeled = context.labeled(benchmark_name)
        train, test = train_test_split(labeled, seed=seed)
        # FSO labels the full original workload per environment, as in
        # the paper (the entire parameter sweep of every template).
        fso_budget = 10 * len(bench.template_texts)
        variants: List[Tuple[str, QCFEConfig]] = [
            (
                "FSO",
                QCFEConfig(
                    model="qppnet", snapshot_source="original", reduction=None,
                    snapshot_queries_per_env=fso_budget, epochs=epochs, seed=seed,
                ),
            )
        ]
        for scale in scales:
            variants.append(
                (
                    f"scale={scale}",
                    QCFEConfig(
                        model="qppnet", snapshot_source="template", reduction=None,
                        template_scale=scale, epochs=epochs, seed=seed,
                    ),
                )
            )
        for label, config in variants:
            pipeline = QCFE(bench, envs, config)
            pipeline.fit(train)
            predictions = pipeline.predict_many(test)
            summary = summarize_q_errors(predictions, [r.latency_ms for r in test])
            assert pipeline.snapshot_set is not None
            rows.append(
                TemplateScaleRow(
                    benchmark=benchmark_name,
                    label=label,
                    mean_q_error=summary.mean,
                    collection_ms=pipeline.snapshot_set.total_collection_ms,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Table VI: robustness of the reference count
# ----------------------------------------------------------------------
@dataclass
class ReferenceCountRow:
    """One row of Table VI."""

    n_references: int
    mean_q_error: float
    q95: float
    q90: float
    fr_runtime_seconds: float
    reduction_ratio: float


def table6(
    context: Optional[ExperimentContext] = None,
    benchmark_name: str = "tpch",
    reference_counts: Sequence[int] = (4, 8, 16, 32, 64),
    epochs: Optional[int] = None,
    seed: int = 0,
) -> List[ReferenceCountRow]:
    """FR robustness to the reference-set size (paper Table VI).

    The paper sweeps 200..500 references over 2000 labelled queries;
    the counts here scale with the reduced default dataset.
    """
    context = context or SHARED_CONTEXT
    epochs = epochs or default_epochs()
    bench = context.benchmark(benchmark_name)
    envs = context.environments()
    labeled = context.labeled(benchmark_name)
    train, test = train_test_split(labeled, seed=seed)
    rows: List[ReferenceCountRow] = []
    for n_references in reference_counts:
        config = QCFEConfig(
            model="qppnet",
            snapshot_source="template",
            reduction="diff",
            n_references=n_references,
            epochs=epochs,
            seed=seed,
        )
        pipeline = QCFE(bench, envs, config)
        result = pipeline.fit(train)
        predictions = pipeline.predict_many(test)
        summary = summarize_q_errors(predictions, [r.latency_ms for r in test])
        rows.append(
            ReferenceCountRow(
                n_references=n_references,
                mean_q_error=summary.mean,
                q95=summary.percentiles[95],
                q90=summary.percentiles[90],
                fr_runtime_seconds=result.scoring_seconds,
                reduction_ratio=result.reduction_ratio,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table VII + Figure 8: transferability of the feature snapshot
# ----------------------------------------------------------------------
@dataclass
class TransferRow:
    """One cell of Table VII."""

    benchmark: str
    model: str  # "basis" | "direct" | "trans-FSO" | "trans-FST"
    pearson: float
    mean_q_error: float
    train_seconds: float


def _transfer_snapshot_set(
    bench,
    envs_h1: Sequence[DatabaseEnvironment],
    envs_h2: Sequence[DatabaseEnvironment],
    source: str,
    template_scale: int,
    seed: int,
) -> SnapshotSet:
    """Snapshots for the union of environments, so normalisation is
    consistent between basis training and transfer retraining."""
    snapshots = []
    for index, env in enumerate([*envs_h1, *envs_h2]):
        simulator = ExecutionSimulator(bench.catalog, bench.stats, env)
        if source == "template":
            queries = generate_simplified_queries(
                bench.template_texts, bench.catalog, bench.abstract,
                scale=template_scale, seed=seed + index,
            )
        else:
            queries = [
                q for _, q in bench.generate_queries(24, seed=2000 + seed + index)
            ]
        snapshots.append(fit_snapshot_from_queries(queries, simulator, source=source))
    return SnapshotSet(snapshots)


def table7(
    context: Optional[ExperimentContext] = None,
    benchmarks: Sequence[str] = ("tpch", "joblight"),
    epochs: Optional[int] = None,
    retrain_epochs: Optional[int] = None,
    seed: int = 0,
) -> List[TransferRow]:
    """Transfer a trained model to new hardware h2 (paper Table VII).

    The basis model trains on h1 environments.  Transfer variants swap
    in an h2-fitted snapshot (FSO or FST) and briefly retrain on a
    small h2 labelled set; "direct" trains from scratch on that set.
    """
    context = context or SHARED_CONTEXT
    epochs = epochs or default_epochs()
    retrain_epochs = retrain_epochs or max(2, epochs // 4)
    rows: List[TransferRow] = []
    for benchmark_name in benchmarks:
        bench = context.benchmark(benchmark_name)
        envs_h1 = context.environments(hardware="h1_r7_7735hs")
        envs_h2 = random_environments(
            max(2, default_env_count() // 2), seed=99, hardware="h2_i7_12700h"
        )
        labeled_h1 = context.labeled(benchmark_name, hardware="h1_r7_7735hs")
        h2_total = max(len(labeled_h1) // 2, 80)
        labeled_h2 = collect_labeled_plans(bench, envs_h2, h2_total, seed=7)
        train_h2, test_h2 = train_test_split(labeled_h2, seed=seed)

        for source in ("original", "template"):
            snapshot_set = _transfer_snapshot_set(
                bench, envs_h1, envs_h2, source, template_scale=8, seed=seed
            )
            encoder_pipeline = QCFE(
                bench,
                envs_h1,
                QCFEConfig(
                    model="qppnet", snapshot_source=None, reduction=None,
                    epochs=epochs, seed=seed,
                ),
            )
            basis = encoder_pipeline.estimator
            basis_stats = basis.fit(labeled_h1, snapshot_set=snapshot_set)
            if source == "original":
                report = evaluate_estimator(
                    basis, test_h2, snapshot_set=snapshot_set,
                    train_seconds=basis_stats.train_seconds,
                )
                rows.append(
                    TransferRow(
                        benchmark_name, "basis", report.pearson,
                        report.mean_q_error, basis_stats.train_seconds,
                    )
                )
                direct = QCFE(
                    bench,
                    envs_h2,
                    QCFEConfig(
                        model="qppnet", snapshot_source=None, reduction=None,
                        epochs=epochs, seed=seed,
                    ),
                ).estimator
                direct_stats = direct.fit(train_h2)
                report = evaluate_estimator(
                    direct, test_h2, train_seconds=direct_stats.train_seconds
                )
                rows.append(
                    TransferRow(
                        benchmark_name, "direct", report.pearson,
                        report.mean_q_error, direct_stats.train_seconds,
                    )
                )
            # transfer: keep basis weights, retrain briefly on h2 labels.
            basis.epochs = retrain_epochs
            retrain_stats = basis.fit(train_h2, snapshot_set=snapshot_set)
            basis.epochs = epochs
            report = evaluate_estimator(
                basis, test_h2, snapshot_set=snapshot_set,
                train_seconds=retrain_stats.train_seconds,
            )
            label = "trans-FSO" if source == "original" else "trans-FST"
            rows.append(
                TransferRow(
                    benchmark_name, label, report.pearson,
                    report.mean_q_error, retrain_stats.train_seconds,
                )
            )
    return rows


def figure8(
    context: Optional[ExperimentContext] = None,
    benchmark_name: str = "tpch",
    epochs: Optional[int] = None,
    checkpoint_every: int = 2,
    seed: int = 0,
) -> Dict[str, List[Tuple[int, float]]]:
    """Convergence of direct vs transferred training (paper Figure 8).

    Returns per-variant lists of (cumulative epochs, mean q-error on
    the h2 test set); the transferred model should reach the direct
    model's accuracy in a fraction of the iterations.
    """
    context = context or SHARED_CONTEXT
    epochs = epochs or default_epochs()
    bench = context.benchmark(benchmark_name)
    envs_h1 = context.environments(hardware="h1_r7_7735hs")
    envs_h2 = random_environments(
        max(2, default_env_count() // 2), seed=99, hardware="h2_i7_12700h"
    )
    labeled_h1 = context.labeled(benchmark_name, hardware="h1_r7_7735hs")
    labeled_h2 = collect_labeled_plans(
        bench, envs_h2, max(len(labeled_h1) // 2, 80), seed=7
    )
    train_h2, test_h2 = train_test_split(labeled_h2, seed=seed)
    snapshot_set = _transfer_snapshot_set(
        bench, envs_h1, envs_h2, "template", template_scale=8, seed=seed
    )

    def curve(model: QPPNet, train, snap) -> List[Tuple[int, float]]:
        points: List[Tuple[int, float]] = []
        total = 0
        original_epochs = model.epochs
        while total < epochs:
            step = min(checkpoint_every, epochs - total)
            model.epochs = step
            model.fit(train, snapshot_set=snap)
            total += step
            predictions = model.predict_many(test_h2, snapshot_set=snap)
            q = float(
                numpy_q_error(
                    predictions, np.array([r.latency_ms for r in test_h2])
                ).mean()
            )
            points.append((total, q))
        model.epochs = original_epochs
        return points

    direct = QCFE(
        bench, envs_h2,
        QCFEConfig(model="qppnet", snapshot_source=None, reduction=None,
                   epochs=epochs, seed=seed),
    ).estimator
    direct_curve = curve(direct, train_h2, None)

    transferred = QCFE(
        bench, envs_h1,
        QCFEConfig(model="qppnet", snapshot_source=None, reduction=None,
                   epochs=epochs, seed=seed),
    ).estimator
    transferred.fit(labeled_h1, snapshot_set=snapshot_set)  # basis training
    transfer_curve = curve(transferred, train_h2, snapshot_set)

    return {"direct": direct_curve, "transfer": transfer_curve}
