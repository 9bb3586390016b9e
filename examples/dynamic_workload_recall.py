"""Dynamic workloads: recalling pruned features when the workload drifts.

Implements the scenario from the paper's Section IV discussion: feature
reduction tuned on one workload prunes dimensions that later regain
value when the workload changes (their example: index features pruned
under a write-only workload become important once reads appear).

We emulate it with Sysbench: reduce features on a *point-select-only*
workload — where cardinality/cost dimensions are constant (every lookup
matches one row) and get pruned — then stream range queries through
:class:`FeatureRecall` and watch those dimensions get flagged for
re-inclusion.

Run:  python examples/dynamic_workload_recall.py
"""

from __future__ import annotations

import numpy as np

from repro.core import QCFE, QCFEConfig, FeatureRecall, collect_baselines
from repro.engine import ExecutionSimulator
from repro.models import train_test_split
from repro.workload import get_benchmark, standard_environments
from repro.workload.sysbench_oltp import sysbench_queries


def labeled_subset(benchmark, environments, shapes, total, seed):
    """Collect labels restricted to the given sysbench query shapes."""
    from repro.engine.executor import LabeledPlan

    per_env = max(1, total // len(environments))
    labeled = []
    for env_index, env in enumerate(environments):
        simulator = ExecutionSimulator(benchmark.catalog, benchmark.stats, env)
        pool = sysbench_queries(benchmark.catalog, per_env * 4, seed=seed + env_index)
        picked = [(n, q) for n, q in pool if n in shapes][:per_env]
        for name, query in picked:
            result = simulator.run_query(query)
            labeled.append(
                LabeledPlan(
                    plan=result.plan, latency_ms=result.latency_ms,
                    env_name=env.name, query_sql=query.sql(), template=name,
                )
            )
    return labeled


def main() -> None:
    benchmark = get_benchmark("sysbench")
    environments = standard_environments(4, seed=0)

    print("Phase 1: reduce features on a point-select-only workload ...")
    point_only = labeled_subset(benchmark, environments, {"point_select"}, 240, seed=1)
    train, _ = train_test_split(point_only, seed=0)
    pipeline = QCFE(
        benchmark, environments,
        QCFEConfig(model="qppnet", snapshot_source="template",
                   reduction="diff", epochs=8),
    )
    result = pipeline.fit(train)
    print(f"  reduction pruned {result.reduction_ratio:.0%} of dimensions")

    # Baseline feature means from the reduction-time workload, so the
    # recall can also detect mean shifts (a pruned dim constant at a
    # NEW value, like est_rows jumping from 1 to 100).
    baselines = collect_baselines(pipeline.operator_encoder, train)
    recall = FeatureRecall(
        pipeline.estimator.keep_masks(),
        pipeline.operator_encoder.feature_names,
        baselines=baselines,
    )

    print("\nPhase 2: workload drifts to range queries ...")
    range_shapes = {"simple_range", "sum_range", "order_range", "distinct_range"}
    range_labeled = labeled_subset(benchmark, environments, range_shapes, 120, seed=9)
    model = pipeline.estimator
    flagged_names = []
    for record in range_labeled:
        for node in record.plan.walk():
            row = pipeline.operator_encoder.encode_node(node)
            flagged_names.extend(recall.observe(node.op, row.reshape(1, -1)))
    print(f"  recall flagged {recall.total_flagged} pruned dimensions, e.g.:")
    for name in sorted(set(flagged_names))[:8]:
        print(f"    {name}")

    print("\nPhase 3: re-install recalled masks and warm-retrain ...")
    # Recall only ADDS dimensions, whose new first-layer rows start at
    # zero, so the warm-started model begins at the reduced one.
    mixed = point_only[: len(point_only) // 2] + range_labeled
    model.warm_retrain(
        mixed,
        masks=recall.recall_masks(),
        snapshot_set=pipeline.snapshot_set,
        epochs=6,
    )
    predictions = model.predict_many(range_labeled, snapshot_set=pipeline.snapshot_set)
    actual = np.array([r.latency_ms for r in range_labeled])
    from repro.nn import numpy_q_error

    print(f"  range-query mean q-error after recall: "
          f"{numpy_q_error(predictions, actual).mean():.3f}")


if __name__ == "__main__":
    main()
