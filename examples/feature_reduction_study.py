"""Feature-reduction study: what each reducer keeps and what it costs.

Trains a QPPNet with feature snapshots on job-light, then applies the
three reducers the paper compares — difference propagation (FR),
gradient importance (GD) and the greedy q-error search (Algorithm 2) —
and prints which feature blocks survive for the busiest operators,
plus the accuracy of the retrained reduced models.

Run:  python examples/feature_reduction_study.py
"""

from __future__ import annotations

import numpy as np

from repro.core import QCFE, QCFEConfig
from repro.models import train_test_split
from repro.workload import collect_labeled_plans, get_benchmark, standard_environments

BLOCKS = ("op", "table", "column", "index", "numeric", "snapshot")


def describe_mask(pipeline: QCFE, mask: np.ndarray) -> str:
    encoder = pipeline.operator_encoder
    parts = []
    for block in BLOCKS:
        block_slice = encoder.block_slice(block)
        kept = int(mask[block_slice].sum())
        total = block_slice.stop - block_slice.start
        parts.append(f"{block} {kept}/{total}")
    return ", ".join(parts)


def main() -> None:
    benchmark = get_benchmark("joblight")
    environments = standard_environments(6, seed=0)
    labeled = collect_labeled_plans(benchmark, environments, total=420, seed=1)
    train, test = train_test_split(labeled, seed=0)

    for reduction in ("diff", "gradient", "greedy"):
        config = QCFEConfig(
            model="qppnet",
            snapshot_source="template",
            reduction=reduction,
            epochs=12,
            greedy_max_rounds=2,
            greedy_sample=64,
        )
        pipeline = QCFE(benchmark, environments, config)
        result = pipeline.fit(train)
        report = pipeline.evaluate(test)
        print(f"=== {reduction}: pruned {result.reduction_ratio:.0%} of dims, "
              f"mean q-error {report.mean_q_error:.3f}, "
              f"reduction took {result.reduction_seconds:.1f}s ===")
        masks = pipeline.estimator.keep_masks()
        for op, mask in sorted(masks.items(), key=lambda kv: kv[0].value)[:4]:
            print(f"  {op.value:12s} keeps {describe_mask(pipeline, mask)}")
        print()


if __name__ == "__main__":
    main()
