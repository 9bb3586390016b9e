"""Flush-size probe of the fused predict: what one micro-batch costs.

Fits the bundle that ``tpch-plan-async`` serves (TPC-H, 4 knob
environments, QPPNet with difference-propagation reduction), featurizes
the held-out plans once, and times ``predict_prepared_batch`` on flushes
of 1, 4, 16 and 64 plans, and ``prepare_one`` (featurizing and grouping
one plan, what a feature-cache miss pays before the predict) over the
same plans.  Sizes are interleaved inside every repeat, so a drift of
the host's speed reaches all of them alike; each figure is the median
over repeats.  Every flush's output must be bit-identical to predicting
its plans one at a time, or the probe fails.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/probe_predict.py [--repeats N]

It prints one ``prepare_one`` row, then one ``predict`` row per flush
size: microseconds per call, per row (plan), and the number of
(height, operator) groups per call.  Only the public API is used, so
the same file runs against any earlier checkout for a before/after
comparison.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.workload.collect import collect_labeled_plans, get_benchmark


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1,4,16,64", help="comma-separated flush sizes")
    parser.add_argument("--repeats", type=int, default=15, help="interleaved repeats")
    parser.add_argument(
        "--calls", type=int, default=400,
        help="plans predicted per flush size per repeat (at least one flush)",
    )
    parser.add_argument("--bundle-plans", type=int, default=128)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--template-scale", type=int, default=4)
    parser.add_argument("--items", type=int, default=256, help="held-out plans served")
    parser.add_argument("--json", action="store_true", help="print the rows as JSON too")
    return parser.parse_args(argv)


def fit_bundle(args: argparse.Namespace):
    """The ``tpch-plan-async`` bundle and its served plans, featurized."""
    benchmark = get_benchmark("tpch")
    envs = random_environments(4, seed=3)
    labelled = collect_labeled_plans(benchmark, envs, args.bundle_plans, seed=1)
    pipeline = QCFE(
        benchmark,
        envs,
        QCFEConfig(
            model="qppnet",
            epochs=args.epochs,
            template_scale=args.template_scale,
            reduction="diff",
        ),
    )
    pipeline.fit(labelled)
    bundle = pipeline.export_bundle()
    items = collect_labeled_plans(benchmark, envs, args.items, seed=7)
    return bundle, items, [bundle.prepare_one(record) for record in items]


def _groups(prepared: Sequence[object]) -> int:
    """Distinct (height, operator) groups the fused forward runs."""
    return len({key for p in prepared for key in zip(p.levels, p.ops, strict=True)})


def probe(args: argparse.Namespace) -> List[Dict[str, float]]:
    """Time every flush size; returns one row per size."""
    bundle, items, prepared = fit_bundle(args)
    sizes = [int(size) for size in args.sizes.split(",")]
    alone = np.concatenate(
        [bundle.predict_prepared_batch([r], [p]) for r, p in zip(items, prepared, strict=True)]
    )
    # Consecutive flushes walk the items in order, wrapping around.
    flushes: Dict[int, List[List[int]]] = {
        size: [
            [(k * size + j) % len(items) for j in range(size)]
            for k in range(max(1, args.calls // size))
        ]
        for size in sizes
    }
    for size in sizes:
        for flush in flushes[size]:
            got = bundle.predict_prepared_batch(
                [items[i] for i in flush], [prepared[i] for i in flush]
            )
            if not np.array_equal(got, alone[flush]):
                raise AssertionError(f"flush of {size} is not bit-identical to one-plan predicts")
    per_call: Dict[int, List[float]] = {size: [] for size in sizes}
    per_row: Dict[int, List[float]] = {size: [] for size in sizes}
    per_prepare: List[float] = []
    inputs = {
        size: [
            ([items[i] for i in flush], [prepared[i] for i in flush])
            for flush in flushes[size]
        ]
        for size in sizes
    }
    gc.collect()
    gc.disable()
    try:
        for repeat in range(args.repeats):
            # Rotate the order too, so no size always runs first.
            for size in sizes[repeat % len(sizes):] + sizes[:repeat % len(sizes)]:
                rows = sum(len(records) for records, _ in inputs[size])
                began = time.perf_counter()
                for records, values in inputs[size]:
                    bundle.predict_prepared_batch(records, values)
                elapsed = time.perf_counter() - began
                per_call[size].append(elapsed / len(inputs[size]) * 1e6)
                per_row[size].append(elapsed / rows * 1e6)
            began = time.perf_counter()
            for record in items:
                bundle.prepare_one(record)
            per_prepare.append((time.perf_counter() - began) / len(items) * 1e6)
    finally:
        gc.enable()
    prepare_us = statistics.median(per_prepare)
    return [
        {
            "call": "prepare_one",
            "flush": 1,
            "us_per_call": prepare_us,
            "us_per_row": prepare_us,
            "groups": statistics.mean(_groups([p]) for p in prepared),
        }
    ] + [
        {
            "call": "predict",
            "flush": size,
            "us_per_call": statistics.median(per_call[size]),
            "us_per_row": statistics.median(per_row[size]),
            "groups": statistics.mean(
                _groups([prepared[i] for i in flush]) for flush in flushes[size]
            ),
        }
        for size in sizes
    ]


def main(argv: Sequence[str] = ()) -> List[Dict[str, float]]:
    """Run the probe and print its table; returns the rows."""
    args = _parse(list(argv))
    rows = probe(args)
    print(f"{'call':<11} {'flush':>5} {'us/call':>9} {'us/row':>8} {'groups':>7}")
    for row in rows:
        print(
            f"{row['call']:<11} {row['flush']:>5} {row['us_per_call']:>9.1f} "
            f"{row['us_per_row']:>8.1f} {row['groups']:>7.1f}"
        )
    if args.json:
        print(json.dumps(rows))
    return rows


if __name__ == "__main__":
    main(sys.argv[1:])
