"""Phase probe of ``QCFE.fit``: where a ``tpch-train`` fit spends its time.

Builds the ``tpch-train`` inputs (TPC-H, 8 knob environments from
``random_environments(8, seed=5)``, 320 labelled plans at seed 11,
QPPNet with difference-propagation reduction, 8 epochs, template scale
8) once, then runs ``QCFE.fit`` on them repeatedly, each on a fresh
pipeline after a ``gc.collect()``.  Every fit is split into its phases
from the returned ``QCFEResult``:

- ``snapshot``: fitting the per-environment feature snapshots;
- ``fit1``: the first estimator fit;
- ``fr``: feature reduction by difference propagation;
- ``fit2``: the warm-started retrain of the reduced model;
- ``other``: the rest of the wall time.

Every fit must give the same held-out predictions as the first, or the
probe fails.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/probe_fit.py [--repeats N]

It prints one row per fit (seconds per phase), a ``median`` row and a
``share`` row (each phase's median over the median wall).  Only the
public API is used, so the same file runs against any earlier
checkout.  For a before/after comparison run the two checkouts in
turn, one ``--repeats 1`` process each, several times over: the host's
speed drifts between runs.
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

PHASES = ("snapshot", "fit1", "fr", "fit2", "other")


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="fits timed")
    parser.add_argument("--plans", type=int, default=320, help="training plans")
    parser.add_argument("--heldout", type=int, default=64, help="held-out plans checked")
    parser.add_argument("--envs", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--template-scale", type=int, default=8)
    parser.add_argument("--json", action="store_true", help="print the rows as JSON too")
    return parser.parse_args(argv)


def fit_phases(pipeline: QCFE, train: list) -> Dict[str, float]:
    """One ``QCFE.fit``: wall seconds and seconds per phase."""
    began = time.perf_counter()
    result = pipeline.fit(train)
    wall = time.perf_counter() - began
    base = result.base_train_stats
    row = {
        "wall": wall,
        "snapshot": result.snapshot_seconds,
        "fit1": base.train_seconds if base is not None else 0.0,
        "fr": result.reduction_seconds,
        "fit2": result.train_stats.train_seconds,
    }
    row["other"] = wall - sum(row[phase] for phase in PHASES[:-1])
    return row


def probe(args: argparse.Namespace) -> List[Dict[str, float]]:
    """Time *args.repeats* fits; returns one row per fit."""
    benchmark = get_benchmark("tpch")
    envs = random_environments(args.envs, seed=5)
    train = collect_labeled_plans(benchmark, envs, args.plans, seed=11)
    heldout = collect_labeled_plans(benchmark, envs, args.heldout, seed=13)
    config = QCFEConfig(
        model="qppnet",
        epochs=args.epochs,
        template_scale=args.template_scale,
        reduction="diff",
    )
    rows: List[Dict[str, float]] = []
    reference = None
    for repeat in range(args.repeats):
        pipeline = QCFE(benchmark, envs, config)
        gc.collect()
        row = fit_phases(pipeline, train)
        predictions = pipeline.predict_many(heldout)
        if reference is None:
            reference = predictions
        elif not np.array_equal(predictions, reference):
            raise AssertionError(f"fit {repeat} predicts differently from fit 0")
        rows.append(row)
    return rows


def summary(rows: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """The ``median`` row and the ``share`` row of *rows*."""
    median = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    share = {key: median[key] / median["wall"] for key in median}
    return [median, share]


def main(argv: Sequence[str] = ()) -> List[Dict[str, float]]:
    """Run the probe and print its table; returns the per-fit rows."""
    args = _parse(list(argv))
    rows = probe(args)
    keys = ("wall", *PHASES)
    print(f"{'fit':<7}" + "".join(f"{key:>10}" for key in keys))
    labels = [str(i) for i in range(len(rows))] + ["median", "share"]
    for label, row in zip(labels, rows + summary(rows), strict=True):
        print(f"{label:<7}" + "".join(f"{row[key]:>10.3f}" for key in keys))
    if args.json:
        print(json.dumps(rows))
    return rows


if __name__ == "__main__":
    main(sys.argv[1:])
