"""Drift adaptation under live traffic: detect -> refit -> hot-swap.

Not a paper figure.  A bundle reduced on one workload serves while the
workload drifts, with the adaptation loop's background refit on and an
async hammer running, asserting the serving-layer answer to the
paper's Section IV "dynamic workloads" discussion:

- the adaptation loop recalls at least one pruned dimension, refits
  and promotes a new bundle version;
- the promoted bundle's q-error on the drifted workload beats the
  stale bundle's;
- serving p50 latency during the refit stays within 5x of the p50
  before it (the refit is off the hot path);
- the async hammer and the sampled sync requests finish without
  errors, and the adaptation loop counts none.

Sysbench point-select -> range drift always runs; a TPC-H template-mix
shift runs as a second case without ``--quick``.  The rendered numbers
land in ``benchmarks/results/drift.txt``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
from load import percentile, run_load

from repro.core import QCFE, QCFEConfig, collect_baselines
from repro.engine.environment import random_environments
from repro.nn.loss import numpy_q_error
from repro.serving import AdaptationConfig, CostService, SnapshotStore
from repro.workload.collect import (
    collect_labeled_plans,
    get_benchmark,
    interleave_by_environment,
)

#: With the refit off the hot path p50 must not move; the bound absorbs
#: CI scheduling noise while a refit that blocked request threads
#: (>100x) still fails.
P50_BUDGET = 5.0

_RANGE_SHAPES = {"simple_range", "sum_range", "order_range", "distinct_range"}


def _filters(mode, benchmark):
    """(training filter, drifted filter) over template names."""
    if mode == "sysbench_point_to_range":
        return (lambda name: name == "point_select"), (lambda name: name in _RANGE_SHAPES)
    names = sorted({name for name, _ in benchmark.generate_queries(64, seed=0)})
    head = set(names[: len(names) // 2])
    return (lambda name: name in head), (lambda name: name not in head)


def _drift(mode, sizes):
    """Run one drift case; returns its numbers."""
    benchmark = get_benchmark("sysbench" if mode.startswith("sysbench") else "tpch")
    train_keep, drift_keep = _filters(mode, benchmark)
    envs = random_environments(2, seed=3)
    env_by_name = {env.name: env for env in envs}
    trained = collect_labeled_plans(benchmark, envs, sizes["plans"], seed=1, keep=train_keep)
    pipeline = QCFE(
        benchmark,
        envs,
        QCFEConfig(model="qppnet", epochs=sizes["epochs"], template_scale=4, reduction="diff"),
    )
    pipeline.fit(trained)
    bundle = pipeline.export_bundle()
    bundle.metadata["recall_baselines"] = collect_baselines(pipeline.operator_encoder, trained)
    drifted = interleave_by_environment(
        collect_labeled_plans(benchmark, envs, sizes["plans"], seed=9, keep=drift_keep)
    )
    probe = [(record.plan, env_by_name[record.env_name]) for record in drifted[:32]]

    service = CostService(
        snapshot_store=SnapshotStore(),
        adaptation=AdaptationConfig(
            background=True,
            poll_interval_s=0.01,
            min_refit_records=min(24, len(drifted)),
            refit_epochs=sizes["epochs"],
        ),
    )
    with service:
        name = service.deploy(bundle).name
        stale = service.registry.get(name)
        tenants = [(name, 1.0, probe)]

        def sync(count):
            return run_load(
                lambda _, item: service.estimate(item[0], item[1]), tenants, threads=1, count=count
            )

        counters_before = service.counters()
        sync(32)  # warm-up
        before = sync(96)
        for record in drifted:
            service.record_feedback(record, env_by_name[record.env_name])

        # The async hammer runs while sync latency is sampled until the
        # refit resolves and at least 64 samples are in.
        hammer = {}
        hammer_thread = threading.Thread(
            target=lambda: hammer.setdefault("load", run_load(
                lambda _, item: service.estimate_async(item[0], item[1]).result(timeout=30.0),
                tenants, threads=8, count=128, seed=1,
            ))
        )
        hammer_thread.start()
        stats = service.adaptation.stats
        during, sync_errors = [], before.errors
        deadline = time.monotonic() + 120.0
        while (stats.promotions + stats.rollbacks < 1 or len(during) < 64) and (
            time.monotonic() < deadline
        ):
            sample = sync(8)
            during.extend(sample.merged())
            sync_errors += sample.errors
        hammer_thread.join()
        service.adaptation.wait_idle(timeout=30.0)
        promoted = service.registry.get(name)
        flagged = service.adaptation.watcher(name).recall.total_flagged
        counters = service.counters()
    cache = {
        key: counters["feature_cache"][key] - counters_before["feature_cache"][key]
        for key in ("hits", "misses", "coalesced")
    }
    actual = np.array([record.latency_ms for record in drifted])
    return {
        "mode": mode,
        "flagged": int(flagged),
        "refits": stats.refits,
        "promotions": stats.promotions,
        "rollbacks": stats.rollbacks,
        "stale_version": stale.version,
        "promoted_version": promoted.version,
        "stale_q": float(numpy_q_error(stale.predict_many(drifted), actual).mean()),
        "new_q": float(numpy_q_error(promoted.predict_many(drifted), actual).mean()),
        "p50_before_ms": percentile(before.merged(), 50),
        "p50_during_ms": percentile(np.array(during), 50),
        "hammer": hammer["load"],
        "sync_errors": sync_errors,
        "adaptation_errors": counters["adaptation"]["errors"] - counters_before["adaptation"]["errors"],
        "hit_rate": (cache["hits"] + cache["coalesced"]) / max(1, sum(cache.values())),
    }


def _render(case) -> str:
    hammer = case["hammer"]
    return (
        f"[{case['mode']}] recalled dims: {case['flagged']}, refits: "
        f"{case['refits']} (promoted {case['promotions']}, rolled back "
        f"{case['rollbacks']})\n"
        f"bundle version {case['stale_version']} -> {case['promoted_version']}\n"
        f"drifted-workload mean q-error: stale {case['stale_q']:.3f} -> "
        f"promoted {case['new_q']:.3f}\n"
        f"serving p50: {case['p50_before_ms']:.3f} ms before, "
        f"{case['p50_during_ms']:.3f} ms during refit\n"
        f"async hammer: {hammer.completed} requests, {hammer.errors} errors\n"
        f"feature-cache hit rate: {case['hit_rate']:.3f}\n"
    )


def test_drift_adaptation(save_result, quick, sizes):
    modes = ["sysbench_point_to_range"]
    if not quick:
        # The analytic analogue of a read/write-mix change: half the
        # TPC-H templates, with their columns and operators, only
        # appear after the drift.
        modes.append("tpch_template_split")
    cases = [_drift(mode, sizes) for mode in modes]
    report = "\n".join(_render(case) for case in cases)
    save_result("drift", report)
    for case in cases:
        assert case["flagged"] >= 1, report
        assert case["promotions"] >= 1, report
        assert case["promoted_version"] > case["stale_version"], report
        assert case["new_q"] < case["stale_q"], report
        assert case["hammer"].errors == 0 and case["hammer"].completed > 0, report
        assert case["sync_errors"] == 0 and case["adaptation_errors"] == 0, report
        assert case["hit_rate"] >= 0.38, report
        # Refit fully off the hot path: p50 holds while retraining runs.
        assert case["p50_during_ms"] > 0.0, report  # never vacuous
        assert case["p50_during_ms"] <= P50_BUDGET * max(case["p50_before_ms"], 0.01), report
