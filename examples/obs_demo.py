"""Demo: observability — traces, unified metrics, structured events.

Reduces a tiny QCFE bundle on point-selects and serves it twice with a
full-sampling :class:`~repro.obs.Tracer` attached:

- through a 2-worker :class:`~repro.cluster.ProcClusterService`, with
  sync/async traffic and a worker SIGKILLed mid-traffic — the parent
  traces each request's ``route`` hop and logs the worker's death and
  revival;
- through one in-process :class:`~repro.serving.CostService` with a
  drift watcher, fed a workload drift onto range queries that trips
  the recall watcher — its traces hold the whole request.

Afterwards it prints what the observability stack saw:

1. trace waterfalls (route hops; request → parse/plan/featurize/
   predict, plus the batch span a coalesced async request was served
   by);
2. the slow-query log (top-K roots by duration, with plan
   fingerprints);
3. the structured event histories (the worker kill/death/revival, the
   drift trip);
4. the Prometheus text exposition of the tier's metrics registry,
   every worker's counters folded in.

Run with ``PYTHONPATH=src python examples/obs_demo.py``.
"""

from __future__ import annotations

import concurrent.futures
import time

from repro.cluster import ProcClusterService
from repro.core import QCFE, QCFEConfig, collect_baselines
from repro.engine import ExecutionSimulator
from repro.engine.executor import LabeledPlan
from repro.eval.reporting import render_obs_report
from repro.obs import Tracer
from repro.serving import AdaptationConfig, CostService, SnapshotStore
from repro.workload import get_benchmark, standard_environments
from repro.workload.sysbench_oltp import sysbench_queries

_RANGE_SHAPES = {"simple_range", "sum_range", "order_range", "distinct_range"}


def labeled_subset(benchmark, environments, shapes, total, seed):
    """Simulator-labeled plans for the sysbench templates in *shapes*."""
    per_env = max(1, total // len(environments))
    labeled = []
    for env_index, env in enumerate(environments):
        simulator = ExecutionSimulator(benchmark.catalog, benchmark.stats, env)
        pool = sysbench_queries(
            benchmark.catalog, per_env * 8, seed=seed + env_index
        )
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
    """Trace, count and narrate a small tier run and a drift."""
    print("== reduce a tiny Sysbench bundle on point-selects ==")
    benchmark = get_benchmark("sysbench")
    environments = standard_environments(2, seed=0)
    env_by_name = {env.name: env for env in environments}
    point_only = labeled_subset(
        benchmark, environments, {"point_select"}, 96, seed=1
    )
    pipeline = QCFE(
        benchmark, environments,
        QCFEConfig(model="qppnet", snapshot_source="template",
                   reduction="diff", epochs=3),
    )
    pipeline.fit(point_only)
    bundle = pipeline.export_bundle()
    bundle.metadata["recall_baselines"] = collect_baselines(
        pipeline.operator_encoder, point_only
    )

    # Full head sampling for the demo: every trace is retained.  A
    # production scrape would run nearer the 5% default, relying on the
    # always-on slow/error tail sampling for the interesting ones.
    tracer = Tracer(sample_rate=1.0, slow_ms=50.0, seed=7)
    env = environments[0]
    sql = point_only[0].query_sql
    with ProcClusterService(worker_count=2, tracer=tracer) as tier:
        tier.deploy(bundle)

        print("\n== drive the process tier (sync + async) ==")
        for record in point_only[:8]:
            tier.estimate(record.query_sql, env_by_name[record.env_name])
        futures = [tier.estimate_async(sql, env) for _ in range(8)]
        concurrent.futures.wait(futures)
        assert all(f.result() > 0 for f in futures)

        victim = tier.worker_of(bundle.name)
        old_pid = tier.worker(victim).pid
        print(f"== SIGKILL {victim} mid-traffic (failover, then revival) ==")
        tier.kill_worker(victim)
        for record in point_only[8:16]:
            tier.estimate(record.query_sql, env_by_name[record.env_name])
        deadline = time.monotonic() + 60.0
        while not (
            tier.router.is_alive(victim) and tier.worker(victim).pid != old_pid
        ):
            assert time.monotonic() < deadline, "the supervisor revives"
            time.sleep(0.05)

        print("\n== route hops, slow-query log, tier events ==\n")
        print(render_obs_report(tracer=tracer, events=tier.events))

        print("\n== Prometheus exposition (head of the dump) ==\n")
        deadline = time.monotonic() + 30.0
        while not all(
            "sections" in snap for snap in tier.counters()["workers"].values()
        ):
            assert time.monotonic() < deadline, "the supervisor pulls counters"
            time.sleep(0.05)
        dump = tier.metrics.render_prometheus()
        print("\n".join(dump.splitlines()[:30]))
        print(f"... ({len(dump.splitlines())} lines total)")

    # background=False: the demo pumps the adaptation loop itself
    # (run_pending) so the drift trip lands deterministically; the
    # absurd min_refit_records keeps the demo at "trip observed", short
    # of a full refit.
    tracer.reset()
    with CostService(
        snapshot_store=SnapshotStore(),
        adaptation=AdaptationConfig(background=False, min_refit_records=10**9),
        tracer=tracer,
    ) as service:
        service.deploy(bundle)
        print("\n== drift one service's workload onto range queries ==")
        futures = [service.estimate_async(sql, env) for _ in range(8)]
        concurrent.futures.wait(futures)
        drifted = labeled_subset(
            benchmark, environments, _RANGE_SHAPES, 48, seed=9
        )
        for record in drifted:
            service.estimate(record.plan, env_by_name[record.env_name])
        service.adaptation.run_pending()

        print("\n== request waterfalls, slow-query log, service events ==\n")
        print(render_obs_report(tracer=tracer, events=service.events))
        trips = service.events.events(event_type="drift_trip")
        assert trips, "the drifted workload must trip the recall watcher"

        # Every coalesced async request links to the flush that served
        # it; show the linkage explicitly.
        batch = tracer.traces(kind="batch")
        if batch:
            links = batch[-1]["spans"][-1]["annotations"]["links"]
            print(
                f"last batch span served {len(links)} coalesced "
                "request(s): "
                + ", ".join(link["trace_id"] for link in links[:4])
                + ("..." if len(links) > 4 else "")
            )


if __name__ == "__main__":
    main()
