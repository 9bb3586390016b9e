"""Demo: the process tier — routing, failover, revival.

Trains one tiny QCFE bundle, deploys it for several tenants across a
3-worker :class:`~repro.cluster.ProcClusterService`, and walks the
tier's three behaviours end to end:

1. tenant affinity — each tenant's requests land on one worker
   process, deterministically;
2. failover — a worker SIGKILLed mid-traffic costs re-routed requests
   a cache warm-up, never an error, and is pulled from routing;
3. revival — the supervisor respawns the worker, syncs it the current
   state image, and exactly its tenants move back.

Run with ``PYTHONPATH=src python examples/cluster_demo.py``.
"""

from __future__ import annotations

import time

from repro.cluster import ProcClusterService
from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.workload.collect import collect_labeled_plans, get_benchmark


def main() -> None:
    """Train, spread, kill, fail over, revive — printing as it goes."""
    print("== train a tiny Sysbench bundle ==")
    benchmark = get_benchmark("sysbench")
    envs = random_environments(2, seed=3)
    labeled = collect_labeled_plans(benchmark, envs, 64, seed=1)
    pipeline = QCFE(
        benchmark, envs, QCFEConfig(model="qppnet", epochs=3, template_scale=4)
    )
    pipeline.fit(labeled)
    bundle = pipeline.export_bundle()

    with ProcClusterService(worker_count=3) as tier:
        tenants = [f"tenant-{i}" for i in range(8)]
        for name in tenants:
            tier.deploy(bundle, name=name)

        print("\n== tenant placement (rendezvous-hashed, deterministic) ==")
        for name in tenants:
            print(f"  {name:10s} -> {tier.worker_of(name)}")

        sql = labeled[0].query_sql
        env = envs[0]
        baseline = tier.estimate(sql, env, bundle=tenants[0])
        print(f"\nestimate for {tenants[0]}: {baseline:.4f} ms")

        victim = tier.worker_of(tenants[0])
        old_pid = tier.worker(victim).pid
        print(f"\n== SIGKILL {victim} (pid {old_pid}, serving {tenants[0]}) ==")
        tier.kill_worker(victim)
        values = [
            tier.estimate(sql, env, bundle=name)
            for name in tenants
            for _ in range(4)
        ]
        assert values[:4] == [baseline] * 4, "failover must serve the same bits"
        print(f"  {len(values)} requests, 0 errors")
        cluster = tier.counters()["cluster"]
        print(
            f"  reroutes={cluster['reroutes']} ejections={cluster['ejections']} "
            f"shed={cluster['shed']}"
        )

        print(f"\n== revival: {victim} comes back, and its tenants with it ==")
        # The replacement rejoins routing once it has installed the image.
        deadline = time.monotonic() + 60.0
        while not (
            tier.router.is_alive(victim) and tier.worker(victim).pid != old_pid
        ):
            assert time.monotonic() < deadline, "the supervisor revives"
            time.sleep(0.05)
        print(
            f"  {victim} pid {old_pid} -> {tier.worker(victim).pid}; "
            f"{tenants[0]} back on {tier.worker_of(tenants[0])}"
        )
        assert tier.estimate(sql, env, bundle=tenants[0]) == baseline
        print(f"  supervisor: {tier.supervisor.counters()}")

        print("\n== tier report ==")
        print(tier.report())


if __name__ == "__main__":
    main()
