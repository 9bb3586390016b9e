"""Serving stress bars: batching, caching, isolation, restarts, scaling.

Not a paper figure.  Each test drives ``CostService`` or
``ProcClusterService`` directly and asserts one
of the serving layer's machine-relative guarantees, each a ratio
against a reference measured in the same run on the same host:

1. **Batching**: the fused batch-64 path at >= 3x the plans/sec of
   batch-1 over identical pre-built plans (2.23x under ``--quick``,
   where the ratio is taken over a few milliseconds).
2. **Feature cache**: the warm pass's p50 at or below the cold pass's,
   and the cold pass misses once per unique plan.
3. **Open-loop health**: sustained Poisson traffic completes with no
   errors.
4. **Hot-tenant isolation**: quiet tenants' p95 beside a tenant at 10x
   their rate, on a 3-worker process tier with the quiet tenants off
   the hot tenant's worker, within 4.97x of their p95 alone on one
   service.
5. **Warm restart**: a fresh service restored from a checkpoint reaches
   its first estimate in at most 0.32x the time of a fresh service with
   the bundles deployed cold, serves its first window with a p95
   within 6x of the cold one's, and predicts bit-identically to the
   service that saved the checkpoint.
6. **Process scaling**: process-tier throughput rises strictly with
   every added worker up to the usable core count and stays at >= 75%
   of the best beyond it.

The rendered numbers land in ``benchmarks/results/serving.txt``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from load import percentile, run_load

from repro.cluster.proc import ProcClusterService, ProcConfig
from repro.engine.environment import random_environments
from repro.serving import CostService, SnapshotStore

BATCH_SPEEDUP_FLOOR = 3.0
#: Quick mode times the ratio over a few milliseconds of wall clock,
#: where one scheduler preemption shaves ~0.5x off a >3x ratio.
BATCH_SPEEDUP_FLOOR_QUICK = 2.23
ISOLATION_P95_RATIO_MAX = 4.97
TTFE_RATIO_MAX = 0.32
FIRST_WINDOW_P95_RATIO_MAX = 6.0
#: Past the core count added workers cannot add speed; they must not
#: take the tier below this share of its best throughput.
NONCOLLAPSE_SHARE = 0.75


@pytest.fixture(scope="module")
def report(save_result):
    """Collects each test's summary into ``results/serving.txt``."""
    lines = []
    yield lines.append
    save_result("serving", "\n".join(lines))


def _items(labeled, envs):
    env_by_name = {env.name: env for env in envs}
    return [(record.plan, env_by_name[record.env_name]) for record in labeled]


def _warm(tier, name, items):
    """One pass over *items*, so the feature cache is warm."""
    for query, env in items:
        tier.estimate(query, env, bundle=name)


def _send(tier):
    """``send`` for :func:`run_load`: the tenant name is the bundle."""
    return lambda name, item: tier.estimate(item[0], item[1], bundle=name)


def test_batch_speedup(sysbench_setup, quick, report):
    bundle, labeled, envs = sysbench_setup
    plans = [record.plan for record in labeled]
    # Tiled to a fixed size and best of 5: one pass over the raw list
    # is a few milliseconds and scheduler noise would swamp the ratio.
    probe = (plans * (384 // len(plans) + 1))[:384]
    rates = {}
    with CostService(snapshot_store=SnapshotStore()) as service:
        service.deploy(bundle)
        service.estimate_many(probe, envs[0], batch_size=64)
        for batch_size in (1, 64):
            best = 0.0
            for _ in range(5):
                began = time.perf_counter()
                service.estimate_many(probe, envs[0], batch_size=batch_size)
                best = max(best, len(probe) / (time.perf_counter() - began))
            rates[batch_size] = best
    speedup = rates[64] / rates[1]
    summary = (
        f"batch-64 vs batch-1: {speedup:.2f}x "
        f"({rates[64]:.0f} vs {rates[1]:.0f} plans/s)"
    )
    report(summary)
    assert speedup >= (BATCH_SPEEDUP_FLOOR_QUICK if quick else BATCH_SPEEDUP_FLOOR), summary


def test_open_loop_traffic_has_no_errors(sysbench_setup, quick, report):
    bundle, labeled, envs = sysbench_setup
    items = _items(labeled, envs)
    with CostService(snapshot_store=SnapshotStore()) as service:
        name = service.deploy(bundle).name
        _warm(service, name, items)
        load = run_load(
            _send(service), [(name, 1.0, items)], threads=4,
            seconds=1.0 if quick else 3.0, rate_rps=2000.0 if quick else 4000.0,
        )
    merged = load.merged()
    summary = (
        f"open loop: {load.completed / load.elapsed_s:.0f} req/s, "
        f"p99 {percentile(merged, 99):.3f} ms, {load.errors} errors"
    )
    report(summary)
    assert load.errors == 0, summary
    assert load.completed > 0, summary


def test_warm_cache_beats_cold(sysbench_setup, report):
    bundle, labeled, envs = sysbench_setup
    # Pre-built plans: the contrast isolates featurization, the stage
    # the feature cache elides.
    items = _items(labeled, envs)
    cold, warm, errors = [], [], 0
    with CostService(snapshot_store=SnapshotStore()) as service:
        name = service.deploy(bundle).name
        before = service.counters()["feature_cache"]
        # Alternating cold and warm passes folds the host's drift into
        # both sides.
        for _ in range(2):
            service.cache.clear()
            for side in (cold, warm):
                load = run_load(_send(service), [(name, 1.0, items)], threads=2, count=len(items))
                side.extend(load.merged())
                errors += load.errors
        after = service.counters()["feature_cache"]
    hits, misses, coalesced = (
        after[key] - before[key] for key in ("hits", "misses", "coalesced")
    )
    speedup = float(np.median(cold) / np.median(warm))
    summary = (
        f"warm vs cold feature cache: {speedup:.2f}x p50 "
        f"({hits} hits, {misses} misses over {len(cold)} cold requests)"
    )
    report(summary)
    assert errors == 0, summary
    assert speedup >= 1.0, summary
    # Each cold pass misses once per unique plan.
    assert misses >= len(cold) // 2, summary
    assert hits > 0, summary
    assert (hits + coalesced) / (hits + misses + coalesced) >= 0.21, summary


def test_hot_tenant_does_not_slow_quiet_tenants(sysbench_setup, quick, report):
    bundle, labeled, envs = sysbench_setup
    items = _items(labeled, envs)
    rate = 80.0 if quick else 120.0
    seconds = 1.5 if quick else 3.0
    with ProcClusterService(worker_count=3) as tier:
        hot = "hot-tenant"
        # Probe names the router places off the hot tenant's worker.
        probes = [
            name for name in (f"probe-{i}" for i in range(64))
            if tier.worker_of(name) != tier.worker_of(hot)
        ][:3]
        quiet = [(name, 1.0, items) for name in probes]

        # Reference: the quiet tenants alone on one service.
        with CostService(snapshot_store=SnapshotStore()) as single:
            for name in probes:
                single.deploy(bundle, name=name)
                _warm(single, name, items)
            alone = run_load(_send(single), quiet, seconds=seconds, rate_rps=rate)

        for name in probes + [hot]:
            tier.deploy(bundle, name=name)
            _warm(tier, name, items)
        mixed = run_load(
            _send(tier), quiet + [(hot, 10.0 * len(probes), items)],
            seconds=seconds, rate_rps=rate * 11.0,
        )
        shed = tier.counters()["cluster"]["shed"]
    ratio = percentile(mixed.merged(probes), 95) / percentile(alone.merged(), 95)
    summary = (
        f"quiet-tenant p95 beside a 10x hot tenant: {ratio:.2f}x alone "
        f"({percentile(mixed.merged(probes), 95):.3f} vs {percentile(alone.merged(), 95):.3f} ms)"
    )
    report(summary)
    assert alone.errors == 0 and mixed.errors == 0 and shed == 0, summary
    assert ratio <= ISOLATION_P95_RATIO_MAX, summary


def test_warm_restart_beats_cold_restart(sysbench_setup, quick, report, tmp_path):
    bundle, labeled, envs = sysbench_setup
    items = _items(labeled, envs)
    # A third environment the bundle never saw: a cold boot pays a
    # snapshot fit on its first estimate; a warm boot restores it.
    unseen = random_environments(3, seed=3)[2]
    probe_plans = [record.plan for record in labeled[:32]]
    window = 32 if quick else 48
    names = ("tenant-0", "tenant-1")

    def boot_probe(service):
        """Time to first estimate and the first window's latencies."""
        began = time.perf_counter()
        service.estimate(labeled[0].plan, unseen, bundle="tenant-0")
        ttfe = time.perf_counter() - began
        latencies = []
        for plan, env in (items * 2)[:window]:
            began = time.perf_counter()
            service.estimate(plan, env, bundle="tenant-0")
            latencies.append((time.perf_counter() - began) * 1000.0)
        return ttfe, percentile(np.array(latencies), 95)

    with CostService(snapshot_store=SnapshotStore()) as saved:
        for name in names:
            saved.deploy(bundle, name=name)
        for plan, _ in items[:16]:
            saved.estimate(plan, unseen, bundle="tenant-0")
        saved.save(tmp_path)
        reference = saved.estimate_many(probe_plans, envs[0], bundle="tenant-0")

    with CostService(snapshot_store=SnapshotStore()) as cold:
        for name in names:
            cold.deploy(bundle, name=name)
        cold_ttfe, cold_p95 = boot_probe(cold)
    with CostService(snapshot_store=SnapshotStore()) as warm:
        restored = warm.restore(tmp_path)
        warm_ttfe, warm_p95 = boot_probe(warm)
        after = warm.estimate_many(probe_plans, envs[0], bundle="tenant-0")
    ttfe_ratio, window_ratio = warm_ttfe / cold_ttfe, warm_p95 / cold_p95
    summary = (
        f"warm restart: first estimate {warm_ttfe * 1e3:.2f} ms vs cold "
        f"{cold_ttfe * 1e3:.2f} ms ({ttfe_ratio:.3f}x); first-window p95 "
        f"{warm_p95:.3f} vs {cold_p95:.3f} ms ({window_ratio:.2f}x)"
    )
    report(summary)
    assert restored and np.array_equal(after, reference), summary
    assert warm_ttfe < cold_ttfe, summary
    assert ttfe_ratio <= TTFE_RATIO_MAX, summary
    assert window_ratio <= FIRST_WINDOW_P95_RATIO_MAX, summary


def _usable_cores() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux hosts
        return max(1, os.cpu_count() or 1)


def scaling_holds(rps_by_count, cores: int) -> bool:
    """Strictly rising throughput while added workers map to real
    cores; at least 75% of the best seen beyond the core count."""
    previous, previous_cores, best = None, 0, 0.0
    for count, rps in sorted(rps_by_count.items()):
        used = min(count, cores)
        if previous is not None:
            if used > previous_cores:
                if not rps > previous:
                    return False
            elif rps < NONCOLLAPSE_SHARE * best:
                return False
        best = max(best, rps)
        previous, previous_cores = rps, used
    return True


def test_process_tier_scales_with_cores(sysbench_setup, quick, report):
    bundle, labeled, envs = sysbench_setup
    env_by_name = {env.name: env for env in envs}
    # SQL text: every worker pays parse, plan, featurize and predict.
    items = [(record.query_sql, env_by_name[record.env_name]) for record in labeled]
    names = [f"tenant-{i}" for i in range(6)]
    config = ProcConfig(
        request_timeout_s=60.0, boot_timeout_s=120.0, sync_timeout_s=120.0,
        heartbeat_interval_s=1.0, heartbeat_miss_limit=60,
    )
    rps_by_count, errors = {}, 0
    for count in (1, 2, 4):
        best = 0.0
        for attempt in range(1 if quick else 2):
            with ProcClusterService(worker_count=count, config=config) as tier:
                for name in names:
                    tier.deploy(bundle, name=name)
                    _warm(tier, name, items)
                load = run_load(
                    _send(tier), [(name, 1.0, items) for name in names],
                    seconds=1.0 if quick else 2.0, seed=attempt,
                )
            best = max(best, load.completed / load.elapsed_s)
            errors += load.errors
        rps_by_count[count] = best
    cores = _usable_cores()
    summary = f"process tier on {cores} cores: " + ", ".join(
        f"{count}w {rps:.0f} req/s" for count, rps in rps_by_count.items()
    )
    report(summary)
    assert errors == 0, summary
    assert scaling_holds(rps_by_count, cores), summary
