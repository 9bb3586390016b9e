"""CostService under concurrent load.

Threads mix every entry point over two tenants and must get the same
64 bits the single path returns, with zero errors and every request
counted once; a storm of requests from environments the bundle never
saw must fit each environment's snapshot once, the other requests
waiting on that fit or hitting its result.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.serving import CostService, SnapshotStore
from repro.serving import service as service_module
from repro.workload.collect import collect_labeled_plans

from ..conftest import hammer

THREADS = 4  # hammer's default


@pytest.fixture(scope="module")
def load_envs():
    return random_environments(2, seed=3)


@pytest.fixture(scope="module")
def load_bundle(sysbench, load_envs):
    labeled = collect_labeled_plans(sysbench, load_envs, 40, seed=1)
    pipeline = QCFE(
        sysbench, load_envs, QCFEConfig(model="qppnet", epochs=2, template_scale=4)
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle(), labeled


def test_concurrent_entry_points_return_the_same_bits_with_zero_errors(
    load_bundle, load_envs
):
    bundle, labeled = load_bundle
    env_by_name = {env.name: env for env in load_envs}
    items = [(record.plan, env_by_name[record.env_name]) for record in labeled]
    by_env = {
        env.name: [i for i, (_, e) in enumerate(items) if e is env] for env in load_envs
    }
    tenants = ("tenant-a", "tenant-b")
    with CostService(snapshot_store=SnapshotStore()) as service:
        for name in tenants:
            service.deploy(bundle, name=name)
        oracle = {
            (name, i): service.estimate(plan, env, bundle=name)
            for name in tenants
            for i, (plan, env) in enumerate(items)
        }
        before = service.counters()
        served = []

        def work(index):
            rng = random.Random(index)
            for step in range(60):
                # A 90/10 tenant mix, as a skewed fleet sends it.
                name = tenants[0] if rng.random() < 0.9 else tenants[1]
                env = load_envs[rng.randrange(len(load_envs))]
                picked = rng.sample(by_env[env.name], 4)
                plans = [items[i][0] for i in picked]
                if step % 3 == 0:
                    values = [service.estimate(plans[0], env, bundle=name)]
                elif step % 3 == 1:
                    futures = [service.estimate_async(p, env, bundle=name) for p in plans]
                    values = [future.result(timeout=30.0) for future in futures]
                else:
                    values = list(service.estimate_many(plans, env, bundle=name))
                served.extend(
                    ((name, i), value) for i, value in zip(picked, values, strict=False)
                )

        errors = hammer(work)
        after = service.counters()
    assert errors == []
    assert all(value == oracle[key] for key, value in served)
    requests = after["service"]["requests"] - before["service"]["requests"]
    assert requests == len(served) == THREADS * 20 * (1 + 4 + 4)
    assert after["service"]["stages"]["predict"]["calls"] - before["service"]["stages"][
        "predict"
    ]["calls"] == requests
    cache = {
        key: after["feature_cache"][key] - before["feature_cache"][key]
        for key in ("hits", "misses", "coalesced")
    }
    assert cache["misses"] == 0  # every item was featurized by the oracle
    assert cache["hits"] + cache["coalesced"] == requests


def test_snapshot_miss_storm_fits_each_unseen_environment_once(
    load_bundle, monkeypatch
):
    bundle, labeled = load_bundle
    real_fitter = service_module.template_snapshot_fitter

    def slow_fitter(*args, **kwargs):
        fit = real_fitter(*args, **kwargs)

        def slow(env):
            # As slow as a full-scale fit, so every thread asks for
            # its environment while the first ask is still fitting.
            time.sleep(0.05)
            return fit(env)

        return slow

    monkeypatch.setattr(service_module, "template_snapshot_fitter", slow_fitter)
    unseen = random_environments(4, seed=3)[2:]
    plans = [record.plan for record in labeled[:24]]
    with CostService(snapshot_store=SnapshotStore(), snapshot_scale=4) as service:
        service.deploy(bundle)
        served = []

        def work(index):
            for offset, plan in enumerate(plans):
                env = unseen[(index + offset) % len(unseen)]
                served.append(((offset, env.name), service.estimate(plan, env)))

        errors = hammer(work)
        store = service.snapshot_store.stats_snapshot()
        # After the storm: the same answers, sequentially.
        expected = {
            (offset, env.name): service.estimate(plan, env)
            for offset, plan in enumerate(plans)
            for env in unseen
        }
    assert errors == []
    assert store.misses == len(unseen)  # one fit per unseen environment
    # Two threads start on each environment: the second waits on the
    # first's fit instead of running its own.
    assert store.coalesced >= len(unseen)
    assert store.hits + store.approx_hits + store.coalesced == store.requests - len(unseen)
    assert all(np.isfinite(value) for _, value in served)
    assert all(value == expected[key] for key, value in served)
