"""Shared fixtures: benchmarks, environments and labelled plans.

Expensive objects are session-scoped so the whole suite shares them.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, settings

from repro.engine.environment import default_environment, random_environments
from repro.engine.executor import ExecutionSimulator
from repro.models.training import train_test_split
from repro.obs import lockwatch
from repro.workload.collect import collect_labeled_plans, get_benchmark

# derandomize: property tests draw the same examples every run, so the
# suite (and CI) can't flake on a rare unlucky draw.  filter_too_much is
# suppressed because the gradient tests legitimately filter near-zero
# inputs (numeric differentiation is ill-conditioned there) and the
# check otherwise trips depending on generation order.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def lockwatch_graph():
    """Run the whole suite under the lock-order race detector.

    Every lock the stack creates during the session is watched; at
    teardown the acquisition graph must contain no cycles — a cycle is
    a lock-order inversion some unlucky schedule could deadlock on,
    even if this run never did.  Tests that exercise lockwatch itself
    use private :class:`~repro.obs.lockwatch.LockGraph` instances so
    deliberate inversions never pollute this graph.

    The graph — and this teardown assertion — is scoped to the pid
    that enabled it.  The process serving tier spawns real worker
    pids (and ``pytest`` itself may be forked by a test); locks those
    children create come back plain and their acquisitions are never
    recorded, so the zero-cycle assertion here keeps describing
    exactly this process's lock discipline.  Should the teardown ever
    run in a forked child (xdist-style runners), it skips the
    assertion rather than judging a graph it does not own.
    """
    graph = lockwatch.enable()
    yield graph
    lockwatch.disable()
    if os.getpid() == graph.owner_pid:
        graph.assert_no_cycles()


@pytest.fixture(scope="session")
def tpch():
    return get_benchmark("tpch")


@pytest.fixture(scope="session")
def joblight():
    return get_benchmark("joblight")


@pytest.fixture(scope="session")
def sysbench():
    return get_benchmark("sysbench")


@pytest.fixture(scope="session")
def environments():
    return random_environments(4, seed=3)


@pytest.fixture(scope="session")
def default_env():
    return default_environment()


@pytest.fixture(scope="session")
def tpch_simulator(tpch, default_env):
    return ExecutionSimulator(tpch.catalog, tpch.stats, default_env)


@pytest.fixture(scope="session")
def tpch_labeled(tpch, environments):
    return collect_labeled_plans(tpch, environments, 120, seed=1)


@pytest.fixture(scope="session")
def sysbench_labeled(sysbench, environments):
    return collect_labeled_plans(sysbench, environments, 120, seed=1)


@pytest.fixture(scope="session")
def tpch_split(tpch_labeled):
    return train_test_split(tpch_labeled, seed=0)


def hammer(work, threads=4, timeout_s=120.0):
    """Run ``work(index)`` on *threads* threads at once; every
    exception raised, in no particular order.  A thread still running
    after *timeout_s* fails the calling test."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait(timeout=timeout_s)
        try:
            work(index)
        except Exception as exc:  # collected for the assertion
            errors.append(exc)

    workers = [
        threading.Thread(target=run, args=(i,), daemon=True) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=timeout_s)
    assert not any(worker.is_alive() for worker in workers), "hammer thread hung"
    return errors
