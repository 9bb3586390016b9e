"""Tests of the end-to-end benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import compare
import drive
import layers
import run
import workloads
from spans import Recorder

from repro.serving import EstimatorBundle

SPEC = json.loads((pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [50.0, 90.0, 99.0, 99.9])
def test_percentile_matches_numpy(q):
    samples = np.random.default_rng(0).lognormal(size=4501)
    assert drive.percentile(samples, q) == float(np.percentile(samples, q))


def test_latency_floor_keeps_ten_samples_beyond_p99():
    floor = workloads.MIN_LATENCY_SAMPLES
    samples = np.random.default_rng(1).lognormal(size=floor)
    assert (samples > drive.percentile(samples, 99)).sum() >= 10
    assert workloads.latency_problems(floor) == []
    assert workloads.latency_problems(floor - 1) != []


def test_quartiles_match_statistics_module():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert drive.quartiles(values) == statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# open-loop due-time accounting
# ----------------------------------------------------------------------
def test_stall_shows_in_latency_and_lag():
    stalled = threading.Event()

    def call(item, k):
        if not stalled.is_set():
            stalled.set()
            time.sleep(0.05)
        return 1.0

    due = np.arange(5) * 0.005
    tally = drive.Tally()
    result = drive.open_loop_sync(
        call, np.ones(1), np.zeros(1, dtype=int), due, 1, tally, itertools.count()
    )
    assert tally.failed == 0 and tally.attempted == 5
    # Request 1 was due 5 ms in but could only be sent after the 50 ms
    # stall: both its lag and its due-to-done latency carry the stall.
    assert result.lag_s[1] >= 0.04
    assert result.latency_s[1] >= 0.04
    assert result.latency_s[0] >= 0.05


def test_async_latency_counts_from_due_time():
    def submit(item, k):
        future = Future()
        threading.Timer(0.05 if k == 0 else 0.0, future.set_result, (1.0,)).start()
        return future

    tally = drive.Tally()
    result = drive.open_loop_async(
        submit, np.ones(1), np.zeros(1, dtype=int), np.array([0.0, 0.01]), tally,
        itertools.count(),
    )
    assert tally.failed == 0
    assert result.latency_s[0] >= 0.05
    assert result.lag_s.max() < 0.05


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------
def test_failures_are_counted_by_kind(monkeypatch):
    monkeypatch.setattr(drive, "DRAIN_TIMEOUT_S", 0.2)
    never = Future()
    answers = {0: lambda: 1.0, 1: lambda: float("nan"), 2: lambda: 2.0}

    def submit(item, k):
        if k == 3:
            raise RuntimeError("boom")
        if k == 4:
            return never
        future = Future()
        future.set_result(answers[k]())
        return future

    tally = drive.Tally()
    result = drive.open_loop_async(
        submit, np.ones(1), np.zeros(1, dtype=int), np.zeros(5), tally, itertools.count()
    )
    assert tally.attempted == 5
    assert tally.kinds == {
        "non_finite": 1,
        "oracle_mismatch": 1,
        "exception:RuntimeError": 1,
        "timeout": 1,
    }
    assert tally.failed == 4
    assert np.isfinite(result.latency_s).sum() == 1


def test_shed_is_a_failure():
    class ShardOverloadError(Exception):
        pass

    tally = drive.Tally()
    tally.exception(ShardOverloadError())
    assert tally.kinds == {"shed": 1} and tally.failed == 1


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def test_host_speed_scale_is_measured_over_reference_speed():
    speed = drive.HostSpeed()
    speed.rates["measure"] = [drive.REFERENCE_UNITS_PER_S / 2] * 3
    assert speed.scale("measure") == 0.5
    rate = speed.sample("setup")
    assert speed.rates["setup"] == [rate] and rate > 0
    # Two seconds measured at half the reference speed (the mean of the
    # samples around the step) take one second at the reference speed.
    half = drive.REFERENCE_UNITS_PER_S / 2
    assert drive.at_reference(2.0, [half * 0.5, half * 1.5]) == 1.0


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
def test_stop_children_leaves_no_child_behind():
    # Shared memory starts the multiprocessing resource tracker, as the
    # process tier does; the sleeper stands for any other child.
    script = (
        "import subprocess, sys\n"
        "from multiprocessing import shared_memory\n"
        "import run\n"
        "shm = shared_memory.SharedMemory(create=True, size=16)\n"
        "shm.close()\n"
        "shm.unlink()\n"
        "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(len(run._children()))\n"
        "run.stop_children()\n"
        "print(len(run._children()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=pathlib.Path(run.__file__).parent,
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == ["2", "0"]


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in end_to_end.items()} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["bound"] > 0, metric
    assert 1 <= len(SPEC["per_layer"]) <= 128


# ----------------------------------------------------------------------
# compare.py flags a slowed predict as a throughput regression
# ----------------------------------------------------------------------
def _slowed(original):
    """Run *original*, then spin for twice as long: three times the time.

    Doubling the time cut throughput by about a third, too close to the
    0.25 bound for the verdict to hold on every run of a shared host."""

    def tripled(*args, **kwargs):
        began = time.perf_counter()
        out = original(*args, **kwargs)
        ended = time.perf_counter()
        while time.perf_counter() < ended + 2 * (ended - began):
            pass
        return out

    return tripled


def test_tripled_predict_is_flagged_as_throughput_regression():
    bundle, _ = workloads.train_bundle(workloads.WARMUP_SIZES)
    service = workloads._start_in_process(bundle)
    try:
        target = workloads._async_target(0, workloads.WARMUP_SIZES, service, bundle)
        tally, cursor = drive.Tally(), itertools.count()
        workloads.closed_loop(target, 0.3, tally, cursor)

        def trial():
            rate = workloads.closed_loop(target, 0.25, tally, cursor).rate
            return {"workload": "tpch-plan-async", "attempted": 1, "failed": 0,
                    "metrics": {"throughput_rps": {"value": rate, "unit": "req/s"}}}

        # Base and slowed trials alternate, so a drift of the host's speed
        # reaches both sets alike.
        base, cand = [], []
        for _ in range(5):
            base.append(trial())
            rec = Recorder()
            rec.patch(EstimatorBundle, "predict_prepared_batch", _slowed)
            try:
                cand.append(trial())
            finally:
                rec.restore()
    finally:
        service.close()
    assert tally.failed == 0
    rows = compare.compare(base, cand, SPEC)
    assert [(r[0], r[1], r[4]) for r in rows] == [
        ("tpch-plan-async", "error_rate", "same"),
        ("tpch-plan-async", "throughput_rps", "worse"),
    ]


def test_error_rate_may_not_increase():
    def result(failed):
        return {"workload": "tpch-train", "attempted": 1000, "failed": failed, "metrics": {}}

    rows = compare.compare([result(0)] * 3, [result(0), result(1), result(0)], SPEC)
    assert [(r[1], r[4]) for r in rows] == [("error_rate", "worse")]
    rows = compare.compare([result(0)] * 3, [result(0)] * 3, SPEC)
    assert [(r[1], r[4]) for r in rows] == [("error_rate", "same")]
