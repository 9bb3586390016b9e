"""The four workloads: set-up, inputs, oracle, and the measured phases.

Each workload builds its traffic from the seed, trains what it serves
with :class:`repro.core.QCFE`, and drives the program only through its
public API: :class:`repro.serving.CostService`,
:class:`repro.cluster.proc.ProcClusterService` and ``QCFE``.

``tpch-sql-sync``
    Distinct TPC-H SQL texts (1.5 times the 2048-entry feature cache)
    sent in a fixed cycle by 2 blocking clients on ``CostService.estimate``:
    parse and plan run on every request, the feature cache misses, the
    template cache hits.
``tpch-plan-async``
    Pre-built labelled plans with Zipf popularity from one dispatcher
    on ``CostService.estimate_async``: feature-cache hits, the
    micro-batcher and fused predict.
``tpch-plan-proc``
    The same plans sent to ``ProcClusterService`` with 2 workers and 4
    tenants, two per worker: the process tier's IPC on top of the same
    per-request work.
``tpch-train``
    ``QCFE.fit`` (snapshots, training, difference propagation,
    retraining) on labelled plans, q-error on held-out plans, and the
    fitted model's inference time: the held-out plans in one batch, and
    one plan at a time.

Every timing is reported at a reference host speed (see
:class:`drive.HostSpeed`), except ``tpch-plan-async``'s latency, which
is mostly the micro-batcher's flush window; the run notes keep the
timings as measured.

The items served, the deployed bundle, and the training and held-out
plans are the same for every seed, so q-error is identical on every
run; the seed picks the traffic order, the popularity ranking and the
arrival schedule.
"""

from __future__ import annotations

import gc
import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

import drive
import layers
from spans import Recorder

from repro.cluster.proc import ProcClusterService
from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.engine.executor import ExecutionSimulator
from repro.serving import CostService
from repro.workload.collect import collect_labeled_plans, get_benchmark

WORKLOADS = ("tpch-sql-sync", "tpch-plan-async", "tpch-plan-proc", "tpch-train")

#: Open-loop rate per serving workload, 8-25% of its median saturated
#: ``throughput_rps`` (see README.md): low enough that a stretch at half
#: the host's usual speed does not queue requests, so latency is the
#: service's own; ``tpch-sql-sync``'s is the floor that collects
#: :data:`MIN_LATENCY_SAMPLES` in a run.  Fixed, so latency is compared at
#: the same offered load on every commit.
REFERENCE_RPS = {
    "tpch-sql-sync": 100.0,
    "tpch-plan-async": 400.0,
    "tpch-plan-proc": 200.0,
}

#: Serving runs spend WARMUP_SHARE of the measured time in an untimed
#: closed-loop warm-up, then ROUNDS rounds, each a closed-loop trial
#: (TRIAL_SHARE of the round) followed by the open loop.
WARMUP_SHARE = 1 / 12
ROUNDS = 16
TRIAL_SHARE = 0.2
#: Fewest latency samples a run needs, so that at least 10 lie beyond
#: p99; a run with fewer is marked incorrect.
MIN_LATENCY_SAMPLES = 1000
#: Outstanding futures in the async closed loop.
ASYNC_INFLIGHT = 64


#: Distinct SQL texts of ``tpch-sql-sync`` (1.5 times the feature
#: cache) and how many of them are labelled for q-error.
SQL_ITEMS, SQL_LABELLED = 3072, 512
#: Knob environments of the serving workloads and of ``tpch-train``.
SERVING_ENVS, TRAIN_ENVS = 4, 8
#: Timed set-ups per run, and the fewest fits ``tpch-train`` makes.
SETUPS, MIN_FITS = 4, 2
#: ``tpch-train`` times the held-out batch prediction this many times
#: after each fit, and this many one-plan predictions in as many chunks
#: (cycling through the held-out plans in a seeded order).
BATCH_REPEATS, SINGLES_PER_FIT = 4, -(-MIN_LATENCY_SAMPLES // MIN_FITS)
#: Length of the Zipf request sequence (cycled).
SEQUENCE_LENGTH = 1 << 16


@dataclass(frozen=True)
class Sizes:
    """Model and data sizes: the benchmark's, or the warm-up's."""

    plan_items: int = 256
    bundle_plans: int = 128
    bundle_epochs: int = 3
    bundle_template_scale: int = 4
    train_plans: int = 320
    heldout_plans: int = 256
    train_epochs: int = 8
    train_template_scale: int = 8


#: Tiny inputs: ``tpch-train`` fits them once untimed before its timed
#: steps, so those do not carry the interpreter's first-call costs
#: (tests also use them as a tiny workload).
WARMUP_SIZES = Sizes(
    plan_items=44, bundle_plans=44, bundle_epochs=1, bundle_template_scale=1,
    train_plans=44, heldout_plans=22, train_epochs=1, train_template_scale=1,
)


@dataclass
class Target:
    """A ready workload: how to send item ``i`` as request ``k``, what
    it must answer, and in which order items are sent."""

    mode: str  # "sync": call returns the value; "async": a Future
    call: Callable[[int, int], object]
    expected: np.ndarray
    sequence: np.ndarray
    concurrency: int
    service: object
    pids: Callable[[], List[int]]
    #: q-errors of the served estimates against simulated latencies.
    qerrors: np.ndarray
    reduction_ratio: float
    #: Whether open-loop latency is mostly CPU work, which moves with
    #: the host's speed, rather than the micro-batcher's flush window, a
    #: timer that does not.
    cpu_latency: bool = True


@dataclass
class Outcome:
    """What one run measured."""

    tally: drive.Tally
    metrics: Dict[str, float]
    notes: Dict[str, object] = field(default_factory=dict)
    trace: Optional[dict] = None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def qerrors(predicted, actual) -> np.ndarray:
    """Per-item q-error ``max(p/a, a/p)``."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    return np.maximum(predicted / actual, actual / predicted)


def peak_rss_mb(pids: List[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


# The knob environments, the deployed bundle and the items served are
# the same for every seed — a fixed model serving a fixed item set in
# seeded order — so a seed changes the order and timing of requests, not
# how expensive they are or how accurate the answers.
def serving_environments():
    """The knob environments the serving workloads spread traffic over."""
    return random_environments(SERVING_ENVS, seed=3)


def train_bundle(sizes: Sizes):
    """Collect labelled plans and fit the bundle the serving workloads
    deploy; returns ``(bundle, fit seconds)``."""
    benchmark = get_benchmark("tpch")
    envs = serving_environments()
    labelled = collect_labeled_plans(benchmark, envs, sizes.bundle_plans, seed=1)
    pipeline = QCFE(
        benchmark,
        envs,
        QCFEConfig(
            model="qppnet",
            epochs=sizes.bundle_epochs,
            template_scale=sizes.bundle_template_scale,
            reduction="diff",
        ),
    )
    began = time.perf_counter()
    pipeline.fit(labelled)
    fit_s = time.perf_counter() - began
    return pipeline.export_bundle(), fit_s


def _oracle(bundle, queries: List[object], env_of: List[object]) -> np.ndarray:
    """Expected estimate per item from a separate in-process
    ``CostService.estimate_many`` on the same bundle."""
    groups: Dict[str, List[int]] = {}
    for index, env in enumerate(env_of):
        groups.setdefault(env.name, []).append(index)
    expected = np.full(len(queries), np.nan)
    with CostService() as oracle:
        oracle.deploy(bundle)
        for indices in groups.values():
            expected[indices] = oracle.estimate_many(
                [queries[i] for i in indices], env_of[indices[0]]
            )
    return expected


# ----------------------------------------------------------------------
# serving workloads: set-up and inputs
# ----------------------------------------------------------------------
def _start_in_process(bundle):
    service = CostService()
    service.deploy(bundle)
    return service


def _start_proc(bundle):
    service = ProcClusterService(worker_count=2)
    try:
        service.deploy(bundle)
    except BaseException:
        service.close()
        raise
    return service


def _sql_target(seed: int, sizes: Sizes, service, bundle) -> Target:
    """``tpch-sql-sync``: distinct SQL texts (fresh literals of the 22
    templates), environments round-robin, 2 blocking clients."""
    benchmark = get_benchmark("tpch")
    envs = serving_environments()
    texts: List[str] = []
    queries = []
    templates: List[str] = []
    seen = set()
    for chunk in itertools.count():
        for template, query in benchmark.generate_queries(SQL_ITEMS, seed=100 + chunk):
            text = query.sql()
            if text not in seen and len(texts) < SQL_ITEMS:
                seen.add(text)
                texts.append(text)
                queries.append(query)
                templates.append(template)
        if len(texts) == SQL_ITEMS:
            break
    env_of = [envs[j % len(envs)] for j in range(len(texts))]
    expected = _oracle(bundle, texts, env_of)
    labelled = np.random.default_rng(17).choice(len(texts), size=SQL_LABELLED, replace=False)
    simulators = {
        env.name: ExecutionSimulator(benchmark.catalog, benchmark.stats, env)
        for env in envs
    }
    actual = [simulators[env_of[i].name].run_query(queries[i]).latency_ms for i in labelled]
    return Target(
        mode="sync",
        call=lambda i, k: service.estimate(texts[i], env_of[i]),
        expected=expected,
        sequence=drive.spread_order(templates, rng(seed, "sql-order")),
        concurrency=2,
        service=service,
        pids=lambda: [os.getpid()],
        qerrors=qerrors(expected[labelled], actual),
        reduction_ratio=float(bundle.metadata["reduction_ratio"]),
    )


def _plan_target(
    seed: int, sizes: Sizes, service, bundle, submit, pids, cpu_latency: bool
) -> Target:
    """Labelled TPC-H plans with Zipf(1.1) popularity, one dispatcher
    keeping futures in flight."""
    envs = serving_environments()
    labelled = collect_labeled_plans(get_benchmark("tpch"), envs, sizes.plan_items, seed=7)
    by_name = {env.name: env for env in envs}
    env_of = [by_name[record.env_name] for record in labelled]
    plans = [record.plan for record in labelled]
    expected = _oracle(bundle, plans, env_of)
    # Popularity ranks go to the templates in turn, in a fixed order, so
    # the most popular plans — most of the traffic — carry the same
    # template mix on every seed; the seed picks which plan of each
    # template holds a rank.
    ranking = drive.spread_order([r.template for r in labelled], rng(seed, "ranking"))
    return Target(
        mode="async",
        call=lambda i, k: submit(plans[i], env_of[i], k),
        expected=expected,
        sequence=drive.zipf_sequence(ranking, SEQUENCE_LENGTH, 1.1, rng(seed, "zipf")),
        concurrency=ASYNC_INFLIGHT,
        service=service,
        pids=pids,
        qerrors=qerrors(expected, [record.latency_ms for record in labelled]),
        reduction_ratio=float(bundle.metadata["reduction_ratio"]),
        cpu_latency=cpu_latency,
    )


def _async_target(seed: int, sizes: Sizes, service, bundle) -> Target:
    """``tpch-plan-async``: the plan traffic on the micro-batcher.  At
    the reference rate a request mostly waits out the 2 ms flush window."""
    return _plan_target(
        seed, sizes, service, bundle,
        lambda plan, env, k: service.estimate_async(plan, env),
        lambda: [os.getpid()],
        cpu_latency=False,
    )


def tenants_per_worker(service, per_worker: int = 2) -> List[str]:
    """Tenant names routed so every worker owns *per_worker* of them,
    interleaved across workers (names picked by index alone can all
    hash to one worker)."""
    owned: Dict[str, List[str]] = {w: [] for w in service.router.shard_ids()}
    for n in itertools.count():
        name = f"tenant-{n}"
        worker = service.worker_of(name)
        if len(owned[worker]) < per_worker:
            owned[worker].append(name)
        if all(len(names) == per_worker for names in owned.values()):
            return [name for group in zip(*owned.values()) for name in group]


def _proc_target(seed: int, sizes: Sizes, service, bundle) -> Target:
    """``tpch-plan-proc``: the plan traffic on the process tier."""
    tenants = tenants_per_worker(service)
    return _plan_target(
        seed, sizes, service, bundle,
        lambda plan, env, k: service.estimate_async(
            plan, env, tenant=tenants[k % len(tenants)]
        ),
        lambda: [os.getpid()]
        + [service.worker(w).pid for w in service.router.shard_ids()],
        cpu_latency=True,
    )


SERVING = {
    "tpch-sql-sync": (_start_in_process, _sql_target),
    "tpch-plan-async": (_start_in_process, _async_target),
    "tpch-plan-proc": (_start_proc, _proc_target),
}


# ----------------------------------------------------------------------
# measured phases
# ----------------------------------------------------------------------
def closed_loop(target: Target, seconds: float, tally: drive.Tally, cursor) -> drive.Window:
    """Saturated load for *seconds*; returns the completions window."""
    loop = drive.closed_loop_sync if target.mode == "sync" else drive.closed_loop_async
    return loop(
        target.call, target.expected, target.sequence, target.concurrency,
        seconds, tally, cursor,
    )


class Phases:
    """Measurement in rounds: each round is a closed-loop trial followed
    by an open-loop segment at the reference rate, so throughput and
    latency both sample the whole run rather than one stretch of it
    (the machine's speed drifts over seconds)."""

    def __init__(
        self, target: Target, rate: float, seed: int, tally: drive.Tally, speed: drive.HostSpeed
    ):
        self.target = target
        self.rate = rate
        self.tally = tally
        self.speed = speed
        self.cursor = itertools.count()
        self._schedule = rng(seed, "schedule")
        self.windows: List[drive.Window] = []
        self._latency: List[np.ndarray] = []
        self._lag: List[np.ndarray] = []

    def warm_up(self, seconds: float) -> None:
        """Untimed closed loop: caches fill, lazy set-up finishes."""
        closed_loop(self.target, seconds, self.tally, self.cursor)

    @property
    def throughput(self) -> float:
        """Completions per second over every trial together.  A shared
        host's speed flips between levels every second or so; the
        median of short trials lands on one level or the other, while
        the pooled rate averages the trials spread over the run."""
        return sum(w.completed for w in self.windows) / sum(w.elapsed for w in self.windows)

    def round(self, seconds: float, target: Optional[Target] = None) -> None:
        """A host-speed sample, a trial for :data:`TRIAL_SHARE` of
        *seconds*, then the open loop for the rest."""
        target = target or self.target
        self.speed.sample("measure")
        self.windows.append(
            closed_loop(target, TRIAL_SHARE * seconds, self.tally, self.cursor)
        )
        due = drive.fixed_rate_schedule(
            self.rate, (1.0 - TRIAL_SHARE) * seconds, self._schedule
        )
        if target.mode == "sync":
            result = drive.open_loop_sync(
                target.call, target.expected, target.sequence, due,
                target.concurrency, self.tally, self.cursor,
            )
        else:
            result = drive.open_loop_async(
                target.call, target.expected, target.sequence, due, self.tally, self.cursor
            )
        self._latency.append(result.latency_s)
        self._lag.append(result.lag_s)

    @property
    def lag_ms(self) -> np.ndarray:
        """How late every open-loop request was sent, in ms."""
        return np.concatenate(self._lag) * 1000.0

    def metrics(self):
        """``(measured, notes)``: the pooled throughput of the trials,
        and latency percentiles over every open-loop request, as
        measured (not scaled to the reference speed)."""
        latency_ms = np.concatenate(self._latency) * 1000.0
        metrics = {
            "throughput_rps": self.throughput,
            "latency_p50_ms": drive.percentile(latency_ms, 50),
            "latency_p99_ms": drive.percentile(latency_ms, 99),
        }
        notes = {
            "throughput_trials_rps": [w.rate for w in self.windows],
            "reference_rps": self.rate,
            "latency_samples": int(latency_ms.size),
            "problems": latency_problems(latency_ms.size),
            "lag_p99_ms": drive.percentile(self.lag_ms, 99),
        }
        return metrics, notes


def latency_problems(samples: int) -> List[str]:
    """A run's latency percentiles need :data:`MIN_LATENCY_SAMPLES`."""
    if samples >= MIN_LATENCY_SAMPLES:
        return []
    return [f"{samples} latency samples, fewer than {MIN_LATENCY_SAMPLES}"]


def run_serving(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    """Set up (several times, each timed), build inputs and oracle,
    then measure — untraced, or traced for the per-layer numbers."""
    start, build = SERVING[name]
    # One untimed full set-up first: the first fit in a process ran
    # about a third slower than the next ones even after a tiny warm-up,
    # and the first start of the process tier pays its first spawn.
    start(train_bundle(sizes)[0]).close()
    speed = drive.HostSpeed()
    setups: List[float] = []
    fits: List[float] = []
    scaled_setups: List[float] = []
    scaled_fits: List[float] = []
    count = 1 if trace else SETUPS
    for attempt in range(count):
        # The benchmark's own leftovers (discarded set-ups, the oracle)
        # are collected before anything is timed, so the collector does
        # not sweep them inside a measured phase.
        gc.collect()
        # A set-up is the bundle's training, then the service's start;
        # the host's speed is sampled before, between (untimed) and after,
        # and each step is scaled by the samples around it.
        before = speed.sample("setup")
        began = time.perf_counter()
        bundle, fit_s = train_bundle(sizes)
        trained_s = time.perf_counter() - began
        between = speed.sample("setup")
        began = time.perf_counter()
        service = start(bundle)
        setups.append(trained_s + time.perf_counter() - began)
        fits.append(fit_s)
        after = speed.sample("setup")
        scaled_setups.append(drive.at_reference(setups[-1], [before, between, after]))
        scaled_fits.append(drive.at_reference(fit_s, [before, between]))
        if attempt < count - 1:
            service.close()
    tally = drive.Tally()
    try:
        target = build(seed, sizes, service, bundle)
        gc.collect()
        phases = Phases(target, REFERENCE_RPS[name], seed, tally, speed)
        phases.warm_up(WARMUP_SHARE * seconds)
        round_s = (1.0 - WARMUP_SHARE) * seconds / ROUNDS
        if trace:
            return traced_serving(phases, name, round_s, seed)
        for _ in range(ROUNDS):
            phases.round(round_s)
        speed.sample("measure")
        measured, notes = phases.metrics()
        measured.update(setup_s=statistics.median(setups), train_s=statistics.mean(fits))
        measure = speed.scale("measure")
        # Every workload reports every end-to-end metric: here train_s
        # is the served bundle's fit and the q-errors are the served
        # answers' accuracy on the labelled items.
        metrics = {
            "throughput_rps": measured["throughput_rps"] / measure,
            "latency_p50_ms": measured["latency_p50_ms"]
            * (measure if target.cpu_latency else 1.0),
            "setup_s": statistics.median(scaled_setups),
            "train_s": statistics.mean(scaled_fits),
            "qerror_p50": drive.percentile(target.qerrors, 50),
            "qerror_p95": drive.percentile(target.qerrors, 95),
            "peak_rss_mb": peak_rss_mb(target.pids()),
        }
        notes.update(measured=measured, host_speed=speed.rates, setups_s=setups, fits_s=fits)
        return Outcome(tally, metrics, notes)
    finally:
        service.close()


def traced_serving(phases: Phases, name: str, round_s: float, seed: int) -> Outcome:
    """Untraced trials before and after; in between, every wrapper is
    installed for the same rounds the untraced run measures."""
    target = phases.target
    trial_s = TRIAL_SHARE * round_s
    untraced = [closed_loop(target, trial_s, phases.tally, phases.cursor).rate]
    rec, flush = Recorder(), threading.local()
    traced_target = replace(target, call=layers.traced_call(rec, target, flush))
    before = layers.snapshot_counters(target.service)
    began = time.perf_counter()
    layers.install(rec, target.service, flush)
    try:
        for _ in range(ROUNDS):
            phases.round(round_s, traced_target)
    finally:
        rec.restore()
    wall_s = time.perf_counter() - began
    after = layers.snapshot_counters(target.service)
    untraced.append(closed_loop(target, trial_s, phases.tally, phases.cursor).rate)
    traced = layers.Traced(rec)
    metrics = layers.layer_metrics(traced, before, after, wall_s, len(after.get("workers", {})))
    lag_ms = phases.lag_ms
    metrics.update({
        "core.reduction_ratio": target.reduction_ratio,
        "loadgen.lag_p99_ms": drive.percentile(lag_ms, 99),
        "loadgen.lag_max_ms": float(lag_ms.max()) if lag_ms.size else 0.0,
        "trace.overhead_pct": 100.0 * (1.0 - phases.throughput / statistics.mean(untraced)),
    })
    return Outcome(
        phases.tally,
        metrics,
        notes={
            "problems": layers.reconcile(name, metrics, traced),
            "self_time_ratio": traced.self_time_ratio,
        },
        trace=layers.trace_document(traced, name, seed, metrics),
    )


# ----------------------------------------------------------------------
# tpch-train
# ----------------------------------------------------------------------
@dataclass
class TrainInputs:
    """Everything a ``QCFE.fit`` of the train workload needs."""

    benchmark: object
    envs: list
    train: list
    heldout: list
    config: QCFEConfig


def train_inputs(sizes: Sizes) -> TrainInputs:
    """Labelled training and held-out plans over the environments (the
    same for every seed, like the serving bundle's)."""
    benchmark = get_benchmark("tpch")
    envs = random_environments(TRAIN_ENVS, seed=5)
    train = collect_labeled_plans(benchmark, envs, sizes.train_plans, seed=11)
    heldout = collect_labeled_plans(benchmark, envs, sizes.heldout_plans, seed=13)
    config = QCFEConfig(
        model="qppnet",
        epochs=sizes.train_epochs,
        template_scale=sizes.train_template_scale,
        reduction="diff",
    )
    return TrainInputs(benchmark, envs, train, heldout, config)


def fit_once(inputs: TrainInputs, fit: Optional[Callable] = None):
    """One ``QCFE.fit``; returns ``(pipeline, seconds, held-out
    predictions)``.  *fit* replaces the call (the traced run wraps it
    in a request span)."""
    pipeline = QCFE(inputs.benchmark, inputs.envs, replace(inputs.config))
    began = time.perf_counter()
    if fit is None:
        pipeline.fit(inputs.train)
    else:
        fit(pipeline)
    seconds = time.perf_counter() - began
    return pipeline, seconds, pipeline.predict_many(inputs.heldout)


def check_fit(tally: drive.Tally, predictions: np.ndarray, reference) -> None:
    """A fit fails if a held-out prediction is non-finite or differs
    (so its q-errors differ) from the first fit's."""
    tally.attempt()
    if not np.all(np.isfinite(predictions)):
        tally.fail("non_finite")
    elif reference is not None and not np.array_equal(predictions, reference):
        tally.fail("qerror_changed")


def time_inference(
    pipeline: QCFE, heldout: list, expected: np.ndarray, order, tally, speed: drive.HostSpeed
):
    """The fitted model's inference time: ``(batch seconds, latencies)``.

    :data:`BATCH_REPEATS` times: a host-speed sample, the held-out plans
    to ``predict_many`` in one batch (seconds of the call), then one plan
    per call (seconds per call) for the next share of the indices in
    *order*.  Every answer must equal *expected*, the fit's held-out
    predictions."""
    batch_s = []
    latency = np.full(len(order), np.inf)
    for chunk in np.array_split(np.arange(len(order)), BATCH_REPEATS):
        speed.sample("measure")
        tally.attempt()
        began = time.perf_counter()
        batch = pipeline.predict_many(heldout)
        batch_s.append(time.perf_counter() - began)
        if not np.array_equal(batch, expected):
            tally.fail("oracle_mismatch")
        for j in chunk:
            item = order[j]
            tally.attempt()
            began = time.perf_counter()
            try:
                value = pipeline.predict_many([heldout[item]])[0]
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                tally.exception(exc)
                continue
            done = time.perf_counter()
            if tally.check(value, expected[item]):
                latency[j] = done - began
    return batch_s, latency


def run_train(seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    """Set up (several times, each timed), then fit and time the fitted
    model's inference, round after round, while another round fits in
    *seconds* (at least :data:`MIN_FITS` rounds)."""
    fit_once(train_inputs(WARMUP_SIZES))
    if trace:
        return traced_train(train_inputs(sizes), seconds, seed)
    speed = drive.HostSpeed()
    setups, scaled_setups = [], []
    for _ in range(SETUPS):
        gc.collect()
        before = speed.sample("setup")
        began = time.perf_counter()
        inputs = train_inputs(sizes)
        setups.append(time.perf_counter() - began)
        after = speed.sample("setup")
        scaled_setups.append(drive.at_reference(setups[-1], [before, after]))
    tally = drive.Tally()
    order = rng(seed, "heldout-order").permutation(len(inputs.heldout))
    fits: List[float] = []
    batch_s: List[float] = []
    latency: List[np.ndarray] = []
    rounds: List[float] = []
    reference = None
    deadline = time.perf_counter() + seconds
    while len(fits) < MIN_FITS or time.perf_counter() + statistics.median(rounds) < deadline:
        gc.collect()
        began = time.perf_counter()
        speed.sample("measure")
        pipeline, fit_s, predictions = fit_once(inputs)
        check_fit(tally, predictions, reference)
        reference = predictions if reference is None else reference
        fits.append(fit_s)
        gc.collect()
        singles = order[(np.arange(SINGLES_PER_FIT) + len(fits) * SINGLES_PER_FIT) % len(order)]
        seconds_each, single_s = time_inference(
            pipeline, inputs.heldout, reference, singles, tally, speed
        )
        batch_s += seconds_each
        latency.append(single_s)
        rounds.append(time.perf_counter() - began)
    speed.sample("measure")
    latency_ms = np.concatenate(latency) * 1000.0
    heldout_qerrors = qerrors(reference, [record.latency_ms for record in inputs.heldout])
    # Means over the whole run, not medians of a few fits or calls: the
    # host's speed flips between levels, and a median picks one level.
    measured = {
        "throughput_rps": len(inputs.heldout) * len(batch_s) / sum(batch_s),
        "latency_p50_ms": drive.percentile(latency_ms, 50),
        "latency_p99_ms": drive.percentile(latency_ms, 99),
        "setup_s": statistics.median(setups),
        "train_s": statistics.mean(fits),
    }
    measure = speed.scale("measure")
    metrics = {
        "throughput_rps": measured["throughput_rps"] / measure,
        "latency_p50_ms": measured["latency_p50_ms"] * measure,
        "setup_s": statistics.median(scaled_setups),
        "train_s": measured["train_s"] * measure,
        "qerror_p50": drive.percentile(heldout_qerrors, 50),
        "qerror_p95": drive.percentile(heldout_qerrors, 95),
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
    }
    notes = {
        "problems": latency_problems(latency_ms.size),
        "latency_samples": int(latency_ms.size),
        "measured": measured,
        "host_speed": speed.rates,
        "batch_s": batch_s,
        "setups_s": setups,
        "fits_s": fits,
    }
    return Outcome(tally, metrics, notes)


def traced_train(inputs: TrainInputs, seconds: float, seed: int) -> Outcome:
    """Alternate untraced and traced fits (at least two of each) for
    *seconds*; per-layer numbers are per traced fit."""
    tally = drive.Tally()
    rec = Recorder()
    times: Dict[bool, List[float]] = {False: [], True: []}
    reference = None
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        with_spans = n % 2 == 1
        if n >= 4 and time.perf_counter() + min(times[with_spans]) > deadline:
            break

        def fit(pipeline: QCFE, n: int = n) -> None:
            rec.run("request", pipeline.fit, inputs.train, request_id=n)

        gc.collect()
        if with_spans:
            layers.install(rec, None, threading.local())
        try:
            pipeline, fit_s, predictions = fit_once(inputs, fit if with_spans else None)
        finally:
            rec.restore()
        check_fit(tally, predictions, reference)
        reference = predictions if reference is None else reference
        times[with_spans].append(fit_s)
    traced = layers.Traced(rec)
    metrics = layers.layer_metrics(traced, {}, {}, 1.0, 0)
    metrics.update({
        "core.reduction_ratio": float(pipeline.export_bundle().metadata["reduction_ratio"]),
        "loadgen.lag_p99_ms": 0.0,
        "loadgen.lag_max_ms": 0.0,
        "trace.overhead_pct": 100.0
        * (1.0 - statistics.median(times[False]) / statistics.median(times[True])),
    })
    return Outcome(
        tally,
        metrics,
        notes={
            "problems": layers.reconcile("tpch-train", metrics, traced),
            "self_time_ratio": traced.self_time_ratio,
            "fits": n,
        },
        trace=layers.trace_document(traced, "tpch-train", seed, metrics),
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run workload *name* once."""
    if name == "tpch-train":
        return run_train(seed, seconds, trace, Sizes())
    return run_serving(name, seed, seconds, trace, Sizes())
