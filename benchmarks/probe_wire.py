"""Per-request cost of the process tier: the worker's path on hits and
on misses, and the parent's request encode.

Fits the bundle that ``tpch-plan-async`` and ``tpch-plan-proc`` serve
(TPC-H, 4 knob environments, QPPNet with difference-propagation
reduction) and encodes held-out plans into request blobs as the parent
does (``protocol.encode_request``).  It then times
``WorkerRuntime.serve_estimates`` — the worker's whole per-request
path: split or decode the blob, featurize through the caches, one
fused predict — in this process, with no socket, on drains of 1 and 16
frames:

- **hit**: every plan is already in the worker's feature cache (the
  probe serves all blobs once, untimed, first);
- **miss**: a cold worker per timing, every plan distinct, so every
  request misses the feature cache.  The template cache warms as the
  pass goes on, as it would in service.

and, as one more case, the parent's side of a request:

- **encode**: ``protocol.encode_request([plan], env)`` for every plan,
  on environment objects that have been encoded before (as a service
  sees the same few on every request).  It has no drain; the table
  prints ``-``.

Cases are interleaved inside every repeat, their order rotating, so a
drift of the host's speed reaches all of them alike; each figure is
the median microseconds per request over repeats.  Every outcome must
equal the in-process ``CostService`` estimate bit for bit, and every
encoded blob the one the probe started from, or the probe raises.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/probe_wire.py [--repeats N]

Only the public API is used, so the same file runs against any earlier
checkout for a before/after comparison.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

from repro.cluster.proc import protocol
from repro.cluster.proc.worker import WorkerRuntime
from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.serving import CostService, SnapshotStore
from repro.workload.collect import collect_labeled_plans, get_benchmark

PATHS = ("hit", "miss")

#: The parent's case: ``encode_request`` per request (no drain).
ENCODE = ("encode", None)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drains", default="1,16", help="comma-separated drain sizes")
    parser.add_argument("--repeats", type=int, default=15, help="interleaved repeats")
    parser.add_argument("--bundle-plans", type=int, default=128)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--template-scale", type=int, default=4)
    parser.add_argument("--items", type=int, default=96, help="distinct held-out plans served")
    parser.add_argument("--json", action="store_true", help="print the rows as JSON too")
    return parser.parse_args(argv)


def fit_bundle(args: argparse.Namespace):
    """The served bundle and its distinct held-out ``(plan, env)`` items."""
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
    by_name = {env.name: env for env in envs}
    items = collect_labeled_plans(benchmark, envs, args.items, seed=7)
    return pipeline.export_bundle(), [(r.plan, by_name[r.env_name]) for r in items]


def _worker(bundle) -> WorkerRuntime:
    """A cold worker runtime serving *bundle*."""
    runtime = WorkerRuntime({})
    runtime.service.deploy(bundle)
    return runtime


def _serve(runtime: WorkerRuntime, drains: List[List[Tuple[dict, bytes]]]) -> List[object]:
    """Every drain through one ``serve_estimates`` call each."""
    outcomes: List[object] = []
    for frames in drains:
        outcomes += runtime.serve_estimates(frames)
    return outcomes


def _time_encode(items: List[Tuple[object, object]], blobs: List[bytes]) -> float:
    """Microseconds per ``encode_request`` over *items*, whose blobs
    must come out as *blobs*."""
    gc.collect()
    gc.disable()
    try:
        began = time.perf_counter()
        encoded = [protocol.encode_request([plan], env) for plan, env in items]
        elapsed = time.perf_counter() - began
    finally:
        gc.enable()
    if encoded != blobs:
        raise AssertionError("encode_request blobs differ from the first encode")
    return elapsed / len(items) * 1e6


def probe(args: argparse.Namespace) -> List[Dict[str, object]]:
    """Time every (path, drain) case; returns one row per case."""
    bundle, items = fit_bundle(args)
    # Distinct requests only, so the miss path never hits.
    unique = {protocol.encode_request([plan], env): (plan, env) for plan, env in items}
    items = list(unique.values())
    blobs = list(unique)
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        expected = single.estimate_batch([(plan, env, None) for plan, env in items])
    frames = [({"id": i, "kind": "estimate"}, blob) for i, blob in enumerate(unique)]
    sizes = [int(size) for size in args.drains.split(",")]
    drains = {
        size: [frames[lo : lo + size] for lo in range(0, len(frames), size)]
        for size in sizes
    }
    cases = [(path, size) for path in PATHS for size in sizes] + [ENCODE]
    per_request: Dict[Tuple[str, int], List[float]] = {case: [] for case in cases}
    warm = _worker(bundle)
    try:
        if _serve(warm, drains[max(sizes)]) != expected:
            raise AssertionError("worker estimates differ from the in-process ones")
        for repeat in range(args.repeats):
            shift = repeat % len(cases)
            for path, size in cases[shift:] + cases[:shift]:
                if (path, size) == ENCODE:
                    per_request[ENCODE].append(_time_encode(items, blobs))
                    continue
                runtime = warm if path == "hit" else _worker(bundle)
                gc.collect()
                gc.disable()
                try:
                    began = time.perf_counter()
                    outcomes = _serve(runtime, drains[size])
                    elapsed = time.perf_counter() - began
                finally:
                    gc.enable()
                    if runtime is not warm:
                        runtime.close()
                if outcomes != expected:
                    raise AssertionError(
                        f"{path} drains of {size}: worker estimates differ "
                        "from the in-process ones"
                    )
                per_request[(path, size)].append(elapsed / len(frames) * 1e6)
    finally:
        warm.close()
    return [
        {"path": path, "drain": size, "us_per_request": statistics.median(per_request[(path, size)])}
        for path, size in cases
    ]


def main(argv: Sequence[str] = ()) -> List[Dict[str, object]]:
    """Run the probe and print its table; returns the rows."""
    args = _parse(list(argv))
    rows = probe(args)
    print(f"{'path':>6} {'drain':>5} {'us/req':>8}")
    for row in rows:
        drain = "-" if row["drain"] is None else row["drain"]
        print(f"{row['path']:>6} {drain:>5} {row['us_per_request']:>8.1f}")
    if args.json:
        print(json.dumps(rows))
    return rows


if __name__ == "__main__":
    main(sys.argv[1:])
