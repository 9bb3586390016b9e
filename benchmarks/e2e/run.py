"""End-to-end benchmark of the QCFE reproduction, measured from outside.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 [--workload NAME] [--trace] \
        [--seconds N] [--out DIR]

With ``--workload`` it runs that one workload in this process and
prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics untraced, the per-layer metrics
with ``--trace``.  Without it, every workload runs in a fresh
subprocess and the exit code is non-zero if any of them failed a check.
Result files (and ``TRACE_<workload>.json`` for traced runs) go to
``--out`` (default ``bench-out/e2e`` under the repository root).

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("tpch-sql-sync", "tpch-plan-async", "tpch-plan-proc", "tpch-train")

#: End-to-end metric units (BENCHMARK.json lists the same names).
END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_s": "s",
    "qerror_p50": "ratio",
    "qerror_p95": "ratio",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measured time of one run (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer metrics from the traced run",
    )
    parser.add_argument("--out", type=pathlib.Path, default=ROOT / "bench-out" / "e2e")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC_FILE.read_text())["run_seconds"]
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))


def _units(trace: bool) -> Dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    import layers

    return layers.PER_LAYER


def run_one(args: argparse.Namespace) -> int:
    """Run one workload here; print and write its result."""
    import workloads

    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = _units(bool(args.trace))
    problems = list(outcome.notes.get("problems", []))
    missing = [name for name in units if name not in outcome.metrics]
    problems += [f"metric {name} was not measured" for name in missing]
    bad = [n for n in units if n in outcome.metrics and not math.isfinite(outcome.metrics[n])]
    problems += [f"metric {name} is not finite" for name in bad]
    tally = outcome.tally
    correct = tally.failed == 0 and not problems
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in units.items()
        if name in outcome.metrics
    }
    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"== {label}: attempted {tally.attempted}, failed {tally.failed}")
    for kind, count in sorted(tally.kinds.items()):
        print(f"   failure {kind}: {count}")
    for problem in problems:
        print(f"   check failed: {problem}")
    for name, entry in metrics.items():
        print(f"   {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    # Failed over attempted; compare.py judges it from these two counts.
    print(f"   {'error_rate':<42} {tally.failed / max(tally.attempted, 1):>14.6g} fraction")
    for name, value in sorted(outcome.notes.items()):
        if name != "problems":
            print(f"   ({name}: {value})")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, failure_kinds=tally.kinds, problems=problems,
                  notes={k: v for k, v in outcome.notes.items() if k != "problems"})
    (args.out / f"RESULT_{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if outcome.trace is not None:
        (args.out / f"TRACE_{args.workload}.json").write_text(json.dumps(outcome.trace))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(args.out),
        ]
        # Terminated rather than killed on the way out, so the workload
        # closes its own service and workers before it exits.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait()
        lines = stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"== {name}: exited {proc.returncode} without a result", flush=True)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def _children() -> List[int]:
    """Pids of this process's children, live or not yet reaped."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_bytes()
        except OSError:
            continue
        # The fields after the command name: state, then the parent pid.
        if int(stat[stat.rindex(b")") + 2 :].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    Publishing the process tier's weights in shared memory starts
    Python's multiprocessing resource tracker, a child that would
    otherwise outlive this process; it is asked to exit and reaped.  Any
    other child still here is killed and reaped."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv: List[str]) -> int:
    """Entry point."""
    args = _parse(argv)
    _import_program()
    args.out = args.out.resolve()
    # A terminated run unwinds like an exception, so services close and
    # children are stopped on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
