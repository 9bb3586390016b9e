#!/usr/bin/env python
"""Perf gate: the end-to-end benchmark on a base commit and on HEAD.

Exports the committed trees of ``--base`` and of ``HEAD`` with ``git
archive`` into ``build/e2e-gate/{base,head}/``, then runs
``BENCHMARK.json``'s ``command`` once per workload, side and pair, each
from its own tree::

    <command> --workload W --seed K --seconds <run_seconds> --trace 0

Pair ``K`` (seed ``K``) runs base then head for every workload when
``K`` is even and head then base when it is odd, so a drift of the
host's speed lands on both sides.  The runs' ``RESULT_*.json`` files
stay in each tree's ``bench-out/e2e/``; ``benchmarks/e2e/compare.py``
of the head tree then judges head against base with the bounds of the
head's ``BENCHMARK.json``.

Exit code: ``compare.py``'s (1 if any metric is ``worse``, 2 if
nothing could be compared), else 1 if a head run failed its checks
while the base run it was paired with passed, else 0.

Usage (stdlib only, from anywhere in the repository)::

    python tools/e2e_gate.py --base origin/main --pairs 3
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
from typing import Dict, List, Sequence, Tuple

SIDES = ("base", "head")

#: One run: (pair index, which is also the seed; workload; side).
Run = Tuple[int, str, str]


def schedule(workloads: Sequence[str], pairs: int) -> List[Run]:
    """Every run in the order the gate makes them: pair by pair, each
    workload's two sides back to back, base first in even pairs."""
    runs: List[Run] = []
    for pair in range(pairs):
        sides = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            runs.extend((pair, workload, side) for side in sides)
    return runs


def head_only_failures(exits: Dict[Run, int]) -> List[Run]:
    """Head runs that exited non-zero while their paired base run
    exited zero: checks the head broke, not ones the base already
    failed."""
    return sorted(
        (pair, workload, side)
        for (pair, workload, side), code in exits.items()
        if side == "head" and code != 0 and exits.get((pair, workload, "base")) == 0
    )


def exit_code(compare_code: int, failures: Sequence[Run]) -> int:
    """The gate's exit code from ``compare.py``'s and the head-only
    run failures."""
    if compare_code != 0:
        return compare_code
    return 1 if failures else 0


def _git(root: pathlib.Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, stdout=subprocess.PIPE
    ).stdout


def export_tree(root: pathlib.Path, ref: str, dest: pathlib.Path) -> str:
    """Extract the committed files of *ref* into *dest*; its sha."""
    sha = _git(root, "rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    archive = subprocess.Popen(
        ["git", "-C", str(root), "archive", "--format=tar", sha],
        stdout=subprocess.PIPE,
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def main(argv: Sequence[str]) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare HEAD against")
    parser.add_argument("--pairs", type=int, default=3, help="base/head pairs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = pathlib.Path(
        _git(pathlib.Path(__file__).resolve().parent, "rev-parse", "--show-toplevel")
        .decode()
        .strip()
    )
    # Under build/, which pytest does not descend into: the exported
    # trees hold test suites of their own.
    work = root / "build" / "e2e-gate"
    shutil.rmtree(work, ignore_errors=True)
    trees = {side: work / side for side in SIDES}
    refs = {"base": args.base, "head": "HEAD"}
    for side in SIDES:
        trees[side].mkdir(parents=True)
        print(f"{side}: {export_tree(root, refs[side], trees[side])}", flush=True)

    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    runs = schedule(workloads, args.pairs)
    exits: Dict[Run, int] = {}
    for number, (pair, workload, side) in enumerate(runs, start=1):
        print(f"== run {number}/{len(runs)}: pair {pair} {workload} {side}", flush=True)
        command = list(spec["command"]) + [
            "--workload", workload, "--seed", str(pair),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        exits[(pair, workload, side)] = subprocess.run(
            command, cwd=trees[side], env=env
        ).returncode

    failures = head_only_failures(exits)
    for pair, workload, _ in failures:
        print(f"head failed its checks on {workload} pair {pair}; base passed")
    compared = subprocess.run(
        [
            sys.executable,
            str(trees["head"] / "benchmarks" / "e2e" / "compare.py"),
            str(trees["base"] / "bench-out" / "e2e"),
            str(trees["head"] / "bench-out" / "e2e"),
        ]
    ).returncode
    code = exit_code(compared, failures)
    print(f"e2e gate: exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
