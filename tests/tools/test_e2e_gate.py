"""The end-to-end perf gate's run order and exit mapping."""

from __future__ import annotations

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import e2e_gate  # noqa: E402


def test_each_pair_runs_both_sides_of_a_workload_back_to_back():
    runs = e2e_gate.schedule(["a", "b"], pairs=3)
    assert len(runs) == 2 * 2 * 3
    for first, second in zip(runs[::2], runs[1::2], strict=True):
        assert first[:2] == second[:2]  # same pair (seed) and workload
        assert {first[2], second[2]} == {"base", "head"}


def test_the_side_that_runs_first_alternates_between_pairs():
    runs = e2e_gate.schedule(["a", "b"], pairs=4)
    firsts = {(pair, workload): side for pair, workload, side in runs[::2]}
    assert [firsts[(pair, "a")] for pair in range(4)] == ["base", "head", "base", "head"]
    assert [firsts[(pair, "b")] for pair in range(4)] == ["base", "head", "base", "head"]
    # Pairs run in order, every workload within a pair before the next.
    assert [pair for pair, _, _ in runs] == sorted(pair for pair, _, _ in runs)


def test_head_failures_count_only_where_the_paired_base_passed():
    exits = {
        (0, "a", "base"): 0, (0, "a", "head"): 1,  # head broke a check
        (0, "b", "base"): 1, (0, "b", "head"): 1,  # both fail: not the head's doing
        (1, "a", "base"): 0, (1, "a", "head"): 0,
    }
    assert e2e_gate.head_only_failures(exits) == [(0, "a", "head")]


def test_exit_code_is_compares_verdict_then_head_only_failures():
    failure = [(0, "a", "head")]
    assert e2e_gate.exit_code(0, []) == 0
    assert e2e_gate.exit_code(1, []) == 1
    assert e2e_gate.exit_code(2, []) == 2
    assert e2e_gate.exit_code(0, failure) == 1
    assert e2e_gate.exit_code(2, failure) == 2
