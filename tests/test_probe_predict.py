"""Smoke run of ``benchmarks/probe_predict.py`` at tiny sizes.

No timing is asserted: the run proves the probe still fits its bundle
through the public API, that every flush it times is bit-identical to
one-plan predicts (the probe raises otherwise), and that it reports a
``prepare_one`` row and one ``predict`` row per flush size.
"""

from __future__ import annotations

import importlib.util
import pathlib

PROBE = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "probe_predict.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("probe_predict", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_runs_at_tiny_sizes(capsys):
    rows = _load_probe().main([
        "--sizes", "1,4,5", "--repeats", "2", "--calls", "8",
        "--bundle-plans", "24", "--epochs", "1", "--template-scale", "1",
        "--items", "12",
    ])
    assert [(row["call"], row["flush"]) for row in rows] == [
        ("prepare_one", 1), ("predict", 1), ("predict", 4), ("predict", 5),
    ]
    for row in rows:
        assert row["us_per_call"] > 0 and row["us_per_row"] > 0
        assert row["groups"] >= 1
    # A flush of several plans runs at least as many groups as one plan.
    assert rows[2]["groups"] >= rows[1]["groups"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["call", "flush", "us/call", "us/row", "groups"]
    assert len(printed) == 1 + len(rows)
