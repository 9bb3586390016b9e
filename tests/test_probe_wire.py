"""Smoke run of ``benchmarks/probe_wire.py`` at tiny sizes.

No timing is asserted: the run proves the probe still fits its bundle
and drives a worker runtime through the public API, that every
outcome it times equals the in-process estimate bit for bit and every
blob it re-encodes the first one (the probe raises otherwise), and
that it reports one row per (path, drain) case plus the parent's
``encode`` row.
"""

from __future__ import annotations

import importlib.util
import pathlib

PROBE = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "probe_wire.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("probe_wire", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_runs_at_tiny_sizes(capsys):
    rows = _load_probe().main([
        "--drains", "1,3", "--repeats", "2", "--bundle-plans", "24",
        "--epochs", "1", "--template-scale", "1", "--items", "7",
    ])
    assert [(row["path"], row["drain"]) for row in rows] == [
        ("hit", 1), ("hit", 3), ("miss", 1), ("miss", 3), ("encode", None)
    ]
    assert all(row["us_per_request"] > 0 for row in rows)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["path", "drain", "us/req"]
    assert len(printed) == 1 + len(rows)
    assert printed[-1].split()[:2] == ["encode", "-"]
