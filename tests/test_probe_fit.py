"""Smoke run of ``benchmarks/probe_fit.py`` at tiny sizes.

No timing is asserted: the run proves the probe still fits through the
public API, that repeated fits predict identically (the probe raises
otherwise), and that it reports every phase of every fit plus a median
and a share row.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

PROBE = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "probe_fit.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("probe_fit", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_runs_at_tiny_sizes(capsys):
    probe = _load_probe()
    rows = probe.main([
        "--repeats", "2", "--plans", "24", "--heldout", "8", "--envs", "2",
        "--epochs", "1", "--template-scale", "1",
    ])
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"wall", *probe.PHASES}
        for phase in ("snapshot", "fit1", "fr", "fit2"):
            assert row[phase] > 0, phase
        assert sum(row[phase] for phase in probe.PHASES) == pytest.approx(row["wall"])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["fit", "wall", *probe.PHASES]
    assert [line.split()[0] for line in printed[1:]] == ["0", "1", "median", "share"]
    assert float(printed[-1].split()[1]) == pytest.approx(1.0)
