"""Benchmark harness configuration.

Every bench regenerates one table/figure of the paper at a reduced
default scale (override with QCFE_SCALE / QCFE_EPOCHS / QCFE_ENVS) and
writes the rendered result to ``benchmarks/results/<name>.txt`` in the
paper's row/series format, in addition to printing it.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.eval.harness import ExperimentContext
from repro.workload.collect import collect_labeled_plans, get_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="smoke mode: minimal scales so CI stress jobs can run the "
        "serving/drift benches on every push",
    )


@pytest.fixture(scope="session")
def quick(request):
    """True under ``--quick``: benches shrink to smoke-test scale."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def sizes(quick):
    """Labelled plans and epochs of the stress benches' bundles."""
    return {"plans": 48, "epochs": 2} if quick else {"plans": 96, "epochs": 4}


@pytest.fixture(scope="session")
def sysbench_setup(sizes):
    """``(bundle, labeled, envs)``: a QPPNet bundle fitted on Sysbench
    plans over two knob environments, shared by the stress benches."""
    benchmark = get_benchmark("sysbench")
    envs = random_environments(2, seed=3)
    labeled = collect_labeled_plans(benchmark, envs, sizes["plans"], seed=1)
    pipeline = QCFE(
        benchmark,
        envs,
        QCFEConfig(model="qppnet", epochs=sizes["epochs"], template_scale=4),
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle(), labeled, envs


@pytest.fixture(scope="session")
def context():
    """One shared context so benches reuse labelled collections."""
    return ExperimentContext(seed=0)


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}")

    return save
