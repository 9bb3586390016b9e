"""The label fingerprint: every simulated label and estimate, pinned.

Labels are the ground truth of every experiment, so a change to the
planner or simulator that is meant to be a pure speed-up must leave
each of them unchanged to the last bit.  This module hashes, with
sha256, the per-node ``actual_ms``, ``actual_total_ms``, ``true_rows``,
``est_rows`` and ``est_total_cost`` plus the per-plan ``latency_ms`` of
``collect_labeled_plans`` on ``tpch`` (3 environments, 64 plans), and
the coefficient bytes of one ``QCFE.fit_snapshot``.

The recorded values live in ``golden/label_fingerprint.json`` as
``float.hex`` strings, together with the numpy version they were
recorded on.  Under that numpy version the digests must match exactly.
Under another version ``np.exp`` and LAPACK may differ in the last ulp,
so the values are compared with a relative tolerance instead, as
``tests/persist/test_golden.py`` does: ``1e-12`` for the labels, and
``1e-9`` for the least-squares coefficients (see
``CROSS_VERSION_RTOL``).

Regenerate only for a change that is meant to move labels::

    PYTHONPATH=src python tests/workload/test_label_fingerprint.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
import sys
from typing import Dict, List

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.core import QCFE, QCFEConfig  # noqa: E402
from repro.engine.environment import random_environments  # noqa: E402
from repro.workload.collect import collect_labeled_plans, get_benchmark  # noqa: E402

EXPECTED = pathlib.Path(__file__).resolve().parent / "golden" / "label_fingerprint.json"

ENV_COUNT = 3
ENV_SEED = 0
PLAN_COUNT = 64
PLAN_SEED = 0
TEMPLATE_SCALE = 4

NODE_FIELDS = ("actual_ms", "actual_total_ms", "true_rows", "est_rows", "est_total_cost")


def label_values(benchmark=None) -> List[float]:
    """Every label and estimate of the pinned collection, in walk order."""
    benchmark = benchmark or get_benchmark("tpch")
    envs = random_environments(ENV_COUNT, seed=ENV_SEED)
    values: List[float] = []
    for record in collect_labeled_plans(benchmark, envs, PLAN_COUNT, seed=PLAN_SEED):
        for node in record.plan.walk():
            values.extend(float(getattr(node, name)) for name in NODE_FIELDS)
        values.append(float(record.latency_ms))
    return values


def coefficient_values(benchmark=None) -> List[float]:
    """The fitted snapshot coefficients, environment by operator."""
    benchmark = benchmark or get_benchmark("tpch")
    envs = random_environments(ENV_COUNT, seed=ENV_SEED)
    pipeline = QCFE(benchmark, envs, QCFEConfig(template_scale=TEMPLATE_SCALE))
    snapshot_set, _ = pipeline.fit_snapshot()
    values: List[float] = []
    for env in snapshot_set.env_names:
        coefficients = snapshot_set.raw(env).coefficients
        for op in sorted(coefficients, key=lambda o: o.value):
            values.extend(float(v) for v in np.asarray(coefficients[op], dtype=np.float64))
    return values


def digest(values: List[float]) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def record() -> Dict[str, object]:
    out: Dict[str, object] = {"numpy": np.__version__}
    for name, values in (("labels", label_values()), ("coefficients", coefficient_values())):
        out[name] = {"sha256": digest(values), "values": [v.hex() for v in values]}
    return out


#: Cross-version tolerance.  Labels go through elementwise ``np.exp``
#: only; the coefficients come out of ``np.linalg.lstsq`` on design
#: matrices whose columns differ by orders of magnitude, which
#: amplifies a LAPACK last-ulp difference by the condition number.
CROSS_VERSION_RTOL = {"labels": 1e-12, "coefficients": 1e-9}


def _check(name: str, got: List[float]) -> None:
    expected = json.loads(EXPECTED.read_text())
    want = [float.fromhex(v) for v in expected[name]["values"]]
    assert len(got) == len(want), f"{name}: {len(got)} values, recorded {len(want)}"
    if expected["numpy"] == np.__version__:
        if digest(got) != expected[name]["sha256"]:
            first = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            raise AssertionError(
                f"{name} fingerprint moved: value {first} is {got[first]!r}, "
                f"recorded {want[first]!r}"
            )
    else:
        np.testing.assert_allclose(
            got, want, rtol=CROSS_VERSION_RTOL[name], err_msg=name
        )


def test_labels_match_the_recorded_fingerprint():
    _check("labels", label_values())


def test_snapshot_coefficients_match_the_recorded_fingerprint():
    _check("coefficients", coefficient_values())


if __name__ == "__main__":
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {EXPECTED}")
