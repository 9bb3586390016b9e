"""QCFE: efficient feature engineering for query cost estimation.

Reproduction of Yan et al., ICDE 2024 (arXiv:2310.00877).  See
``docs/ARCHITECTURE.md`` for the subsystem map and request lifecycle.

Public entry points:

- :mod:`repro.core` — feature snapshot, simplified templates,
  difference-propagation feature reduction, and the QCFE pipeline;
- :mod:`repro.models` — QPPNet, MSCN and the PostgreSQL baseline;
- :mod:`repro.engine` — the PostgreSQL-style planner/executor simulator;
- :mod:`repro.eval` — metrics and the per-table/figure experiments;
- :mod:`repro.serving` — the online, batched, cached cost service;
- :mod:`repro.cluster` — the multi-process replica serving tier.

``benchmarks/e2e`` measures the program from outside, and
``tools/e2e_gate.py`` runs it on a base and a head commit as the perf
gate (``docs/BENCHMARKING.md``).
"""

from .errors import (
    ClusterError,
    FeatureError,
    ParseError,
    PlanError,
    ReproError,
    SchemaError,
    ServingError,
    ShardDownError,
    ShardOverloadError,
    SnapshotError,
    TrainingError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SchemaError",
    "ParseError",
    "PlanError",
    "TrainingError",
    "FeatureError",
    "SnapshotError",
    "ServingError",
    "ClusterError",
    "ShardDownError",
    "ShardOverloadError",
    "__version__",
]
