"""Process-tier fixtures: fast supervision timings and a shared tier."""

from __future__ import annotations

import time

import pytest

from repro.cluster.proc import ProcClusterService, ProcConfig


def fast_config(**overrides) -> ProcConfig:
    """Supervision timings tight enough for tests that must never
    hang, loose enough not to flake on a loaded CI box."""
    defaults = dict(
        request_timeout_s=30.0,
        boot_timeout_s=45.0,
        sync_timeout_s=45.0,
        heartbeat_interval_s=0.5,
        heartbeat_miss_limit=20,
        max_revives=2,
        poll_interval_s=0.02,
    )
    defaults.update(overrides)
    return ProcConfig(**defaults)


def poll(predicate, timeout_s: float = 20.0, interval_s: float = 0.02) -> bool:
    """Spin until *predicate* is truthy (bounded); True on success."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


@pytest.fixture(scope="package")
def proc_service(cluster_bundle):
    """A 2-worker process tier with the package bundle deployed
    (package-scoped: shared by non-destructive tests only — fault
    tests spawn their own fleets)."""
    bundle, _labeled = cluster_bundle
    service = ProcClusterService(worker_count=2, config=fast_config())
    service.deploy(bundle)
    yield service
    service.close()
