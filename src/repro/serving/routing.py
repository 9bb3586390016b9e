"""Per-request backend routing over the estimator registry.

The :class:`BackendRouter` is the piece that makes one
:class:`~repro.serving.CostService` serve a mixed fleet: every request
may carry a *backend tag*, and the router maps that tag to the bundle
that answers it —

1. an explicitly named bundle, verified to serve the tagged backend
   (a mismatch is a caller bug and raises
   :class:`~repro.errors.ServingError`);
2. otherwise the first (name-sorted) *learned* bundle deployed for the
   backend;
3. otherwise a deployed native-cost fallback bundle for the backend;
4. otherwise a fresh fallback bundle auto-deployed from the backend
   profile's default calibration
   (:meth:`~repro.backends.BackendProfile.native_estimator`), so a
   backend with no learned model still answers — FasCo's
   cheap-native-model argument, operationalized.

Unknown tags raise the typed
:class:`~repro.errors.UnknownBackendError` *before* any estimator work
happens, so the replica tier treats them as caller errors: no replica
health damage, no failover.

The replica tier resolves through this class inside each worker's
service, so its routing decisions and an in-process service's are
identical by construction.  Routing is deterministic — sorted names,
fixed preference order — which is what keeps process-tier estimates
bit-identical to in-process ones per backend.

Counters (``routed``/``learned``/``native_fallback`` per backend,
error and auto-deploy totals) register into the service's metrics
registry as the ``backends`` section; the section is omitted until the
first routed request so single-backend deployments' counter snapshots
are unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..backends import BackendProfile, get_backend
from ..errors import ServingError
from ..models.native import NativeCostEstimator
from ..obs.lockwatch import make_lock
from .registry import EstimatorBundle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import CostService


class BackendRouter:
    """Maps request backend tags to deployed bundles, with counters."""

    def __init__(self, service: "CostService"):
        self.service = service
        self._lock = make_lock("serving.backend_router")
        self._routed: Dict[str, int] = {}
        self._learned: Dict[str, int] = {}
        self._native: Dict[str, int] = {}
        self._auto_deployed = 0
        self._unknown_backend_errors = 0
        self._mismatch_errors = 0

    # ------------------------------------------------------------------
    def resolve(self, name: Optional[str], backend: str) -> EstimatorBundle:
        """The bundle that answers a request tagged with *backend*.

        *name* (when given) pins the bundle explicitly and is verified
        against the tag; otherwise the preference order is learned
        bundle, deployed native fallback, auto-deployed native
        fallback (see the module docstring).
        """
        try:
            profile = get_backend(backend)
        except ServingError:
            with self._lock:
                self._unknown_backend_errors += 1
            raise
        registry = self.service.registry
        if name is not None:
            bundle = registry.get(name)
            if bundle.backend != backend:
                with self._lock:
                    self._mismatch_errors += 1
                raise ServingError(
                    f"bundle {name!r} serves backend {bundle.backend!r}, "
                    f"not the requested {backend!r}"
                )
        else:
            candidates = registry.bundles_for_backend(backend)
            learned = [
                b
                for b in candidates
                if not isinstance(b.estimator, NativeCostEstimator)
            ]
            if learned:
                bundle = learned[0]
            elif candidates:
                bundle = candidates[0]
            else:
                bundle = self._deploy_native_fallback(profile)
        self._count(bundle, backend)
        return bundle

    def _count(self, bundle: EstimatorBundle, backend: str) -> None:
        kind = (
            self._native
            if isinstance(bundle.estimator, NativeCostEstimator)
            else self._learned
        )
        with self._lock:
            self._routed[backend] = self._routed.get(backend, 0) + 1
            kind[backend] = kind.get(backend, 0) + 1

    def _deploy_native_fallback(
        self, profile: BackendProfile
    ) -> EstimatorBundle:
        """Deploy ``native-<backend>`` from the profile's calibration.

        Serialized under the router lock so concurrent first requests
        for one backend deploy a single bundle.  The fallback borrows
        the catalog of the first deployed bundle that carries one (for
        SQL parsing); with none it still serves pre-built plans.
        """
        name = f"native-{profile.name}"
        registry = self.service.registry
        with self._lock:
            if name in registry:
                return registry.get(name)
            benchmark = None
            for deployed_name in registry.names():
                candidate = registry.get(deployed_name)
                if candidate.benchmark is not None:
                    benchmark = candidate.benchmark
                    break
            bundle = EstimatorBundle(
                name=name,
                estimator=profile.native_estimator(),
                benchmark=benchmark,
                backend=profile.name,
                metadata={
                    "native_fallback": True,
                    "cost_unit": profile.cost_unit,
                },
            )
            deployed = self.service.deploy(bundle)
            self._auto_deployed += 1
            return deployed

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, object]:
        """All routing counters, copied atomically under the lock."""
        with self._lock:
            return {
                "routed": dict(self._routed),
                "learned": dict(self._learned),
                "native_fallback": dict(self._native),
                "auto_deployed": self._auto_deployed,
                "unknown_backend_errors": self._unknown_backend_errors,
                "mismatch_errors": self._mismatch_errors,
            }

    def counters_or_none(self) -> Optional[Dict[str, object]]:
        """:meth:`stats_snapshot`, or None before any routed request —
        keeps the ``backends`` metrics section out of single-backend
        deployments' snapshots (and their committed bench baselines)."""
        with self._lock:
            touched = (
                bool(self._routed)
                or self._unknown_backend_errors
                or self._mismatch_errors
            )
        return self.stats_snapshot() if touched else None
