"""repro.cluster — the multi-replica serving tier.

Scales :class:`~repro.serving.CostService` across worker processes
while keeping its API:

- :class:`ShardRouter` — rendezvous (HRW) hashing of tenants across
  replicas: deterministic across processes, and an ejection moves
  only the ejected replica's tenants;
- :class:`AdmissionController` — bounded per-replica in-flight depth
  with load shedding and a shed counter, so overload degrades
  predictably instead of collapsing a replica;
- :class:`ReplicaTier` — the process-free routing/failover core
  (routing counters, admission, the failover loop, the one
  failure-classification table, the ``cluster`` metrics section);
  a subclass adds only its replica lookup;
- :class:`ProcClusterService` (:mod:`repro.cluster.proc`) — the
  facade over real worker *processes*: per-pid ``CostService``
  replicas behind the same ``estimate`` / ``estimate_many`` /
  ``estimate_async`` / ``report`` surface, a
  length-prefixed IPC protocol that also carries the model weights to
  every worker, and a supervisor that spawns/kills/revives/ejects pids
  with sentinel-fd death detection.

See ``docs/ARCHITECTURE.md`` for where this sits in the request
lifecycle and ``docs/SERVING.md`` for operational guarantees.
"""

from .admission import AdmissionController
from .proc import ProcClusterService, ProcConfig
from .router import ShardHealth, ShardRouter, rendezvous_score
from .tier import ClusterStats, ReplicaTier

__all__ = [
    "AdmissionController",
    "ClusterStats",
    "ProcClusterService",
    "ProcConfig",
    "ReplicaTier",
    "ShardHealth",
    "ShardRouter",
    "rendezvous_score",
]
