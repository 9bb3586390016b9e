"""repro.cluster — the sharded, multi-replica serving tier.

Scales :class:`~repro.serving.CostService` horizontally while keeping
its API:

- :class:`ShardRouter` — rendezvous (HRW) hashing of tenants across
  replicas: deterministic across processes, and an ejection moves
  only the ejected shard's tenants;
- :class:`AdmissionController` — bounded per-shard in-flight depth
  with load shedding and a shed counter, so overload degrades
  predictably instead of collapsing a replica;
- :class:`ReplicaTier` — the routing/failover core both facades below
  inherit (routing counters, admission, the failover loop, the one
  failure-classification table, the ``cluster`` metrics section); a
  tier adds only its replica lookup and its ``"shard"``/``"worker"`` kind;
- :class:`ClusterService` — the facade: N independent ``CostService``
  replicas (own registry, caches, batcher, adaptation loop) behind
  the same ``estimate`` / ``estimate_many`` / ``estimate_async`` /
  ``record_feedback`` / ``report`` surface, with per-shard health
  tracking, failure ejection and failover re-routing;
- :class:`ProcClusterService` (:mod:`repro.cluster.proc`) — the same
  facade over real worker *processes*: per-pid ``CostService``
  replicas behind a length-prefixed IPC protocol that also carries
  the model weights to every worker, and a supervisor that
  spawns/kills/revives/ejects pids with sentinel-fd death detection.

See ``docs/ARCHITECTURE.md`` for where this sits in the request
lifecycle and ``docs/SERVING.md`` for operational guarantees.
"""

from .admission import AdmissionController
from .proc import ProcClusterService, ProcConfig
from .router import ShardHealth, ShardRouter, rendezvous_score
from .service import ClusterService, ClusterShard
from .tier import ClusterStats, ReplicaTier

__all__ = [
    "AdmissionController",
    "ClusterService",
    "ClusterShard",
    "ClusterStats",
    "ProcClusterService",
    "ProcConfig",
    "ReplicaTier",
    "ShardHealth",
    "ShardRouter",
    "rendezvous_score",
]
