"""repro.cluster.proc — the multi-process serving tier.

Escapes the GIL: replicas are real worker processes (own interpreter,
own pid), so cluster throughput can scale with cores instead of being
time-sliced inside one interpreter.  The pieces:

- :mod:`~repro.cluster.proc.protocol` — length-prefixed JSON/binary
  frames with per-request ids, hard size caps and typed error frames;
  a ``sync`` frame carries the model weights in its binary tail;
- :mod:`~repro.cluster.proc.worker` — the child process: one
  ``CostService`` that starts empty and installs the state ``sync``
  frames carry, serving frames until EOF;
- :mod:`~repro.cluster.proc.supervisor` — spawn/kill/revive/eject over
  real pids, with sentinel-fd death certification and a heartbeat
  that doubles as the counters pull;
- :mod:`~repro.cluster.proc.service` — :class:`ProcClusterService`,
  the same ``estimate`` / ``estimate_many`` / ``estimate_async`` /
  ``report`` surface as one ``CostService``.

See ``docs/SERVING.md`` (process tier) for the wire format, how the
weights reach the workers and the supervisor state machine.
"""

from .service import ProcClusterService
from .supervisor import ProcConfig, ProcSupervisor, WorkerHandle

__all__ = [
    "ProcClusterService",
    "ProcConfig",
    "ProcSupervisor",
    "WorkerHandle",
]
