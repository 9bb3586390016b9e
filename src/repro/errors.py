"""Exception hierarchy for the repro package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SchemaError(ReproError):
    """A table, column or index reference does not exist in the catalog."""


class ParseError(ReproError):
    """A SQL text or template could not be parsed."""


class PlanError(ReproError):
    """A physical plan could not be built or is structurally invalid."""


class TrainingError(ReproError):
    """A learned model could not be trained or used for inference."""


class FeatureError(ReproError):
    """A feature vector has the wrong shape or refers to unknown dims."""


class SnapshotError(ReproError):
    """A feature snapshot could not be fitted or applied."""


class ServingError(ReproError):
    """The online estimation service was misused or misconfigured."""


class ObservabilityError(ReproError):
    """An observability component (metrics, tracing, events) was
    misused: bad quantile, unknown event type, malformed series."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, read or applied (including
    unknown schema versions and state the running build cannot
    rebuild)."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed an integrity check: bad magic, a
    truncated manifest or payload, or a blob hash mismatch."""


class ClusterError(ServingError):
    """The replica tier could not route or serve a request."""


class ShardDownError(ClusterError):
    """A request reached a replica that is dead or ejected."""


class ShardOverloadError(ClusterError):
    """Admission control shed a request: the replica's in-flight gate
    is full."""


class ProtocolError(ClusterError):
    """An IPC frame between supervisor and worker was malformed:
    bad magic, impossible lengths, truncated payload, unparseable
    header, or a reply that violates the request/response contract."""


class WorkerDiedError(ShardDownError):
    """A worker process died (or its connection broke) while a request
    was in flight; the supervisor may revive it, the caller may retry
    on another worker."""


class WorkerTimeoutError(ClusterError):
    """A worker did not answer a request within its deadline.  The
    worker may merely be slow, so the request is *not* retried on
    another replica; the supervisor's heartbeat decides its fate."""
