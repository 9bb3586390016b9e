"""repro.persist — durable checkpoints & warm restart for the serving
stack.

Everything the serving tier computes that is expensive to recompute —
trained estimator weights, fitted feature snapshots, prepared feature
encodings, adaptation drift state and feedback windows — can be
serialized into a schema-versioned, integrity-hashed checkpoint file
and restored into a fresh process, producing **bit-identical**
predictions:

- :mod:`repro.persist.codec` — the state-tree codec (JSON manifest +
  binary array blobs, plan/labelled-plan codecs);
- :mod:`repro.persist.checkpoint` — the container format, one image
  on disk and in the process tier's ``sync`` frame: atomic
  write-temp-then-rename, per-blob and payload hashes, bounded
  retention, newest-loadable-first restore;
- :mod:`repro.persist.service_state` — whole-
  :class:`~repro.serving.CostService` state assembly (registry,
  snapshot store, feature cache, adaptation loop);
- :mod:`repro.persist.checkpointer` — the background
  :class:`Checkpointer` thread (interval + dirty-triggered).

The warm-boot entry points most callers want are on the services
themselves: :meth:`repro.serving.CostService.save` /
:meth:`~repro.serving.CostService.restore` and
:meth:`repro.cluster.ClusterService.save` /
:meth:`~repro.cluster.ClusterService.restore` /
:meth:`~repro.cluster.ClusterService.restart_shard`.  A corrupt or
version-mismatched checkpoint never crashes a boot: restore falls back
to older retained checkpoints, then to a cold start.
"""

from typing import Optional, Tuple

import pathlib

from ..errors import CheckpointCorruptError, CheckpointError
from .checkpoint import (
    SCHEMA_VERSION,
    checkpoint_path,
    decode_checkpoint,
    encode_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    restore_latest,
    save_checkpoint,
    write_retained,
    write_retained_bytes,
)
from .checkpointer import Checkpointer, dirty_token
from .codec import (
    BlobStore,
    decode_state,
    encode_state,
    labeled_plan_from_state,
    labeled_plan_to_state,
    plan_from_state,
    plan_to_state,
)
from .service_state import (
    bundle_from_state,
    bundle_to_state,
    estimator_from_state,
    estimator_to_state,
    restore_service,
    service_state,
)

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serving.service import CostService


def save_service_checkpoint(
    service: "CostService",
    directory: "pathlib.Path | str",
    retain: int = 3,
) -> pathlib.Path:
    """Write *service*'s full state as the next retained checkpoint
    under *directory*; returns the new file's path."""
    return write_retained(
        service_state(service),
        directory,
        retain=retain,
        meta={"kind": "cost_service"},
    )


def restore_service_checkpoint(
    service: "CostService", directory: "pathlib.Path | str"
) -> Tuple[bool, Optional[pathlib.Path]]:
    """Warm-boot *service* from the newest loadable checkpoint under
    *directory*.

    Returns ``(True, path)`` on a warm boot.  Returns ``(False, None)``
    — the cold-start failover — when the directory holds no checkpoint,
    or every checkpoint is corrupt, version-mismatched or otherwise
    unrestorable.  It never raises for bad checkpoints: a restart must
    come up cold rather than crash-loop on damaged state.
    """
    try:
        state, _, path = restore_latest(directory)
        restore_service(service, state)
        return True, path
    except CheckpointError:
        return False, None


__all__ = [
    "BlobStore",
    "CheckpointCorruptError",
    "CheckpointError",
    "Checkpointer",
    "SCHEMA_VERSION",
    "bundle_from_state",
    "bundle_to_state",
    "checkpoint_path",
    "decode_checkpoint",
    "decode_state",
    "dirty_token",
    "encode_checkpoint",
    "encode_state",
    "estimator_from_state",
    "estimator_to_state",
    "labeled_plan_from_state",
    "labeled_plan_to_state",
    "list_checkpoints",
    "load_checkpoint",
    "plan_from_state",
    "plan_to_state",
    "read_manifest",
    "restore_latest",
    "restore_service",
    "restore_service_checkpoint",
    "save_checkpoint",
    "save_service_checkpoint",
    "service_state",
    "write_retained",
    "write_retained_bytes",
]
