"""The checkpoint container: manifest + blobs, written atomically.

A checkpoint is one byte image — the same bytes as a file on disk and
as the tail of the process tier's ``sync`` frame::

    magic          b"QCFE-CKPT\\x00"          (10 bytes)
    manifest_len   big-endian uint64           (8 bytes)
    manifest       UTF-8 JSON                  (manifest_len bytes)
    payload        concatenated binary blobs   (rest of the image)

The manifest carries ``schema_version``, free-form ``meta``, the
encoded ``state`` tree (arrays as blob references, see
:mod:`repro.persist.codec`) and a ``blobs`` table of
``{offset, length, sha256}`` entries with offsets relative to the
payload region, plus a ``payload_sha256`` over the whole payload.

:func:`encode_checkpoint` builds the image and
:func:`decode_checkpoint` verifies and decodes it;
:func:`save_checkpoint` / :func:`load_checkpoint` add the file.

Durability invariants:

- **Atomic visibility** — :func:`save_checkpoint` writes a ``.tmp``
  sibling, flushes and fsyncs it, then ``os.replace``\\ s it into
  place.  A reader can never observe a half-written checkpoint under
  the final name; a crash mid-write leaves (at most) a ``.tmp`` file
  that no loader ever considers.
- **Integrity on load** — :func:`decode_checkpoint` verifies magic,
  manifest framing, per-blob bounds and hashes, and the payload hash;
  any mismatch raises :class:`~repro.errors.CheckpointCorruptError`.
- **Versioning** — a manifest whose ``schema_version`` this build does
  not understand raises a clean :class:`~repro.errors.CheckpointError`
  (never a crash), so future format changes degrade to a cold start.
- **Bounded retention** — :func:`write_retained_bytes` numbers checkpoints
  ``ckpt-<seq>.qcp`` and prunes the oldest beyond ``retain``;
  :func:`restore_latest` walks newest → oldest, skipping unloadable
  files, so one corrupt write never erases a good predecessor.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import struct
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import CheckpointCorruptError, CheckpointError
from .codec import BlobStore, decode_state, encode_state

#: File magic: identifies (and versions the framing of) the container.
MAGIC = b"QCFE-CKPT\x00"
#: Manifest schema this build writes.  v2 added the per-bundle
#: ``backend`` field (multi-backend routing); v1 checkpoints restore
#: with every bundle defaulting to the default backend.
SCHEMA_VERSION = 2
#: Manifest schemas this build reads.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})

_HEADER = struct.Struct(">Q")
_NAME_RE = re.compile(r"^ckpt-(\d{8})\.qcp$")
#: Suffix of in-flight writes; never matched by :func:`list_checkpoints`.
TMP_SUFFIX = ".tmp"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode(
    state: object, meta: Optional[Mapping[str, object]]
) -> Tuple[bytes, Dict[str, object]]:
    """The image of *state* and its manifest (see :func:`encode_checkpoint`)."""
    store = BlobStore()
    encoded = encode_state(state, store)
    offsets: List[Dict[str, object]] = []
    payload_hash = hashlib.sha256()
    offset = 0
    for blob in store.blobs:
        offsets.append(
            {"offset": offset, "length": len(blob), "sha256": _sha256(blob)}
        )
        payload_hash.update(blob)
        offset += len(blob)
    manifest: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "meta": dict(meta or {}),
        "state": encoded,
        "blobs": offsets,
        "payload_sha256": payload_hash.hexdigest(),
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    image = b"".join(
        [MAGIC, _HEADER.pack(len(manifest_bytes)), manifest_bytes, *store.blobs]
    )
    return image, manifest


def encode_checkpoint(
    state: object, meta: Optional[Mapping[str, object]] = None
) -> bytes:
    """The checkpoint image of *state*: the exact bytes
    :func:`save_checkpoint` writes and :func:`decode_checkpoint` reads.
    Raises :class:`CheckpointError` on a value the codec cannot encode."""
    return _encode(state, meta)[0]


def save_checkpoint(
    state: object,
    path: "pathlib.Path | str",
    meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Serialize *state* to *path* atomically; returns the manifest."""
    image, manifest = _encode(state, meta)
    _write_atomic(image, pathlib.Path(path))
    return manifest


def _write_atomic(data: bytes, path: pathlib.Path) -> None:
    """Write *data* to *path* through a fsynced temp file and a rename.

    The temp file is written next to *path* (same filesystem, so the
    final ``os.replace`` is atomic) and removed on any failure; an
    ``OSError`` from the write or the rename raises
    :class:`CheckpointError`.
    """
    tmp = path.with_name(path.name + TMP_SUFFIX)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise CheckpointError(
                f"cannot write checkpoint {path}: {exc}"
            ) from exc
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: pathlib.Path) -> None:
    """Best-effort fsync of *directory*'s metadata, so a power cut
    right after a rename (or a retention unlink) cannot roll the
    directory back to a pre-rename view.  Platforms that refuse
    directory fsync (Windows) are silently skipped — the file contents
    themselves are already fsynced."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _parse_manifest(
    data: bytes, label: object
) -> Tuple[Dict[str, object], int]:
    """Frame-check *data* and parse its manifest; returns the manifest
    and the payload region's start offset.

    Raises :class:`CheckpointCorruptError` on bad magic/framing and
    :class:`CheckpointError` on an unknown ``schema_version``.
    """
    head = len(MAGIC) + _HEADER.size
    if len(data) < head or not data.startswith(MAGIC):
        raise CheckpointCorruptError(
            f"{label}: not a QCFE checkpoint (bad magic or truncated header)"
        )
    (manifest_len,) = _HEADER.unpack(data[len(MAGIC):head])
    if len(data) < head + manifest_len:
        raise CheckpointCorruptError(f"{label}: truncated manifest")
    try:
        manifest = json.loads(data[head:head + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"{label}: unreadable manifest") from exc
    if not isinstance(manifest, dict):
        raise CheckpointCorruptError(f"{label}: manifest is not an object")
    version = manifest.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SUPPORTED_SCHEMA_VERSIONS))
        raise CheckpointError(
            f"{label}: unknown checkpoint schema_version {version!r} "
            f"(this build reads {supported}); refusing to guess"
        )
    return manifest, head + manifest_len


def read_manifest(path: "pathlib.Path | str") -> Dict[str, object]:
    """Parse and frame-check *path*'s manifest (no blob verification)."""
    manifest, _ = _parse_manifest(pathlib.Path(path).read_bytes(), path)
    return manifest


def decode_checkpoint(
    data: bytes, label: object = "checkpoint"
) -> Tuple[object, Dict[str, object]]:
    """Fully verify the image *data*; returns ``(state, manifest)``.

    Every blob is a ``memoryview`` slice of *data*, so each array is
    copied exactly once, by the state decode.  *label* names the image
    in error messages.
    """
    manifest, payload_start = _parse_manifest(data, label)
    payload = memoryview(data)[payload_start:]
    if manifest.get("payload_sha256") != _sha256(payload):
        raise CheckpointCorruptError(
            f"{label}: payload hash mismatch (truncated or modified blobs)"
        )
    blobs: List[memoryview] = []
    for index, entry in enumerate(manifest.get("blobs", [])):
        try:
            offset, length = int(entry["offset"]), int(entry["length"])
            digest = str(entry["sha256"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"{label}: malformed blob table entry {index}"
            ) from exc
        if offset < 0 or length < 0 or offset + length > len(payload):
            raise CheckpointCorruptError(
                f"{label}: blob {index} escapes the payload region"
            )
        blob = payload[offset:offset + length]
        if _sha256(blob) != digest:
            raise CheckpointCorruptError(f"{label}: blob {index} hash mismatch")
        blobs.append(blob)
    state = decode_state(manifest.get("state"), BlobStore(blobs))
    return state, manifest


def load_checkpoint(
    path: "pathlib.Path | str",
) -> Tuple[object, Dict[str, object]]:
    """Load and fully verify *path*; returns ``(state, manifest)``."""
    return decode_checkpoint(pathlib.Path(path).read_bytes(), path)


# ----------------------------------------------------------------------
# retention: numbered checkpoints in a directory
# ----------------------------------------------------------------------
def checkpoint_path(directory: "pathlib.Path | str", seq: int) -> pathlib.Path:
    """The canonical file name of checkpoint *seq* under *directory*."""
    return pathlib.Path(directory) / f"ckpt-{seq:08d}.qcp"


def list_checkpoints(
    directory: "pathlib.Path | str",
) -> List[Tuple[int, pathlib.Path]]:
    """``(seq, path)`` for every checkpoint-named file, oldest first.

    Temp files and foreign names are ignored; a missing directory is
    simply empty.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    out: List[Tuple[int, pathlib.Path]] = []
    for entry in directory.iterdir():
        match = _NAME_RE.match(entry.name)
        if match is not None:
            out.append((int(match.group(1)), entry))
    return sorted(out)


def write_retained(
    state: object,
    directory: "pathlib.Path | str",
    retain: int = 3,
    meta: Optional[Mapping[str, object]] = None,
) -> pathlib.Path:
    """Write *state* as the next numbered checkpoint under *directory*
    (see :func:`write_retained_bytes`); returns the new path."""
    return write_retained_bytes(
        encode_checkpoint(state, meta), directory, retain=retain
    )


def write_retained_bytes(
    image: bytes, directory: "pathlib.Path | str", retain: int = 3
) -> pathlib.Path:
    """Write the checkpoint *image* (:func:`encode_checkpoint` output)
    as the next numbered checkpoint under *directory*, pruning the
    oldest files beyond *retain*; returns the new path.  A directory
    that cannot be made or written raises :class:`CheckpointError`."""
    if retain < 1:
        raise CheckpointError(f"retain must be >= 1, got {retain}")
    directory = pathlib.Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(
            f"cannot create checkpoint directory {directory}: {exc}"
        ) from exc
    existing = list_checkpoints(directory)
    seq = (existing[-1][0] + 1) if existing else 1
    path = checkpoint_path(directory, seq)
    _write_atomic(image, path)
    for _, old in list_checkpoints(directory)[:-retain]:
        try:
            old.unlink()
        except OSError:
            pass  # retention is best-effort; the new write already landed
    return path


def restore_latest(
    directory: "pathlib.Path | str",
) -> Tuple[object, Dict[str, object], pathlib.Path]:
    """Load the newest *loadable* checkpoint under *directory*.

    Walks newest → oldest; corrupt, version-mismatched or unreadable
    files are skipped — a file pruned between the directory listing
    and the read (another process's retention), or one with dead
    permissions, fails over exactly like a corrupt one.  That is the
    failover-to-an-older-checkpoint half of the warm-boot contract;
    the failover-to-cold half lives in the callers, which catch the
    final :class:`CheckpointError`.  Raises :class:`CheckpointError`
    when no checkpoint loads, naming every file tried.
    """
    attempts: List[str] = []
    for _, path in reversed(list_checkpoints(directory)):
        try:
            state, manifest = load_checkpoint(path)
            return state, manifest, path
        except (CheckpointError, OSError) as exc:
            attempts.append(f"{path.name}: {exc}")
    if attempts:
        raise CheckpointError(
            f"no loadable checkpoint under {directory} "
            f"({len(attempts)} tried): " + "; ".join(attempts)
        )
    raise CheckpointError(f"no checkpoint files under {directory}")


#: Sequence export so ``from .checkpoint import *`` stays explicit.
__all__: Sequence[str] = [
    "MAGIC",
    "SCHEMA_VERSION",
    "TMP_SUFFIX",
    "checkpoint_path",
    "decode_checkpoint",
    "encode_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "read_manifest",
    "restore_latest",
    "save_checkpoint",
    "write_retained",
    "write_retained_bytes",
]
