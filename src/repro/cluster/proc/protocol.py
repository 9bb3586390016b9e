"""Length-prefixed JSON/binary framing for supervisor ↔ worker IPC.

Every message on a worker connection is one **frame**:

.. code-block:: text

    0      2      3        4            8           12
    +------+------+--------+------------+------------+----------+------+
    | "QF" | ver  | 0x00   | header_len | tail_len   | header   | tail |
    +------+------+--------+------------+------------+----------+------+
      magic  u8     pad      u32 BE       u32 BE       JSON       bytes

The *header* is a UTF-8 JSON object carrying at least an integer
``id`` (request/response correlation) and a string ``kind``; the
*tail* is an opaque binary payload (array blobs, batched prediction
vectors) so bulk float64 data never round-trips through text — the
codec split that keeps process-tier predictions bit-identical to the
in-process tier.

The decoder is deliberately paranoid: bad magic, an unknown version,
lengths beyond the hard caps, truncated payloads, non-object headers
and JSON errors all raise :class:`~repro.errors.ProtocolError` (a
:class:`~repro.errors.ClusterError`), never a builtin.  A peer that
dies mid-frame surfaces as :class:`~repro.errors.WorkerDiedError`.
Reads go through one buffered :class:`FrameReader` per connection, so
a burst of frames costs one ``recv`` and a reader can tell whether
more frames are already waiting; writers batch the other way, sending
several encoded frames with one :func:`send_frames`.  Error *frames*
are typed too: a worker maps an exception onto a
whitelisted ``repro.errors`` class name which the parent rehydrates,
so a worker-side ``ShardOverloadError`` sheds on the parent exactly
like a thread-tier one.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ... import errors
from ...engine.environment import DatabaseEnvironment
from ...engine.hardware import PROFILES, HardwareProfile
from ...engine.knobs import KnobConfiguration
from ...engine.operators import PlanNode
from ...errors import ProtocolError, ReproError, WorkerDiedError
from ...persist import plan_from_state, plan_to_state
from ...sql.ast import SelectQuery

#: First two bytes of every frame.
MAGIC = b"QF"

#: Wire format version; bumped on any incompatible layout change.
PROTOCOL_VERSION = 1

#: Fixed-size frame prefix: magic, version, pad, header len, tail len.
_PREFIX = struct.Struct(">2sBBII")

#: Byte size of the fixed prefix.
PREFIX_SIZE = _PREFIX.size

#: Hard cap on the JSON header region (16 MiB).
MAX_HEADER_BYTES = 16 * 1024 * 1024

#: Hard cap on the binary tail region (256 MiB).
MAX_TAIL_BYTES = 256 * 1024 * 1024

#: Exception classes a worker may name in an error frame.  Anything
#: outside this whitelist rehydrates as plain ``ClusterError`` — a
#: worker cannot make the parent raise an arbitrary class.
ERROR_TYPES: Dict[str, type] = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}


# ----------------------------------------------------------------------
# frame encode / decode
# ----------------------------------------------------------------------
def encode_frame(header: Dict[str, object], tail: bytes = b"") -> bytes:
    """One wire frame for *header* (+ optional binary *tail*)."""
    body = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header is {len(body)} bytes, cap {MAX_HEADER_BYTES}"
        )
    if len(tail) > MAX_TAIL_BYTES:
        raise ProtocolError(
            f"frame tail is {len(tail)} bytes, cap {MAX_TAIL_BYTES}"
        )
    prefix = _PREFIX.pack(MAGIC, PROTOCOL_VERSION, 0, len(body), len(tail))
    return prefix + body + tail


def decode_prefix(prefix: bytes) -> Tuple[int, int]:
    """Validated ``(header_len, tail_len)`` from a 12-byte prefix."""
    if len(prefix) != PREFIX_SIZE:
        raise ProtocolError(
            f"frame prefix is {len(prefix)} bytes, need {PREFIX_SIZE}"
        )
    magic, version, _pad, header_len, tail_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol v{version}, this build v{PROTOCOL_VERSION}"
        )
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"impossible header length {header_len}")
    if tail_len > MAX_TAIL_BYTES:
        raise ProtocolError(f"impossible tail length {tail_len}")
    return header_len, tail_len


def decode_header(body: bytes) -> Dict[str, object]:
    """Validated header object from the JSON region of a frame."""
    try:
        header = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    if not isinstance(header.get("id"), int):
        raise ProtocolError("frame header lacks an integer 'id'")
    if not isinstance(header.get("kind"), str):
        raise ProtocolError("frame header lacks a string 'kind'")
    return header


def decode_frame(data: bytes) -> Tuple[Dict[str, object], bytes]:
    """Decode one complete frame held in *data* (fuzz-test surface).

    Trailing bytes beyond the declared lengths are a
    :class:`ProtocolError` — a stream that framed correctly cannot
    leave residue.
    """
    header_len, tail_len = decode_prefix(data[:PREFIX_SIZE])
    expected = PREFIX_SIZE + header_len + tail_len
    if len(data) != expected:
        raise ProtocolError(
            f"frame declares {expected} bytes, buffer holds {len(data)}"
        )
    header = decode_header(data[PREFIX_SIZE : PREFIX_SIZE + header_len])
    tail = data[PREFIX_SIZE + header_len :]
    return header, tail


# ----------------------------------------------------------------------
# socket I/O
# ----------------------------------------------------------------------
#: Bytes asked of the socket per ``recv`` by :class:`FrameReader`.
READ_CHUNK = 64 * 1024


class FrameReader:
    """Buffered frame reads from one socket — the only read path.

    Each ``recv`` asks for up to :data:`READ_CHUNK` bytes, so a burst
    of small frames costs one syscall instead of three per frame, and
    :meth:`has_frame` tells a caller — without blocking — whether the
    next :meth:`recv_frame` can be answered from the buffer alone.  A
    frame whose remainder exceeds one chunk (a ``sync`` state tail) is
    read straight into a preallocated buffer of its declared size, so
    a large tail is copied once, not once per chunk.

    The decoder's contract is unchanged: bad prefixes and headers
    raise :class:`ProtocolError` (via the module-level
    :func:`decode_prefix` / :func:`decode_header`), EOF inside a frame
    raises :class:`WorkerDiedError`, and clean EOF between frames is
    ``None``.
    """

    def __init__(self, sock):
        """Wrap *sock* (any object with ``recv`` and ``recv_into``)."""
        self._sock = sock
        self._buf = bytearray()
        #: Offset of the next unread frame in ``_buf``.
        self._pos = 0
        #: ``(header_len, frame size)`` of the frame at ``_pos`` once
        #: its prefix is buffered and validated.
        self._next: Optional[Tuple[int, int]] = None

    def has_frame(self) -> bool:
        """True when :meth:`recv_frame` would return (or raise) without
        blocking on the socket."""
        try:
            size = self._next_size()
        except ProtocolError:
            return True  # recv_frame raises it straight away
        return size is not None and self._pos + size <= len(self._buf)

    def recv_frame(self) -> Optional[Tuple[Dict[str, object], bytes]]:
        """The next frame, reading the socket as needed; None on clean
        EOF between frames."""
        while True:
            size = self._next_size()
            if size is not None:
                missing = self._pos + size - len(self._buf)
                if missing <= 0:
                    header_len, _ = self._next
                    start = self._pos
                    self._pos, self._next = start + size, None
                    return _split_frame(self._buf, start, header_len, size)
                if missing > READ_CHUNK:
                    return self._recv_large()
            if not self._fill():
                buffered = len(self._buf) - self._pos
                if buffered:
                    raise WorkerDiedError(
                        f"peer closed mid-frame ({buffered} bytes buffered)"
                    )
                return None

    def _next_size(self) -> Optional[int]:
        """Size of the frame at ``_pos`` (None while its prefix is
        incomplete); the prefix is validated once per frame."""
        if self._next is None:
            if len(self._buf) - self._pos < PREFIX_SIZE:
                return None
            header_len, tail_len = decode_prefix(
                bytes(self._buf[self._pos : self._pos + PREFIX_SIZE])
            )
            self._next = (header_len, PREFIX_SIZE + header_len + tail_len)
        return self._next[1]

    def _fill(self) -> bool:
        """One ``recv`` of up to :data:`READ_CHUNK` bytes; False on EOF."""
        if self._pos:
            # Drop consumed frames before growing the buffer, so it
            # holds at most one chunk plus a partial frame.
            del self._buf[: self._pos]
            self._pos = 0
        try:
            chunk = self._sock.recv(READ_CHUNK)
        except OSError as exc:
            raise WorkerDiedError(f"connection lost mid-frame: {exc}") from exc
        self._buf += chunk
        return bool(chunk)

    def _recv_large(self) -> Tuple[Dict[str, object], bytes]:
        """Read the rest of the frame at ``_pos`` straight into a buffer
        of its declared size."""
        header_len, size = self._next
        frame = bytearray(size)
        have = len(self._buf) - self._pos
        frame[:have] = self._buf[self._pos :]
        self._buf.clear()
        self._pos, self._next = 0, None
        with memoryview(frame) as view:
            while have < size:
                try:
                    got = self._sock.recv_into(view[have:])
                except OSError as exc:
                    raise WorkerDiedError(
                        f"connection lost mid-frame: {exc}"
                    ) from exc
                if not got:
                    raise WorkerDiedError(
                        f"peer closed mid-frame ({have}/{size} bytes)"
                    )
                have += got
        return _split_frame(frame, 0, header_len, size)


def _split_frame(
    buf: bytearray, start: int, header_len: int, size: int
) -> Tuple[Dict[str, object], bytes]:
    """Decode the complete frame held in ``buf[start:start + size]``."""
    body_end = start + PREFIX_SIZE + header_len
    header = decode_header(bytes(buf[start + PREFIX_SIZE : body_end]))
    return header, bytes(buf[body_end : start + size])


def send_frames(sock, frames: Sequence[bytes]) -> None:
    """Write already-encoded *frames* to *sock* with one ``sendall``."""
    data = frames[0] if len(frames) == 1 else b"".join(frames)
    try:
        sock.sendall(data)
    except OSError as exc:
        raise WorkerDiedError(f"connection lost while sending: {exc}") from exc


# ----------------------------------------------------------------------
# typed error frames
# ----------------------------------------------------------------------
def error_to_wire(exc: BaseException) -> Dict[str, object]:
    """The error-frame payload naming *exc*'s whitelisted type."""
    name = type(exc).__name__
    if name not in ERROR_TYPES:
        name = "ClusterError"
    return {"type": name, "message": str(exc)}


def error_from_wire(payload: object) -> ReproError:
    """Rehydrate an error-frame payload into a typed exception."""
    if not isinstance(payload, dict):
        return ProtocolError(f"malformed error payload {payload!r}")
    cls = ERROR_TYPES.get(str(payload.get("type")), errors.ClusterError)
    return cls(str(payload.get("message", "worker error")))


# ----------------------------------------------------------------------
# value codecs (environments, queries, float vectors)
# ----------------------------------------------------------------------
def env_to_wire(env: DatabaseEnvironment) -> Dict[str, object]:
    """A :class:`DatabaseEnvironment` as plain JSON data.

    Hardware profiles ship by field, not just by name, so custom
    profiles (``random_profile``) survive the boundary too.
    """
    hw = env.hardware
    return {
        "knobs": {"name": env.knobs.name, "values": dict(env.knobs.values)},
        "hardware": {
            "name": hw.name,
            "seq_ms_per_page": hw.seq_ms_per_page,
            "rand_ms_per_page": hw.rand_ms_per_page,
            "cached_ms_per_page": hw.cached_ms_per_page,
            "cpu_ms_per_ktuple": hw.cpu_ms_per_ktuple,
            "memory_gb": hw.memory_gb,
            "disk": hw.disk,
        },
        "name": env.name,
    }


def env_from_wire(state: object) -> DatabaseEnvironment:
    """Inverse of :func:`env_to_wire` (named profiles reused from
    :data:`~repro.engine.hardware.PROFILES` when the fields match)."""
    try:
        knobs_state = dict(state["knobs"])
        hw_state = dict(state["hardware"])
        knobs = KnobConfiguration(
            name=str(knobs_state["name"]), values=dict(knobs_state["values"])
        )
        hardware = HardwareProfile(
            name=str(hw_state["name"]),
            seq_ms_per_page=float(hw_state["seq_ms_per_page"]),
            rand_ms_per_page=float(hw_state["rand_ms_per_page"]),
            cached_ms_per_page=float(hw_state["cached_ms_per_page"]),
            cpu_ms_per_ktuple=float(hw_state["cpu_ms_per_ktuple"]),
            memory_gb=float(hw_state["memory_gb"]),
            disk=str(hw_state.get("disk", "ssd")),
        )
        hardware = PROFILES.get(hardware.name, hardware)
        return DatabaseEnvironment(
            knobs=knobs, hardware=hardware, name=str(state["name"])
        )
    except ReproError:
        raise
    except Exception as exc:  # malformed wire data stays a typed error
        raise ProtocolError(f"invalid environment payload: {exc}") from exc


def query_to_wire(query: object) -> Dict[str, object]:
    """A request query as plain data: SQL text stays text (the worker
    re-parses, paying the full serving path), plan trees ship through
    the persist plan codec."""
    if isinstance(query, str):
        return {"sql": query}
    if isinstance(query, SelectQuery):
        return {"sql": query.sql()}
    if isinstance(query, PlanNode):
        return {"plan": plan_to_state(query)}
    raise ProtocolError(
        f"cannot ship {type(query).__name__} across the worker boundary; "
        "pass SQL text, a SelectQuery or a PlanNode"
    )


def query_from_wire(state: object) -> object:
    """Inverse of :func:`query_to_wire`."""
    if isinstance(state, dict):
        if "sql" in state:
            return str(state["sql"])
        if "plan" in state:
            return plan_from_state(dict(state["plan"]))
    raise ProtocolError(f"invalid query payload {state!r}")


def floats_to_tail(values: np.ndarray) -> Tuple[Dict[str, object], bytes]:
    """A float vector as ``(header fragment, binary tail)`` — raw
    float64 bytes, so batched predictions round-trip bit-exactly."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return {"count": int(arr.size)}, arr.tobytes()


def floats_from_tail(fragment: object, tail: bytes) -> np.ndarray:
    """Inverse of :func:`floats_to_tail` (validated)."""
    try:
        count = int(fragment["count"])  # type: ignore[index]
    except (TypeError, KeyError, ValueError) as exc:
        raise ProtocolError(f"malformed vector fragment {fragment!r}") from exc
    if count < 0 or len(tail) != count * 8:
        raise ProtocolError(
            f"vector tail holds {len(tail)} bytes, {count} float64 need "
            f"{count * 8}"
        )
    return np.frombuffer(tail, dtype=np.float64).copy()

