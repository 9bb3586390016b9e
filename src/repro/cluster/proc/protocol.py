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
*tail* is an opaque binary payload, so bulk float64 data never
round-trips through text — the codec split that keeps process-tier
predictions bit-identical to the in-process tier.  Three tails exist:
a ``sync`` frame's checkpoint image (:mod:`repro.persist.checkpoint`
owns its layout and checks; the header carries only ``generation``),
reply prediction vectors (:func:`floats_to_tail`), and the **request
blob** every plan-carrying frame (``estimate``, ``estimate_many``,
``record_feedback``) ships its queries and environment in:

.. code-block:: text

    +---------+-----+-------+-----------------------------+---------------+
    | env_len | env | count | query sections              | runtime block |
    +---------+-----+-------+-----------------------------+---------------+
      u32 LE    JSON  u32 LE  "S" len SQL text, or          3 float64 per
                              "P" nodes len canonical bytes plan node, LE

A plan's section holds exactly its canonical bytes
(:mod:`repro.engine.plan_codec`): the pre-order JSON node entries and
the optimizer estimates as float64, the bytes
:func:`~repro.featurization.fingerprint.plan_fingerprint` hashes.  The
runtime-only floats (true rows, actual times) ride in the separate
runtime block, so they never reach the key.  A request's header then
carries only its routing fields (``bundle``, ``backend``).  The parent
builds the blob once per request (:func:`encode_request`), before
routing, so a failover resends the same bytes.  The worker splits it
(:func:`split_request`) into the env section and one
:class:`~repro.engine.plan_codec.EncodedPlan` per plan, which its
service keys by the bytes and decodes only on a feature-cache miss;
:func:`decode_request` is the eager form that decodes everything.

The decoder is deliberately paranoid: bad magic, an unknown version,
lengths beyond the hard caps, truncated payloads, non-object headers,
JSON errors and malformed request blobs all raise
:class:`~repro.errors.ProtocolError` (a
:class:`~repro.errors.ClusterError`), never a builtin; so does a
header or request that cannot be encoded.  A damaged sync image
raises :class:`~repro.errors.CheckpointCorruptError` (an unknown
schema a :class:`~repro.errors.CheckpointError`), exactly as a
damaged checkpoint file does.  A peer that dies mid-frame surfaces as
:class:`~repro.errors.WorkerDiedError`.  Reads go through
one buffered :class:`FrameReader` per connection, so a burst of frames
costs one ``recv`` and a reader can tell whether more frames are
already waiting; writers batch the other way, sending several encoded
frames with one :func:`send_frames`.  Error *frames* are typed too: a
worker maps an exception onto a whitelisted ``repro.errors`` class
name which the parent rehydrates, so a worker-side
``ShardOverloadError`` sheds on the parent exactly like a thread-tier
one.
"""

from __future__ import annotations

import json
import struct
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ... import errors
from ...engine.environment import DatabaseEnvironment
from ...engine.hardware import PROFILES, HardwareProfile
from ...engine.knobs import KnobConfiguration
from ...engine.operators import PlanNode
from ...engine.plan_codec import (
    EST_FLOATS,
    NODE_FLOAT_BYTES,
    RUNTIME_FLOATS,
    EncodedPlan,
    encode_plan,
    encoded_nodes,
)
from ...errors import (
    PlanError,
    ProtocolError,
    ReproError,
    WorkerDiedError,
)
from ...sql.ast import SelectQuery

#: First two bytes of every frame.
MAGIC = b"QF"

#: Wire format version; bumped on any incompatible layout change.
PROTOCOL_VERSION = 3

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
#: The frame header's JSON encoder (stateless, so shared instead of
#: built by ``json.dumps`` on every call).
_HEADER_JSON = json.JSONEncoder(separators=(",", ":"))


def encode_frame(header: Dict[str, object], tail: bytes = b"") -> bytes:
    """One wire frame for *header* (+ optional binary *tail*); a
    header that cannot be encoded raises :class:`ProtocolError`."""
    try:
        body = _HEADER_JSON.encode(header).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"cannot encode frame header: {exc}") from exc
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
    read with ``recv_into`` into a buffer that doubles as bytes arrive:
    a large tail is not copied once per chunk, and a corrupt declared
    length costs at most one chunk more than twice what the peer sent.

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
        """Read the rest of the frame at ``_pos`` with ``recv_into``.

        The buffer doubles as bytes arrive rather than being sized from
        the declared length up front, so a corrupt or hostile length
        costs memory in proportion to the bytes actually received,
        while copying stays amortized linear in the frame size.
        """
        header_len, size = self._next
        frame = self._buf[self._pos :]
        self._buf.clear()
        self._pos, self._next = 0, None
        have = len(frame)
        while have < size:
            if have == len(frame):
                grown = min(size, max(2 * have, have + READ_CHUNK))
                frame.extend(bytes(grown - have))
            try:
                with memoryview(frame) as view, view[have:] as spare:
                    got = self._sock.recv_into(spare)
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
# value codecs (environments, float vectors)
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
        named = PROFILES.get(hardware.name)
        if named == hardware:
            hardware = named
        return DatabaseEnvironment(
            knobs=knobs, hardware=hardware, name=str(state["name"])
        )
    except ProtocolError:
        raise
    except Exception as exc:  # malformed wire data, an unknown knob too
        raise ProtocolError(f"invalid environment payload: {exc}") from exc


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


# ----------------------------------------------------------------------
# request blobs (the tail of every plan-carrying frame)
# ----------------------------------------------------------------------
#: Length and count prefixes of a request blob.
_U32 = struct.Struct("<I")

#: Head of a SQL query section: tag ``S``, UTF-8 byte length.
_SQL_HEAD = struct.Struct("<cI")

#: Head of a plan section: tag ``P``, node count, canonical byte length.
_PLAN_HEAD = struct.Struct("<cII")

#: Float fields of one plan node a request carries: the est floats in
#: its canonical bytes, then the runtime floats in the runtime block.
NODE_FLOATS = EST_FLOATS + RUNTIME_FLOATS


#: Env sections :func:`env_section` keeps, by environment object.
ENV_SECTIONS_MAX = 64

#: ``id(env) -> (env, section)``, oldest first.  Holding the env keeps
#: its id from being reused while the entry lives.
_env_sections: Dict[int, Tuple[DatabaseEnvironment, bytes]] = {}
_env_sections_lock = threading.Lock()


def env_section(env: DatabaseEnvironment) -> bytes:
    """The env section of a request blob for *env*: its length, then
    :func:`env_to_wire` as JSON.

    Built once per environment object and reused: environments are
    frozen, and a service sees the same few objects on every request.
    They are unhashable (knob values are a dict), so the sections are
    kept by identity, at most :data:`ENV_SECTIONS_MAX` of them, oldest
    out first.  An env that cannot be encoded raises
    :class:`ProtocolError` and is never kept, so it raises again on
    every call.
    """
    entry = _env_sections.get(id(env))
    if entry is not None:
        return entry[1]
    try:
        body = json.dumps(env_to_wire(env), separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ProtocolError(f"cannot encode environment: {exc}") from exc
    section = _U32.pack(len(body)) + body
    with _env_sections_lock:
        if len(_env_sections) >= ENV_SECTIONS_MAX:
            del _env_sections[next(iter(_env_sections))]
        _env_sections[id(env)] = (env, section)
    return section


def encode_request(queries: Sequence[object], env: DatabaseEnvironment) -> bytes:
    """One request blob carrying *queries* and *env*.

    Layout (all integers little-endian u32 unless noted):

    - the env section (:func:`env_section`): its length, then
      :func:`env_to_wire` as JSON;
    - the query count, then one section per query: ``S``, a length and
      UTF-8 SQL text (a :class:`SelectQuery` ships as its SQL), or
      ``P``, the node count, a length and the plan's canonical bytes
      (:func:`~repro.engine.plan_codec.encode_plan`) — exactly the
      bytes the feature-cache key hashes.  An :class:`EncodedPlan`
      ships its ``data`` as it is, with no decode and no re-encode;
    - the runtime block: :data:`~repro.engine.plan_codec.RUNTIME_FLOATS`
      of every plan node as float64, plans and nodes in order (zeros
      for an :class:`EncodedPlan` without ``runtime``).

    Floats cross bit-exactly, with no text round trip.  Anything that
    cannot be shipped — a value JSON cannot encode included — raises
    :class:`ProtocolError`.
    """
    runtime: List[bytes] = []  # each plan's runtime block, in order
    try:
        parts = [env_section(env), _U32.pack(len(queries))]
        for query in queries:
            if isinstance(query, PlanNode):
                floats: List[float] = []
                data, nodes = encode_plan(query, floats)
                parts += (_PLAN_HEAD.pack(b"P", nodes, len(data)), data)
                runtime.append(struct.pack(f"<{len(floats)}d", *floats))
                continue
            if isinstance(query, EncodedPlan):
                parts += (
                    _PLAN_HEAD.pack(b"P", query.nodes, len(query.data)),
                    query.data,
                )
                runtime.append(_encoded_runtime(query))
                continue
            if isinstance(query, str):
                text = query
            elif isinstance(query, SelectQuery):
                text = query.sql()
            else:
                raise ProtocolError(
                    f"cannot ship {type(query).__name__} across the worker "
                    "boundary; pass SQL text, a SelectQuery, a PlanNode or "
                    "an EncodedPlan"
                )
            raw = text.encode("utf-8", "surrogatepass")
            parts += (_SQL_HEAD.pack(b"S", len(raw)), raw)
        parts += runtime
    except ProtocolError:
        raise
    except (TypeError, ValueError, AttributeError, struct.error, PlanError) as exc:
        raise ProtocolError(f"cannot encode request: {exc}") from exc
    return b"".join(parts)


def _encoded_runtime(plan: EncodedPlan) -> bytes:
    """The runtime block of an :class:`EncodedPlan`, checked against
    its canonical bytes (zeros when it carries none)."""
    nodes = encoded_nodes(plan.data)
    if nodes != plan.nodes:
        raise ProtocolError(
            f"encoded plan claims {plan.nodes} nodes, its bytes hold {nodes}"
        )
    size = nodes * NODE_FLOAT_BYTES
    if plan.runtime is None:
        return bytes(size)
    if len(plan.runtime) != size:
        raise ProtocolError(
            f"encoded plan has {len(plan.runtime)} runtime bytes, its "
            f"{nodes} nodes need {size}"
        )
    return plan.runtime


def split_request(
    blob: bytes, on_decode: Optional[Callable[[], None]] = None
) -> Tuple[bytes, List[object]]:
    """``(env section, queries)`` of a request blob, without decoding
    a plan.

    Each plan comes back as an :class:`EncodedPlan` holding its
    canonical bytes and its slice of the runtime block; its tree
    decodes on first use (calling *on_decode*, if given).  SQL text
    comes back as ``str``.  The env section is the raw JSON, for
    :func:`decode_env`.  The structure is checked here, on every
    request: section lengths, each plan's node count against its
    canonical bytes, the runtime block's size against the total node
    count, and no surplus bytes — a violation raises
    :class:`ProtocolError`.  Only the JSON inside a plan waits for its
    decode.
    """
    try:
        (env_len,) = _U32.unpack_from(blob)
        pos = _U32.size + env_len
        if pos > len(blob):
            raise ProtocolError(
                f"request blob declares a {env_len}-byte env section, "
                f"holds {len(blob) - _U32.size}"
            )
        env_section = blob[_U32.size : pos]
        (count,) = _U32.unpack_from(blob, pos)
        pos += _U32.size
        queries: List[object] = []
        plans: List[EncodedPlan] = []
        for _ in range(count):
            tag = blob[pos : pos + 1]
            if tag == b"P":
                _, nodes, length = _PLAN_HEAD.unpack_from(blob, pos)
                pos += _PLAN_HEAD.size
                data = blob[pos : pos + length]
                if len(data) != length or encoded_nodes(data) != nodes:
                    raise ProtocolError(
                        f"plan section of {nodes} nodes and {length} bytes "
                        "does not fit its canonical bytes"
                    )
                plan = EncodedPlan(data, nodes, on_decode=on_decode)
                plans.append(plan)
                queries.append(plan)
            elif tag == b"S":
                _, length = _SQL_HEAD.unpack_from(blob, pos)
                pos += _SQL_HEAD.size
                raw = blob[pos : pos + length]
                if len(raw) != length:
                    raise ProtocolError(
                        f"SQL section declares {length} bytes, holds {len(raw)}"
                    )
                queries.append(raw.decode("utf-8", "surrogatepass"))
            else:
                raise ProtocolError(f"unknown query section tag {tag!r}")
            pos += length
        need = sum(plan.nodes for plan in plans) * NODE_FLOAT_BYTES
        if len(blob) - pos != need:
            raise ProtocolError(
                f"runtime block holds {len(blob) - pos} bytes, the plans' "
                f"nodes need {need}"
            )
        for plan in plans:
            end = pos + plan.nodes * NODE_FLOAT_BYTES
            plan.runtime = blob[pos:end]
            pos = end
        return env_section, queries
    except ProtocolError:
        raise
    except Exception as exc:  # malformed wire data stays a typed error
        raise ProtocolError(f"invalid request blob: {exc}") from exc


def decode_env(section: bytes) -> DatabaseEnvironment:
    """The environment an env section (from :func:`split_request`)
    holds; a malformed one raises :class:`ProtocolError`."""
    try:
        state = json.loads(section.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable env section: {exc}") from exc
    return env_from_wire(state)


def decode_request(blob: bytes) -> Tuple[List[object], DatabaseEnvironment]:
    """Inverse of :func:`encode_request`: ``(queries, env)``, every
    plan decoded (:func:`split_request`, then each ``.plan``).

    Every malformed blob — truncated, mis-sized, bad JSON, a plan that
    does not validate — raises :class:`ProtocolError`.
    """
    env_section, queries = split_request(blob)
    env = decode_env(env_section)
    return [
        query.plan if isinstance(query, EncodedPlan) else query
        for query in queries
    ], env
