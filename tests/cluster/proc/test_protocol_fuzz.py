"""Seeded fuzzing of the IPC frame protocol and its value codecs.

The invariant under test: malformed, truncated, mutated, or oversized
wire data produces a *typed* ``repro.errors`` exception (almost always
:class:`ProtocolError`) — never a builtin leaking out of ``struct`` /
``json``, never a hung future, never an interpreter crash.  All
randomness is seeded so a failing case replays exactly.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from repro.cluster.proc import protocol
from repro.cluster.proc.supervisor import WorkerHandle
from repro.engine.environment import random_environments
from repro.errors import (
    ClusterError,
    ParseError,
    ProtocolError,
    ShardOverloadError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from repro.persist import plan_to_state

from .conftest import fast_config


def valid_frame() -> bytes:
    """One well-formed frame with both a header and a binary tail."""
    return protocol.encode_frame(
        {"id": 7, "kind": "ping", "payload": [1, 2, 3]}, b"\x01\x02\x03\x04"
    )


def raw_frame(body: bytes, tail: bytes = b"") -> bytes:
    """A frame with a hand-built (possibly invalid) JSON region."""
    prefix = struct.pack(
        ">2sBBII", protocol.MAGIC, protocol.PROTOCOL_VERSION, 0,
        len(body), len(tail),
    )
    return prefix + body + tail


# ----------------------------------------------------------------------
# frame decode: structural attacks
# ----------------------------------------------------------------------
def test_round_trip():
    header, tail = protocol.decode_frame(valid_frame())
    assert header["id"] == 7
    assert header["kind"] == "ping"
    assert tail == b"\x01\x02\x03\x04"


def test_every_possible_truncation_is_a_typed_error():
    """All len(frame) proper prefixes of a valid frame must raise
    ProtocolError — no truncation point may slip through or crash."""
    frame = valid_frame()
    for cut in range(len(frame)):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(frame[:cut])


def test_trailing_residue_is_rejected():
    with pytest.raises(ProtocolError):
        protocol.decode_frame(valid_frame() + b"!")


def test_prefix_attacks():
    """Bad magic, foreign versions, and impossible declared lengths."""
    def prefix(magic=b"QF", version=1, header_len=2, tail_len=0):
        return struct.pack(">2sBBII", magic, version, 0, header_len, tail_len)

    for bad in (
        prefix(magic=b"ZZ"),
        prefix(version=0),
        prefix(version=protocol.PROTOCOL_VERSION + 1),
        prefix(header_len=0),
        prefix(header_len=protocol.MAX_HEADER_BYTES + 1),
        prefix(tail_len=protocol.MAX_TAIL_BYTES + 1),
        b"",  # empty
        prefix()[:-1],  # short prefix
    ):
        with pytest.raises(ProtocolError):
            protocol.decode_prefix(bad)


def test_header_must_be_an_object_with_id_and_kind():
    for body in (
        b"\xff\xfe\x00",  # not UTF-8
        b"not json at all",
        b"[1,2,3]",  # JSON, not an object
        b'"frame"',
        b"{}",  # object, no id/kind
        b'{"id":"seven","kind":"ping"}',  # id not an int
        b'{"id":7}',  # no kind
        b'{"id":7,"kind":42}',  # kind not a string
    ):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(raw_frame(body))


def test_oversized_header_rejected_at_encode_time():
    huge = {"id": 1, "kind": "k", "pad": "x" * (protocol.MAX_HEADER_BYTES + 1)}
    with pytest.raises(ProtocolError):
        protocol.encode_frame(huge)


# ----------------------------------------------------------------------
# frame decode: seeded random attacks
# ----------------------------------------------------------------------
def test_seeded_byte_flips_never_raise_untyped():
    """Mutate a valid frame with random byte flips: every outcome is
    either a successful decode (the mutation landed somewhere inert)
    or a ProtocolError.  Any other exception type fails the test by
    propagating."""
    rng = random.Random(0xC0FFEE)
    frame = protocol.encode_frame(
        {"id": 3, "kind": "estimate", "bundle": "b", "values": [1, 2, 3]},
        b"\x55" * 32,
    )
    decoded = mutated_rejections = 0
    for _ in range(500):
        data = bytearray(frame)
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            header, _tail = protocol.decode_frame(bytes(data))
        except ProtocolError:
            mutated_rejections += 1
        else:
            decoded += 1
            assert isinstance(header, dict)
    assert decoded + mutated_rejections == 500
    assert mutated_rejections > 0  # the fuzzer actually bit something


def test_seeded_random_garbage_is_rejected():
    rng = random.Random(31337)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        with pytest.raises(ProtocolError):
            protocol.decode_frame(blob)


# ----------------------------------------------------------------------
# buffered reads: FrameReader over a chunked stream
# ----------------------------------------------------------------------
class ChunkedSocket:
    """A fake socket that hands out *data* in the given chunks (a recv
    never crosses a chunk boundary), then reports EOF."""

    def __init__(self, data: bytes, cuts=()):
        bounds = [0, *sorted(set(cuts)), len(data)]
        self.chunks = [
            data[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ]
        self.recv_calls = 0
        self.recv_into_calls = 0

    def recv(self, size: int) -> bytes:
        self.recv_calls += 1
        assert self.recv_calls <= 10_000, "reader keeps reading past EOF"
        if not self.chunks:
            return b""
        head, rest = self.chunks[0][:size], self.chunks[0][size:]
        if rest:
            self.chunks[0] = rest
        else:
            self.chunks.pop(0)
        return head

    def recv_into(self, view) -> int:
        self.recv_into_calls += 1
        data = self.recv(len(view))
        view[: len(data)] = data
        return len(data)


def read_all(sock):
    """Every frame a FrameReader yields before clean EOF."""
    reader = protocol.FrameReader(sock)
    frames = []
    while True:
        frame = reader.recv_frame()
        if frame is None:
            return frames
        frames.append(frame)


def frame_stream():
    """Three frames, the middle one carrying a binary tail."""
    frames = [
        ({"id": 1, "kind": "ping"}, b""),
        ({"id": 2, "kind": "estimate", "env": {"name": "e"}}, bytes(range(256))),
        ({"id": 3, "kind": "counters", "pad": "\u00e9" * 5}, b""),
    ]
    data = b"".join(protocol.encode_frame(h, t) for h, t in frames)
    return frames, data


def test_reader_yields_identical_frames_at_every_split():
    expected, data = frame_stream()
    for cut in range(len(data) + 1):
        assert read_all(ChunkedSocket(data, [cut])) == expected, cut
    one_byte = ChunkedSocket(data, range(1, len(data)))
    assert read_all(one_byte) == expected


def test_reader_reads_a_burst_with_one_recv_and_knows_what_is_buffered():
    expected, data = frame_stream()
    sock = ChunkedSocket(data)
    reader = protocol.FrameReader(sock)
    assert not reader.has_frame()  # nothing read yet; never blocks
    assert reader.recv_frame() == expected[0]
    assert sock.recv_calls == 1
    assert reader.has_frame()
    assert reader.recv_frame() == expected[1]
    assert reader.has_frame()
    assert reader.recv_frame() == expected[2]
    assert not reader.has_frame()
    assert sock.recv_calls == 1
    assert reader.recv_frame() is None


def test_reader_sees_a_partial_frame_as_not_buffered():
    expected, data = frame_stream()
    first = len(protocol.encode_frame(*expected[0]))
    reader = protocol.FrameReader(ChunkedSocket(data, [first + 5]))
    assert reader.recv_frame() == expected[0]
    assert not reader.has_frame()  # 5 bytes of the next prefix only
    assert reader.recv_frame() == expected[1]


def test_reader_reads_a_large_tail_straight_into_its_buffer():
    """A frame larger than one read chunk goes through recv_into on a
    preallocated buffer, at any split, and the stream stays in sync."""
    big = bytes(random.Random(5).randrange(256) for _ in range(200_000))
    frames = [
        ({"id": 1, "kind": "sync"}, big),
        ({"id": 2, "kind": "ping"}, b""),
    ]
    data = b"".join(protocol.encode_frame(h, t) for h, t in frames)
    assert len(big) > 2 * protocol.READ_CHUNK
    for cuts in ([], [1], [12], [13], [protocol.READ_CHUNK], [len(data) - 1],
                 range(4096, len(data), 4096)):
        sock = ChunkedSocket(data, cuts)
        assert read_all(sock) == frames
        assert sock.recv_into_calls >= 1


def test_reader_truncation_corpus_is_typed():
    """Every proper prefix of a valid frame: clean EOF for the empty
    stream, a typed error for every other cut — at any split."""
    frame = valid_frame()
    assert read_all(ChunkedSocket(b"")) == []
    for cut in range(1, len(frame)):
        for cuts in ([], range(1, cut)):
            with pytest.raises((ProtocolError, WorkerDiedError)):
                read_all(ChunkedSocket(frame[:cut], cuts))


def test_reader_byte_flip_corpus_is_typed():
    """The byte-flip corpus through the reader: a clean decode or a
    typed error, never a builtin and never a hang."""
    rng = random.Random(0xC0FFEE)
    frame = protocol.encode_frame(
        {"id": 3, "kind": "estimate", "bundle": "b", "values": [1, 2, 3]},
        b"\x55" * 32,
    )
    decoded = rejected = 0
    for _ in range(500):
        data = bytearray(frame)
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        cuts = [rng.randrange(len(data) + 1) for _ in range(3)]
        try:
            frames = read_all(ChunkedSocket(bytes(data), cuts))
        except (ProtocolError, WorkerDiedError):
            rejected += 1
        else:
            decoded += 1
            assert all(isinstance(header, dict) for header, _ in frames)
    assert rejected > 0 and decoded + rejected == 500


def test_reader_garbage_corpus_is_typed():
    rng = random.Random(31337)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        try:
            frames = read_all(ChunkedSocket(blob, [rng.randrange(65)]))
        except (ProtocolError, WorkerDiedError):
            continue
        assert frames == [] and blob == b""


# ----------------------------------------------------------------------
# typed error frames
# ----------------------------------------------------------------------
def test_error_codec_round_trips_whitelisted_types():
    for exc in (
        ProtocolError("p"),
        WorkerDiedError("d"),
        WorkerTimeoutError("t"),
        ShardOverloadError("o"),
        ParseError("malformed sql"),
    ):
        back = protocol.error_from_wire(protocol.error_to_wire(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)


def test_error_codec_never_rehydrates_outside_the_whitelist():
    """A worker (or an attacker holding the socket) cannot make the
    parent raise an arbitrary class."""
    assert protocol.error_to_wire(ValueError("v"))["type"] == "ClusterError"
    for payload in (
        {"type": "KeyboardInterrupt", "message": "boom"},
        {"type": "SystemExit", "message": "bye"},
        {"type": "NoSuchError"},
        {},
    ):
        back = protocol.error_from_wire(payload)
        assert type(back) is ClusterError
    assert isinstance(protocol.error_from_wire("junk"), ProtocolError)
    assert isinstance(protocol.error_from_wire(None), ProtocolError)


# ----------------------------------------------------------------------
# value codecs
# ----------------------------------------------------------------------
def test_env_codec_round_trip_and_rejection():
    env = random_environments(1, seed=11)[0]
    back = protocol.env_from_wire(protocol.env_to_wire(env))
    assert back.name == env.name
    assert back.knobs.name == env.knobs.name
    assert dict(back.knobs.values) == dict(env.knobs.values)
    assert back.hardware.seq_ms_per_page == env.hardware.seq_ms_per_page
    assert back.hardware.cpu_ms_per_ktuple == env.hardware.cpu_ms_per_ktuple
    for bad in (None, {}, {"knobs": {}}, {"knobs": 1, "hardware": 2}):
        with pytest.raises(ProtocolError):
            protocol.env_from_wire(bad)


def test_query_codec_round_trip_and_rejection(cluster_bundle):
    assert protocol.query_from_wire(
        protocol.query_to_wire("SELECT 1")
    ) == "SELECT 1"
    _, labeled = cluster_bundle
    plan = labeled[0].plan
    back = protocol.query_from_wire(protocol.query_to_wire(plan))
    assert plan_to_state(back) == plan_to_state(plan)
    with pytest.raises(ProtocolError):
        protocol.query_to_wire(12345)
    for bad in (None, "raw", {"neither": 1}, []):
        with pytest.raises(ProtocolError):
            protocol.query_from_wire(bad)


def test_floats_codec_is_bit_exact_and_validated():
    arr = np.array([0.1, 1.0 / 3.0, 7e300, -0.0, 2.0 ** -1074, np.pi])
    fragment, tail = protocol.floats_to_tail(arr)
    back = protocol.floats_from_tail(fragment, tail)
    assert back.tobytes() == arr.astype(np.float64).tobytes()
    for bad_fragment, bad_tail in (
        (None, b""),
        ({}, b""),
        ({"count": "three"}, b""),
        ({"count": -1}, b""),
        ({"count": 3}, b"\x00" * 16),  # 3 float64 need 24 bytes
        ({"count": 2}, b"\x00" * 24),  # declared short of the tail
    ):
        with pytest.raises(ProtocolError):
            protocol.floats_from_tail(bad_fragment, bad_tail)


# ----------------------------------------------------------------------
# live worker under attack
# ----------------------------------------------------------------------
def test_unknown_request_kind_is_a_typed_reply_not_a_crash():
    """A well-framed but nonsensical request gets a typed error reply
    and the worker keeps serving."""
    handle = WorkerHandle("fuzz-0", fast_config())
    handle.spawn()
    try:
        with pytest.raises(ProtocolError):
            handle.rpc("no_such_kind", {})
        header, _ = handle.rpc("ping", {})
        assert header["value"] == "pong"
    finally:
        handle.mark_dead(WorkerDiedError("fuzz test over"), kill=True)


def test_wire_garbage_fails_pending_futures_typed_never_hangs():
    """Inject raw garbage onto a live worker connection: the worker
    declares frame desync and exits; the parent's pending futures fail
    with a typed error promptly — no future is left hanging."""
    handle = WorkerHandle("fuzz-1", fast_config())
    handle.spawn()
    try:
        header, _ = handle.rpc("ping", {})
        assert header["value"] == "pong"
        handle.sock.sendall(b"\x00" * 64)
        with pytest.raises((WorkerDiedError, ProtocolError)):
            handle.submit("ping", {}, timeout_s=20.0).result(timeout=20.0)
        handle.proc.wait(timeout=15.0)
        # Exit 2 is the worker's deliberate "lost frame sync" verdict.
        assert handle.proc.returncode == 2
    finally:
        handle.mark_dead(WorkerDiedError("fuzz test over"), kill=True)
