"""Seeded fuzzing of the IPC frame protocol and its value codecs.

The invariant under test: malformed, truncated, mutated, or oversized
wire data produces a *typed* ``repro.errors`` exception (almost always
:class:`ProtocolError`) — never a builtin leaking out of ``struct`` /
``json``, never a hung future, never an interpreter crash.  All
randomness is seeded so a failing case replays exactly.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import struct
import tracemalloc

import numpy as np
import pytest

from repro.catalog.statistics import Predicate
from repro.cluster.proc import protocol
from repro.cluster.proc.supervisor import WorkerHandle
from repro.cluster.proc.worker import WorkerRuntime
from repro.engine.environment import DatabaseEnvironment, random_environments
from repro.engine.hardware import PROFILES
from repro.engine.knobs import KnobConfiguration
from repro.engine.operators import OperatorType, PlanNode
from repro.errors import (
    ClusterError,
    ParseError,
    ProtocolError,
    ShardOverloadError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from repro.featurization.fingerprint import plan_fingerprint
from repro.persist import plan_to_state
from repro.serving import CostService, SnapshotStore
from repro.sql import parse_sql
from repro.workload.collect import collect_labeled_plans

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


def test_frame_header_bytes_are_compact_json():
    """A frame's header region is exactly ``json.dumps`` with compact
    separators, whatever the header holds."""
    for header in (
        {"id": 1, "kind": "estimate", "bundle": "b", "backend": None},
        {"id": 2, "kind": "sync", "payload": [1.5, float("nan"), "\u00e9\U0001f600"]},
        {"id": 3, "kind": "counters", "nested": {"a": [True, None]}},
    ):
        frame = protocol.encode_frame(header, b"tail")
        body = json.dumps(header, separators=(",", ":")).encode("utf-8")
        assert frame[protocol.PREFIX_SIZE : -4] == body
    circular: list = []
    circular.append(circular)
    with pytest.raises(ProtocolError):
        protocol.encode_frame({"id": 4, "kind": "ping", "loop": circular})


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
    def prefix(
        magic=b"QF", version=protocol.PROTOCOL_VERSION, header_len=2,
        tail_len=0,
    ):
        return struct.pack(">2sBBII", magic, version, 0, header_len, tail_len)

    protocol.decode_prefix(prefix())  # the baseline prefix is valid
    for bad in (
        prefix(magic=b"ZZ"),
        prefix(version=0),
        prefix(version=1),  # the JSON-plan wire format
        prefix(version=2),  # one JSON part per request, floats after it
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
    growing buffer, at any split, and the stream stays in sync."""
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


def test_env_codec_keeps_custom_hardware_under_a_profile_name():
    """A profile sharing a stock profile's name but not its fields
    keeps its own fields; an exact match reuses the stock object."""
    stock = PROFILES["h1_r7_7735hs"]
    custom = dataclasses.replace(stock, seq_ms_per_page=0.5)
    knobs = random_environments(1, seed=11)[0].knobs
    for hardware in (custom, stock):
        env = DatabaseEnvironment(knobs=knobs, hardware=hardware)
        back = protocol.env_from_wire(protocol.env_to_wire(env))
        assert back == env and back.hardware == hardware
    env = DatabaseEnvironment(knobs=knobs, hardware=dataclasses.replace(stock))
    assert protocol.env_from_wire(protocol.env_to_wire(env)).hardware is stock


def test_query_codec_round_trip_and_rejection(cluster_bundle, sysbench):
    """SQL text, a SelectQuery and a plan ship in one request blob;
    anything else is refused at encode time with a typed error."""
    _, labeled = cluster_bundle
    env = random_environments(1, seed=11)[0]
    plan = labeled[0].plan
    parsed = parse_sql(labeled[1].query_sql, sysbench.catalog)
    queries, back_env = protocol.decode_request(
        protocol.encode_request(["SELECT 1", parsed, plan], env)
    )
    assert queries[:2] == ["SELECT 1", parsed.sql()]
    assert plan_to_state(queries[2]) == plan_to_state(plan)
    assert back_env == env
    for bad in (12345, labeled[0], None):
        with pytest.raises(ProtocolError):
            protocol.encode_request([bad], env)
    with pytest.raises(ProtocolError):
        protocol.encode_request(["SELECT 1"], "not an environment")
    env_json = json.dumps(protocol.env_to_wire(env))
    scan = '["Seq Scan","t",null,0,[],[],[],[],null,8]'
    string_predicate = '["Seq Scan","t",null,0,["abcd"],[],[],[],null,8]'
    malformed = [  # (env JSON, query sections, runtime-block nodes)
        ("[]", [], 0),  # an env that is not an object
        (env_json, [b"abc"], 0),  # a section with an unknown tag
        (env_json, [], 0, 1),  # a count promising a missing section
        (env_json, [plan_section('{"op":0}', 1)], 1),  # a plan object
        (env_json, [plan_section('[["Seq Scan",null]]', 1)], 1),  # short entry
        (env_json, [plan_section('["0123456789"]', 1)], 1),  # a string entry
        (env_json, [plan_section(f"[{string_predicate}]", 1)], 1),
        (env_json, [plan_section(f"[{scan},null]", 2)], 2),  # past the tree
    ]
    assert protocol.decode_request(
        request_blob(env_json, [plan_section(f"[{scan}]", 1)], 1)
    )[0][0].table == "t"  # the well-formed twin of the cases above
    for bad in [b"", b"\x00" * 3, b"\xff" * 8] + [
        request_blob(*case) for case in malformed
    ]:
        with pytest.raises(ProtocolError):
            protocol.decode_request(bad)


def plan_section(entries_json: str, nodes: int) -> bytes:
    """A hand-built v3 plan section: its head, then canonical bytes
    holding *entries_json* and *nodes* zeroed est triples."""
    body = entries_json.encode()
    canonical = struct.pack("<I", len(body)) + body + b"\x00" * (24 * nodes)
    return struct.pack("<cII", b"P", nodes, len(canonical)) + canonical


def request_blob(env_json: str, sections, nodes: int, extra: int = 0) -> bytes:
    """A hand-built v3 request blob: env section, a count of
    ``len(sections) + extra`` queries, *sections*, and a zeroed runtime
    block for *nodes* plan nodes."""
    env = env_json.encode()
    return (
        struct.pack("<I", len(env)) + env
        + struct.pack("<I", len(sections) + extra)
        + b"".join(sections) + b"\x00" * (24 * nodes)
    )


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
# request blobs
# ----------------------------------------------------------------------
def float_bits(plan):
    """Every float field of every node of *plan*, as raw bytes."""
    return [
        struct.pack("<d", getattr(node, name))
        for node in plan.walk()
        for name in protocol.NODE_FLOATS
    ]


def structure(plan):
    """``plan_to_state`` of *plan* without its float fields (NaN never
    compares equal, so floats are checked by bits instead)."""
    def strip(state):
        kept = {
            key: value for key, value in state.items()
            if key not in protocol.NODE_FLOATS
        }
        kept["children"] = [strip(child) for child in state["children"]]
        return kept

    return strip(plan_to_state(plan))


def edge_plan():
    """A plan whose values hit the codec's edge cases: tuple IN and
    BETWEEN values, None table/index/limit, and -0.0, subnormal and
    NaN (with a payload) floats."""
    payload_nan = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]
    scan = PlanNode(
        op=OperatorType.INDEX_SCAN,
        table="lineitem",
        index="lineitem_pkey",
        predicates=[
            Predicate("lineitem", "l_quantity", "between", (1, 24.5)),
            Predicate("lineitem", "l_shipmode", "in", ("MAIL", "SHIP")),
            Predicate("lineitem", "l_comment", "like", "%ab\u00e9%"),
            Predicate("lineitem", "l_tax", "=", None),
        ],
        est_rows=-0.0,
        est_width=17,
        est_startup_cost=5e-324,
        est_total_cost=float("nan"),
    )
    scan.true_rows = payload_nan
    scan.actual_ms = float("inf")
    scan.actual_total_ms = -1.5e-310
    other = PlanNode(op=OperatorType.SEQ_SCAN, table="orders", est_rows=3.0)
    join = PlanNode(
        op=OperatorType.HASH_JOIN,
        children=[scan, other],
        join_columns=("l_orderkey", "o_orderkey"),
    )
    agg = PlanNode(
        op=OperatorType.AGGREGATE, children=[join], group_keys=("l_tax",)
    )
    return PlanNode(
        op=OperatorType.LIMIT,
        children=[PlanNode(
            op=OperatorType.SORT, children=[agg], sort_keys=("l_tax",)
        )],
        limit_count=10,
    )


def test_request_blob_round_trips_every_tpch_template_plan(tpch):
    env = random_environments(1, seed=11)[0]
    names = {name for name, _text in tpch.template_texts}
    plans = collect_labeled_plans(tpch, [env], len(names), seed=2)
    assert {record.template for record in plans} == names
    for record in plans:
        (back,), back_env = protocol.decode_request(
            protocol.encode_request([record.plan], env)
        )
        assert plan_to_state(back) == plan_to_state(record.plan)
        assert plan_fingerprint(back) == plan_fingerprint(record.plan)
        assert back_env == env
    queries, _ = protocol.decode_request(
        protocol.encode_request([r.plan for r in plans], env)
    )
    assert [plan_to_state(q) for q in queries] == [
        plan_to_state(r.plan) for r in plans
    ]


def test_request_blob_edge_values_are_bit_exact():
    plan = edge_plan()
    env = random_environments(1, seed=11)[0]
    (back,), _ = protocol.decode_request(protocol.encode_request([plan], env))
    assert float_bits(back) == float_bits(plan)
    assert structure(back) == structure(plan)
    assert plan_fingerprint(back) == plan_fingerprint(plan)
    predicates = next(n for n in back.walk() if n.predicates).predicates
    assert predicates[0].value == (1, 24.5)
    assert predicates[1].value == ("MAIL", "SHIP")
    assert predicates[3].value is None
    assert back.limit_count == 10 and back.table is None and back.index is None


def edge_blob():
    env = random_environments(1, seed=11)[0]
    return protocol.encode_request(["SELECT 1", edge_plan()], env)


def test_request_blob_every_truncation_is_a_typed_error():
    blob = edge_blob()
    for cut in range(len(blob)):
        with pytest.raises(ProtocolError):
            protocol.decode_request(blob[:cut])
    with pytest.raises(ProtocolError):
        protocol.decode_request(blob + b"\x00" * 8)  # a surplus float


def test_request_blob_byte_flips_and_garbage_are_typed():
    """Byte flips either land somewhere inert (a float's bits, a
    letter of a name) and decode, or raise ProtocolError; random
    garbage always raises it."""
    rng = random.Random(0xB10B)
    blob = edge_blob()
    decoded = rejected = 0
    for _ in range(500):
        data = bytearray(blob)
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            protocol.decode_request(bytes(data))
        except ProtocolError:
            rejected += 1
        else:
            decoded += 1
    assert rejected > 0 and decoded + rejected == 500
    rng = random.Random(31337)
    for _ in range(300):
        garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        with pytest.raises(ProtocolError):
            protocol.decode_request(garbage)


def test_unencodable_values_raise_protocol_error_not_type_error(
    cluster_bundle,
):
    """A value JSON cannot encode is a typed error, in a frame header
    and in a request blob alike: a numpy scalar, a list that contains
    itself, and a numpy knob value in the environment — the last on
    every call, since a failed env section is never kept."""
    _, labeled = cluster_bundle
    env = random_environments(1, seed=11)[0]
    with pytest.raises(ProtocolError):
        protocol.encode_frame({"id": 1, "kind": "ping", "n": np.int64(7)})
    plan = copy.deepcopy(labeled[0].plan)
    node = next(n for n in plan.walk() if n.predicates)
    original = node.predicates[0]
    node.predicates[0] = dataclasses.replace(original, value=np.int64(7))
    with pytest.raises(ProtocolError):
        protocol.encode_request([plan], env)
    circular = [1]
    circular.append(circular)
    node.predicates[0] = dataclasses.replace(original, op="in", value=circular)
    with pytest.raises(ProtocolError):
        protocol.encode_request([plan], env)
    numpy_env = DatabaseEnvironment(
        knobs=KnobConfiguration(name="np", values={"work_mem": np.int64(4096)}),
        hardware=env.hardware,
    )
    for _ in range(3):
        with pytest.raises(ProtocolError):
            protocol.encode_request([labeled[0].plan], numpy_env)
        with pytest.raises(ProtocolError):
            protocol.env_section(numpy_env)
    # The same knobs as plain ints encode, and keep encoding.
    plain_env = DatabaseEnvironment(
        knobs=KnobConfiguration(name="np", values={"work_mem": 4096}),
        hardware=env.hardware,
    )
    blob = protocol.encode_request([labeled[0].plan], plain_env)
    assert protocol.encode_request([labeled[0].plan], plain_env) == blob


def test_env_sections_are_built_once_per_environment_object():
    """The env section is kept per environment object: the same object
    reuses its bytes, an equal but distinct one gets equal bytes of its
    own, and the map stays bounded however many envs pass through."""
    [env] = random_environments(1, seed=11)
    [twin] = random_environments(1, seed=11)
    section = protocol.env_section(env)
    assert protocol.env_section(env) is section
    assert protocol.env_section(twin) == section
    assert section[4:] == json.dumps(
        protocol.env_to_wire(env), separators=(",", ":")
    ).encode()
    assert protocol.decode_env(section[4:]) == env
    many = random_environments(protocol.ENV_SECTIONS_MAX + 5, seed=12)
    for other in many:
        protocol.env_section(other)
    assert len(protocol._env_sections) <= protocol.ENV_SECTIONS_MAX
    assert protocol.env_section(many[-1]) is protocol.env_section(many[-1])


def test_worker_decodes_plans_one_bit_apart_to_their_own_estimates(
    cluster_bundle, cluster_envs
):
    """Two plans one bit apart in one cost decode to their own plans in
    a worker, and its estimates equal the in-process ones."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    plan = labeled[0].plan
    twin = copy.deepcopy(plan)
    twin.est_total_cost = float(np.nextafter(plan.est_total_cost, np.inf))
    sequence = [plan, twin, plan]
    blobs = [protocol.encode_request([p], env) for p in sequence]
    assert blobs[0] != blobs[1] and blobs[0] == blobs[2]
    for blob, sent in zip(blobs, sequence):
        (back,), _ = protocol.decode_request(blob)
        assert float_bits(back) == float_bits(sent)
    runtime = WorkerRuntime({})
    try:
        runtime.service.deploy(bundle)
        outcomes = runtime.serve_estimates(
            [({"id": i, "kind": "estimate"}, b) for i, b in enumerate(blobs)]
        )
    finally:
        runtime.close()
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        expected = single.estimate_batch(
            [(p, env, None, None) for p in sequence]
        )
    assert outcomes == expected


def test_worker_refuses_a_multi_query_blob_on_a_single_query_frame(
    cluster_bundle, cluster_envs
):
    bundle, labeled = cluster_bundle
    blob = protocol.encode_request(
        [labeled[0].plan, labeled[1].plan], cluster_envs[0]
    )
    runtime = WorkerRuntime({})
    try:
        runtime.service.deploy(bundle)
        [outcome] = runtime.serve_estimates([({"id": 1, "kind": "estimate"}, blob)])
    finally:
        runtime.close()
    assert isinstance(outcome, ProtocolError)


def test_reader_never_trusts_a_declared_length():
    """A prefix declaring a 200 MiB tail, then EOF: a typed death, and
    memory in proportion to the bytes that arrived, not the claim."""
    prefix = struct.pack(
        ">2sBBII", protocol.MAGIC, protocol.PROTOCOL_VERSION, 0,
        2, 200 * 1024 * 1024,
    )
    tracemalloc.start()
    try:
        with pytest.raises(WorkerDiedError):
            read_all(ChunkedSocket(prefix + b"{}" + b"x" * 1000))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024


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


# ----------------------------------------------------------------------
# sync images: the weights of every deploy
# ----------------------------------------------------------------------
def _bundle_image(bundle) -> bytes:
    """The checkpoint image a template holding *bundle* publishes."""
    from repro.persist import encode_checkpoint, service_state

    with CostService() as template:
        template.deploy(bundle)
        return encode_checkpoint(
            service_state(template), meta={"kind": "cost_service"}
        )


def _with_manifest(image: bytes, mutate) -> bytes:
    """*image* with its manifest patched by *mutate* (payload as is)."""
    from repro.persist.checkpoint import MAGIC

    head = len(MAGIC) + 8
    (length,) = struct.unpack(">Q", image[len(MAGIC):head])
    manifest = json.loads(image[head:head + length])
    mutate(manifest)
    body = json.dumps(manifest, sort_keys=True).encode()
    return MAGIC + struct.pack(">Q", len(body)) + body + image[head + length:]


def test_decoding_an_image_copies_each_array_once(cluster_bundle):
    """The decode slices blobs out of the image without copying them:
    its allocation peak stays under 1.5 times the image, the arrays'
    single copy included."""
    from repro.persist import decode_checkpoint

    image = _bundle_image(cluster_bundle[0])
    decode_checkpoint(image)  # warm imports and caches
    tracemalloc.start()
    try:
        state, _ = decode_checkpoint(image)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state["registry"]
    assert peak < 1.5 * len(image), (peak, len(image))


def test_damaged_sync_tails_get_typed_replies_and_keep_the_old_state(
    cluster_bundle, cluster_envs
):
    """A live worker sent a damaged image answers with a typed error,
    stays up, and keeps serving the generation it had, bit for bit."""
    from repro.errors import CheckpointCorruptError, CheckpointError

    bundle, labeled = cluster_bundle
    image = _bundle_image(bundle)
    flipped = bytearray(image)
    flipped[-1] ^= 0x01

    def flip_blob_hash(manifest):
        digest = manifest["blobs"][0]["sha256"]
        manifest["blobs"][0]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]

    def unknown_schema(manifest):
        manifest["schema_version"] = 99

    damaged = {
        "truncated": (image[:20], CheckpointCorruptError),
        "bad magic": (b"XXXX" + image[4:], CheckpointCorruptError),
        "payload hash flip": (bytes(flipped), CheckpointCorruptError),
        "blob hash flip": (
            _with_manifest(image, flip_blob_hash), CheckpointCorruptError
        ),
        "unknown schema": (_with_manifest(image, unknown_schema), CheckpointError),
    }
    request = protocol.encode_request([labeled[0].plan], cluster_envs[0])
    routing = {"bundle": bundle.name, "backend": None}
    handle = WorkerHandle("fuzz-sync", fast_config())
    handle.spawn()
    try:
        handle.rpc("sync", {"generation": 1}, image)
        expected, _ = handle.rpc("estimate", routing, request)
        with pytest.raises(ProtocolError):
            handle.rpc("sync", {}, image)
        for label, (bad, error) in damaged.items():
            with pytest.raises(error):
                handle.rpc("sync", {"generation": 2}, bad)
            header, _ = handle.rpc("estimate", routing, request)
            assert header["value"] == expected["value"], label
        counters, _ = handle.rpc("counters", {})
        assert counters["value"]["generation"] == 1
    finally:
        handle.mark_dead(WorkerDiedError("fuzz test over"), kill=True)


def test_a_worker_acknowledges_but_skips_an_older_generation(
    cluster_bundle, cluster_envs
):
    """Syncs of concurrent deploys can reach a worker out of order: one
    older than the installed generation is acknowledged and ignored."""
    from repro.persist import encode_checkpoint, service_state

    bundle, labeled = cluster_bundle
    with CostService() as template:
        template.deploy(bundle)
        older = encode_checkpoint(service_state(template))
        template.deploy(bundle, name="tenant-b")
        newer = encode_checkpoint(service_state(template))
    handle = WorkerHandle("fuzz-stale", fast_config())
    handle.spawn()
    try:
        header, _ = handle.rpc("sync", {"generation": 3}, newer)
        assert header["bundles"] == [bundle.name, "tenant-b"]
        header, _ = handle.rpc("sync", {"generation": 2}, older)
        assert header["generation"] == 3
        assert header["bundles"] == [bundle.name, "tenant-b"]
        request = protocol.encode_request([labeled[0].plan], cluster_envs[0])
        reply, _ = handle.rpc(
            "estimate", {"bundle": "tenant-b", "backend": None}, request
        )
        assert np.isfinite(reply["value"])
    finally:
        handle.mark_dead(WorkerDiedError("fuzz test over"), kill=True)
