"""Canonical plan bytes: one encoding for the feature-cache key and the wire.

A plan's **canonical bytes** hold every :class:`PlanNode` field
featurization reads, and nothing else:

.. code-block:: text

    +-----------+--------------------------------+----------------------+
    | json_len  | JSON [entry, ...]              | est float64 block    |
    +-----------+--------------------------------+----------------------+
      u32 LE      one positional entry per node,   EST_FLOATS per node,
                  in pre-order                     LE, in node order

An entry is ``[op, table, index, child count, predicates, sort keys,
join columns, group keys, limit, est_width]``, a predicate
``[table, column, op, value]``.  The optimizer estimates
(:data:`EST_FLOATS`) are packed as exact float64, so two plans that
differ in the last bit of a cost get different bytes.  Runtime-only
fields (:data:`RUNTIME_FLOATS`, resource counts) are left out: they
are unknown at estimation time and unused by featurization.

The same bytes serve two purposes.
:func:`~repro.featurization.fingerprint.plan_fingerprint` hashes them
into the feature-cache key, and the process tier ships them as a
plan's section of a request blob (:mod:`repro.cluster.proc.protocol`).
A worker can therefore look up cached features straight from the
bytes it received.  :class:`EncodedPlan` holds such bytes and decodes
the tree only when something asks for ``.plan``.

Encoding is *strict* for the wire: a value JSON cannot carry (a numpy
integer in a predicate, say) raises ``TypeError``.  The in-process key
encodes *loosely* instead: such a value is tagged by its type and
``repr``, and the JSON part is marked so a loose encoding never equals
a strict one.  Loose bytes are for hashing only; they do not decode.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, List, Optional, Tuple

from ..catalog.statistics import Predicate
from ..errors import PlanError, ProtocolError
from .operators import OperatorType, PlanNode

#: Optimizer estimates of one node, in the order the est block holds
#: them: part of the canonical bytes.
EST_FLOATS = ("est_rows", "est_startup_cost", "est_total_cost")

#: Runtime-only floats of one node, in the order a request blob's
#: runtime block holds them: never part of the canonical bytes.
RUNTIME_FLOATS = ("true_rows", "actual_ms", "actual_total_ms")

#: Bytes per node of the est block (and of a runtime block).
NODE_FLOAT_BYTES = 8 * len(EST_FLOATS)

#: Length prefix of the JSON part.
_LEN = struct.Struct("<I")

#: Starts the JSON part of a loose encoding.  A strict JSON part always
#: starts with ``[``, so the two can never be equal, and the decoder
#: refuses a loose encoding.
_LOOSE = b"!"

#: Operator types by their wire (``.value``) name.
_OPERATORS = {op.value: op for op in OperatorType}

#: Marks an exhausted iterator (any JSON value, ``null`` too, is data).
_END = object()


def _tag(value: object) -> object:
    """A JSON stand-in for a value JSON cannot encode (loose mode)."""
    kind = type(value)
    return {"$py": [f"{kind.__module__}.{kind.__qualname__}", repr(value)]}


#: The JSON encoders of the strict and the loose form (stateless, so
#: shared across threads instead of built per call).  The entries are
#: built fresh on every call, so only a value that contains itself can
#: recurse; the circular-reference pass is skipped and such a value
#: surfaces as ``RecursionError`` instead (see :func:`encode_plan`).
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_TAGGING_JSON = json.JSONEncoder(
    separators=(",", ":"), check_circular=False, default=_tag
)


def encode_plan(
    plan: PlanNode,
    runtime: Optional[List[float]] = None,
    strict: bool = True,
) -> Tuple[bytes, int]:
    """``(canonical bytes, node count)`` of *plan*.

    When *runtime* is given, each node's :data:`RUNTIME_FLOATS` are
    appended to it in node order, in the same walk.  *strict* raises
    ``TypeError`` on a value JSON cannot encode; otherwise the value is
    tagged by type and ``repr`` (see the module docstring).  A value no
    JSON can hold in either mode (a list that contains itself) raises
    :class:`~repro.errors.PlanError`.

    Entries are tuples (JSON writes them as arrays), the operator name
    comes from the member's ``_value_`` slot (cheaper than the
    ``Enum.value`` property), and a node without predicates gets the
    shared empty tuple.  The bytes equal those of a plain walk with
    lists, which ``tests/engine/test_plan_codec.py`` keeps as its
    reference.
    """
    entries: List[tuple] = []
    est: List[float] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        predicates = node.predicates
        children = node.children
        entries.append(
            (
                node.op._value_,
                node.table,
                node.index,
                len(children),
                [(p.table, p.column, p.op, p.value) for p in predicates]
                if predicates
                else (),
                node.sort_keys,
                node.join_columns,
                node.group_keys,
                node.limit_count,
                node.est_width,
            )
        )
        est += (node.est_rows, node.est_startup_cost, node.est_total_cost)
        if runtime is not None:
            runtime += (node.true_rows, node.actual_ms, node.actual_total_ms)
        if children:
            stack.extend(reversed(children))
    try:
        try:
            body = _JSON.encode(entries).encode("utf-8")
        except TypeError:
            if strict:
                raise
            body = _LOOSE + _TAGGING_JSON.encode(entries).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise PlanError(f"plan holds a value JSON cannot encode: {exc}") from exc
    return (
        _LEN.pack(len(body)) + body + struct.pack(f"<{len(est)}d", *est),
        len(entries),
    )


def _strings(values: object) -> Tuple[str, ...]:
    """*values* as a tuple of strings (anything else is malformed)."""
    if type(values) is not list:
        raise ProtocolError(f"expected a list of strings, got {values!r}")
    for value in values:
        if type(value) is not str:
            raise ProtocolError(f"expected a string, got {value!r}")
    return tuple(values)


def _node_from(entries, est, runtime) -> PlanNode:
    """The plan whose pre-order entries *entries* yields, taking
    :data:`EST_FLOATS` from *est* and :data:`RUNTIME_FLOATS` from
    *runtime* per node (all iterators)."""
    entry = next(entries)
    if type(entry) is not list:
        raise ProtocolError(
            f"plan node entry is a {type(entry).__name__}, not a list"
        )
    (
        op, table, index, child_count, predicates,
        sort_keys, join_columns, group_keys, limit_count, est_width,
    ) = entry
    if not (
        (table is None or type(table) is str)
        and (index is None or type(index) is str)
        and type(child_count) is int
        and child_count >= 0
        and type(predicates) is list
        and all(type(p) is list for p in predicates)
        and (limit_count is None or type(limit_count) is int)
        and type(est_width) is int
    ):
        raise ProtocolError("malformed plan node entry")
    est_rows, startup, total = next(est), next(est), next(est)
    true_rows, actual, actual_total = (
        next(runtime), next(runtime), next(runtime)
    )
    node = PlanNode(
        op=_OPERATORS[op],
        table=table,
        index=index,
        predicates=[
            Predicate(
                table=str(p_table),
                column=str(p_column),
                op=str(p_op),
                # BETWEEN/IN values are tuples in live predicates.
                value=tuple(value) if type(value) is list else value,
            )
            for p_table, p_column, p_op, value in predicates
        ],
        sort_keys=_strings(sort_keys),
        join_columns=_strings(join_columns),
        group_keys=_strings(group_keys),
        limit_count=limit_count,
        est_rows=est_rows,
        est_width=est_width,
        est_startup_cost=startup,
        est_total_cost=total,
        children=[
            _node_from(entries, est, runtime) for _ in range(child_count)
        ],
    )
    node.true_rows, node.actual_ms, node.actual_total_ms = (
        true_rows, actual, actual_total
    )
    return node


def encoded_nodes(data: bytes) -> int:
    """The node count canonical bytes *data* hold, from their lengths
    alone (no JSON parse); :class:`~repro.errors.ProtocolError` when
    the lengths do not fit together."""
    if len(data) < _LEN.size:
        raise ProtocolError(f"canonical plan bytes are {len(data)} bytes")
    (length,) = _LEN.unpack_from(data)
    est_bytes = len(data) - _LEN.size - length
    if est_bytes <= 0 or est_bytes % NODE_FLOAT_BYTES:
        raise ProtocolError(
            f"canonical plan bytes declare {length} JSON bytes, hold "
            f"{len(data) - _LEN.size}"
        )
    return est_bytes // NODE_FLOAT_BYTES


def decode_plan(data: bytes, runtime: Optional[bytes] = None) -> PlanNode:
    """Inverse of :func:`encode_plan`.

    *runtime* holds the plan's :data:`RUNTIME_FLOATS` as float64 LE,
    node by node; without it they keep their defaults.  Every
    malformed input raises :class:`~repro.errors.ProtocolError`.
    """
    try:
        nodes = encoded_nodes(data)
        end = len(data) - nodes * NODE_FLOAT_BYTES
        entries = json.loads(data[_LEN.size : end].decode("utf-8"))
        if type(entries) is not list or len(entries) != nodes:
            raise ProtocolError(
                f"plan JSON is not a list of the {nodes} nodes its est "
                "block holds"
            )
        est = iter(struct.unpack_from(f"<{3 * nodes}d", data, end))
        if runtime is None:
            runtime_values = iter((0.0,) * (3 * nodes))
        elif len(runtime) != nodes * NODE_FLOAT_BYTES:
            raise ProtocolError(
                f"plan has {len(runtime)} runtime bytes, {nodes} nodes "
                f"need {nodes * NODE_FLOAT_BYTES}"
            )
        else:
            runtime_values = iter(struct.unpack(f"<{3 * nodes}d", runtime))
        walk = iter(entries)
        plan = _node_from(walk, est, runtime_values)
        if next(walk, _END) is not _END:
            raise ProtocolError("plan entries outlive their tree")
        return plan
    except ProtocolError:
        raise
    except Exception as exc:  # malformed wire data stays a typed error
        raise ProtocolError(f"invalid plan encoding: {exc}") from exc


class EncodedPlan:
    """A plan as its canonical bytes; the tree decodes on first use.

    ``data`` is the plan's canonical bytes (:func:`encode_plan`),
    ``nodes`` its node count and ``runtime`` its runtime floats
    (float64 LE, :data:`RUNTIME_FLOATS` per node) or None.  The
    feature-cache key needs only ``data``; :attr:`plan` decodes the
    tree once, calls ``on_decode`` if given, and keeps the result.
    """

    __slots__ = ("data", "nodes", "runtime", "_plan", "_on_decode")

    def __init__(
        self,
        data: bytes,
        nodes: int,
        runtime: Optional[bytes] = None,
        on_decode: Optional[Callable[[], None]] = None,
    ):
        self.data = data
        self.nodes = nodes
        self.runtime = runtime
        self._plan: Optional[PlanNode] = None
        self._on_decode = on_decode

    @property
    def plan(self) -> PlanNode:
        """The decoded tree (decoded on the first access only)."""
        if self._plan is None:
            self._plan = decode_plan(self.data, self.runtime)
            if self._on_decode is not None:
                self._on_decode()
        return self._plan
