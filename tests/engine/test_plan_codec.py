"""The canonical plan bytes and request blobs, pinned byte for byte.

A plan's canonical bytes (:mod:`repro.engine.plan_codec`) are both the
feature-cache key material and its section of a process-tier request
blob, and checkpointed feature caches are keyed by them.  A change to
the encoder that is meant to be a pure speed-up must leave every byte
where it was.  This module pins that three ways:

- **recorded digests**: sha256 over the strict and the loose canonical
  bytes of the served TPC-H plans (the items ``tpch-plan-async`` and
  ``tpch-plan-proc`` send: 256 plans over 4 knob environments), and
  over their ``encode_request`` blobs for each serving environment, in
  ``golden/plan_codec.json``.  The loose digest also covers each plan
  with its integer predicate values turned into numpy scalars, which
  only the loose form tags.  Float estimates come out of ``np.exp``
  and friends, so the digests are checked under the numpy version they
  were recorded on only;
- **a reference oracle**: :func:`reference_encode_plan` is the
  straightforward walk the encoder started as (lists per entry, the
  ``Enum.value`` property, the JSON circular-reference check).  The
  encoder must produce its bytes exactly, on the served plans and on
  hypothesis-generated ones: unicode, NaN and infinities, ``None``,
  tuple ``IN``/``BETWEEN`` values, and numpy scalars in loose mode;
- **fingerprints**: ``plan_fingerprint`` hashes those same bytes, so
  its digests (of the plans and their numpy twins) are recorded too.

Regenerate the digests only for a change that is meant to move the
wire format (and bump ``PROTOCOL_VERSION`` with it)::

    PYTHONPATH=src python tests/engine/test_plan_codec.py
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pathlib
import struct
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.catalog.statistics import Predicate  # noqa: E402
from repro.cluster.proc import protocol  # noqa: E402
from repro.engine.environment import random_environments  # noqa: E402
from repro.engine.operators import (  # noqa: E402
    JOIN_OPERATORS,
    OperatorType,
    PlanNode,
)
from repro.engine.plan_codec import encode_plan  # noqa: E402
from repro.featurization.fingerprint import plan_fingerprint  # noqa: E402
from repro.workload.collect import collect_labeled_plans, get_benchmark  # noqa: E402

EXPECTED = pathlib.Path(__file__).resolve().parent / "golden" / "plan_codec.json"

#: The served items of the plan workloads (``benchmarks/e2e``).
SERVING_ENVS, ENV_SEED = 4, 3
PLAN_ITEMS, PLAN_SEED = 256, 7


# ----------------------------------------------------------------------
# the reference oracle: the encoder's first, plain walk
# ----------------------------------------------------------------------
def _tag(value: object) -> object:
    kind = type(value)
    return {"$py": [f"{kind.__module__}.{kind.__qualname__}", repr(value)]}


def reference_encode_plan(
    plan: PlanNode, runtime: Optional[List[float]] = None, strict: bool = True
) -> Tuple[bytes, int]:
    """``(canonical bytes, node count)`` the plain way: one list per
    entry and per predicate, ``op.value``, and ``json.dumps`` with its
    circular-reference check."""
    entries: List[list] = []
    est: List[float] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        entries.append(
            [
                node.op.value,
                node.table,
                node.index,
                len(node.children),
                [[p.table, p.column, p.op, p.value] for p in node.predicates],
                node.sort_keys,
                node.join_columns,
                node.group_keys,
                node.limit_count,
                node.est_width,
            ]
        )
        est += (node.est_rows, node.est_startup_cost, node.est_total_cost)
        if runtime is not None:
            runtime += (node.true_rows, node.actual_ms, node.actual_total_ms)
        stack.extend(reversed(node.children))
    try:
        body = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    except TypeError:
        if strict:
            raise
        body = b"!" + json.dumps(
            entries, separators=(",", ":"), default=_tag
        ).encode("utf-8")
    return (
        struct.pack("<I", len(body)) + body + struct.pack(f"<{len(est)}d", *est),
        len(entries),
    )


# ----------------------------------------------------------------------
# the served plans and their digests
# ----------------------------------------------------------------------
def served_items():
    """The ``(plan, environments)`` the plan workloads serve."""
    envs = random_environments(SERVING_ENVS, seed=ENV_SEED)
    records = collect_labeled_plans(get_benchmark("tpch"), envs, PLAN_ITEMS, seed=PLAN_SEED)
    return [record.plan for record in records], envs


def numpy_twin(plan: PlanNode) -> PlanNode:
    """A copy of *plan* whose integer predicate values are numpy
    scalars (JSON cannot encode them, so only the loose form can)."""
    twin = copy.deepcopy(plan)
    for node in twin.walk():
        node.predicates = [
            dataclasses.replace(p, value=np.int64(p.value))
            if type(p.value) is int
            else p
            for p in node.predicates
        ]
    return twin


def digests(plans: List[PlanNode], envs) -> Dict[str, object]:
    """sha256 per form: strict bytes, loose bytes (the plans, then their
    numpy twins), feature-cache keys, and per environment every one-plan
    request blob followed by one blob carrying SQL text and every plan."""
    strict = hashlib.sha256()
    loose = hashlib.sha256()
    keys = hashlib.sha256()
    for plan in plans:
        strict.update(encode_plan(plan)[0])
        loose.update(encode_plan(plan, strict=False)[0])
    for plan in plans:
        twin = numpy_twin(plan)
        loose.update(encode_plan(twin, strict=False)[0])
        for keyed in (plan, twin):
            keys.update(plan_fingerprint(keyed, "tpch", 1, "postgres").encode())
    requests = {}
    for env in envs:
        blobs = hashlib.sha256()
        for plan in plans:
            blobs.update(protocol.encode_request([plan], env))
        blobs.update(protocol.encode_request(["SELECT 1", *plans], env))
        requests[env.name] = blobs.hexdigest()
    return {
        "strict": strict.hexdigest(),
        "loose": loose.hexdigest(),
        "fingerprints": keys.hexdigest(),
        "requests": requests,
    }


def record() -> Dict[str, object]:
    plans, envs = served_items()
    return {"numpy": np.__version__, **digests(plans, envs)}


@pytest.fixture(scope="module")
def served():
    return served_items()


def test_served_plans_match_the_recorded_digests(served):
    expected = json.loads(EXPECTED.read_text())
    if expected["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {expected['numpy']}")
    plans, envs = served
    got = digests(plans, envs)
    for form in ("strict", "loose"):
        assert got[form] == expected[form], f"{form} canonical bytes moved"
    assert got["fingerprints"] == expected["fingerprints"], "keys moved"
    assert got["requests"] == expected["requests"], "request blobs moved"
    assert protocol.PROTOCOL_VERSION == 3


def test_served_plans_match_the_reference_encoder(served):
    plans, _ = served
    for plan in plans:
        for candidate in (plan, numpy_twin(plan)):
            assert_same_encoding(candidate, strict=False)
        assert_same_encoding(plan, strict=True)


# ----------------------------------------------------------------------
# generated plans against the oracle
# ----------------------------------------------------------------------
def _outcome(encode, plan: PlanNode, strict: bool):
    """Bytes, node count and packed runtime floats, or the error type."""
    runtime: List[float] = []
    try:
        data, nodes = encode(plan, runtime, strict=strict)
    except TypeError:
        return "TypeError"
    return data, nodes, struct.pack(f"<{len(runtime)}d", *runtime)


def assert_same_encoding(plan: PlanNode, strict: bool) -> None:
    assert _outcome(encode_plan, plan, strict) == _outcome(
        reference_encode_plan, plan, strict
    )


_names = st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["l_tax", "é", "表", "\U0001f600"]))
_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=6)
)
_numpy_scalars = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _floats.map(np.float64),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
)


def _values(scalars):
    return st.one_of(
        scalars,
        st.tuples(scalars, scalars),  # BETWEEN
        st.lists(scalars, max_size=4).map(tuple),  # IN
        st.lists(scalars, max_size=3),
    )


@st.composite
def plans(draw, values, depth: int = 0) -> PlanNode:
    """A random plan tree of depth at most 3 whose predicates carry
    draws of *values*."""
    op = draw(st.sampled_from(list(OperatorType)))
    if op in JOIN_OPERATORS and depth >= 2:
        op = OperatorType.SEQ_SCAN
    if op in JOIN_OPERATORS:
        fanout = 2
    else:
        fanout = draw(st.integers(0, 1 if depth < 2 else 0))
    children = [draw(plans(values, depth + 1)) for _ in range(fanout)]
    text = st.text(min_size=1, max_size=6)
    predicate = st.builds(
        Predicate,
        table=text,
        column=text,
        op=st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "between", "in", "like"]),
        value=values,
    )
    keys = st.lists(st.text(max_size=4), max_size=3).map(tuple)
    node = PlanNode(
        op=op,
        children=children,
        table=draw(text) if op in (OperatorType.SEQ_SCAN, OperatorType.INDEX_SCAN) else draw(_names),
        index=draw(text) if op is OperatorType.INDEX_SCAN else draw(_names),
        predicates=draw(st.lists(predicate, max_size=3)),
        sort_keys=draw(keys),
        join_columns=draw(keys),
        group_keys=draw(keys),
        limit_count=draw(st.one_of(st.none(), st.integers(0, 10**12))),
        est_rows=draw(_floats),
        est_width=draw(st.integers(0, 10**6)),
        est_startup_cost=draw(_floats),
        est_total_cost=draw(_floats),
    )
    node.true_rows, node.actual_ms, node.actual_total_ms = (
        draw(_floats), draw(_floats), draw(_floats)
    )
    return node


@settings(max_examples=80)
@given(plans(_values(_scalars)))
def test_generated_plans_match_the_reference_encoder(plan):
    assert_same_encoding(plan, strict=True)
    assert_same_encoding(plan, strict=False)


@settings(max_examples=80)
@given(plans(_values(st.one_of(_scalars, _numpy_scalars))))
def test_generated_plans_with_numpy_scalars_match_in_both_modes(plan):
    """Strict mode refuses a numpy scalar (TypeError in both), loose
    mode tags it by type and ``repr`` — byte for byte alike."""
    assert_same_encoding(plan, strict=True)
    assert_same_encoding(plan, strict=False)


if __name__ == "__main__":
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {EXPECTED}")
