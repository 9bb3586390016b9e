"""Stable plan fingerprints: the feature-cache key of the serving layer.

:func:`plan_fingerprint` hashes a plan's canonical bytes
(:mod:`repro.engine.plan_codec`): every :class:`PlanNode` field the
:class:`~repro.featurization.encoding.OperatorEncoder` (and the MSCN
encoder) reads — operator, table/index, predicates, sort/join/group
keys, limit and the optimizer estimates as exact float64 — in the
pre-order the encoders walk.  Equal fingerprints therefore mean equal
featurization inputs (up to a 128-bit hash collision), so a cached
encoding is never served to a plan it was not computed for.  The
converse does not hold: two plans that featurize alike may still get
different keys (``3`` against ``3.0`` as a predicate value, say) and
pay one extra miss.
Runtime-only fields (actual times, true cardinalities, resource
counts) are excluded: they are unknown at estimation time and unused
by featurization.

The same canonical bytes are a plan's section on the process tier's
wire, so a worker keys an :class:`~repro.engine.plan_codec.EncodedPlan`
by the bytes it received, without decoding the tree; both tiers call
this one function.

Extra context (environment name, bundle version, mask revision) is
mixed in via ``*context`` so one cache can serve many configurations
without collisions.

:func:`template_fingerprint` is the coarser sibling used by
template-level memoization: it drops every *literal-derived* field
(predicate values, LIMIT counts, optimizer estimates) so all
instantiations of one prepared-statement template share a digest.  The
cached skeleton is then patched with just those per-request values —
see ``OperatorEncoder.encode_plan_skeleton``.
"""

from __future__ import annotations

import hashlib
from typing import Union

from ..engine.operators import PlanNode
from ..engine.plan_codec import EncodedPlan, encode_plan

_FIELD_SEP = b"\x1f"
_NODE_SEP = b"\x1e"


def plan_fingerprint(plan: Union[PlanNode, EncodedPlan], *context: object) -> str:
    """Hex digest identifying *plan*'s featurization, plus *context*.

    An :class:`EncodedPlan` is keyed by its bytes as they are; a
    :class:`PlanNode` is encoded loosely first, so a value JSON cannot
    carry is tagged by type and ``repr`` rather than refused.  Only a
    value no JSON can hold (a list that contains itself) is refused,
    with :class:`~repro.errors.PlanError`.
    """
    if isinstance(plan, EncodedPlan):
        data = plan.data
    else:
        data, _ = encode_plan(plan, strict=False)
    digest = hashlib.blake2b(digest_size=16)
    for part in context:
        digest.update(repr(part).encode("utf-8"))
        digest.update(_FIELD_SEP)
    digest.update(data)
    return digest.hexdigest()


def template_fingerprint(plan: PlanNode, *context: object) -> str:
    """Hex digest of *plan*'s shape with literal-derived fields dropped.

    Covers exactly the featurization inputs that survive in an encoded
    *skeleton*: operator, table/index, predicate columns and operators
    (but not their values), sort/join/group keys and child count.
    Predicate values, LIMIT counts and the optimizer estimates — every
    dimension :meth:`OperatorEncoder.fill_numerics` or the MSCN value
    column rewrites per request — are excluded, so two executions of
    the same prepared statement with different literals collide here
    on purpose.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"template")
    digest.update(_FIELD_SEP)
    for part in context:
        digest.update(repr(part).encode("utf-8"))
        digest.update(_FIELD_SEP)
    for node in plan.walk():
        fields = (
            node.op.value,
            node.table or "",
            node.index or "",
            ";".join(
                f"{p.table}.{p.column}{p.op}" for p in node.predicates
            ),
            ",".join(node.sort_keys),
            ",".join(node.join_columns),
            ",".join(node.group_keys),
            str(len(node.children)),
        )
        digest.update("|".join(fields).encode("utf-8"))
        digest.update(_NODE_SEP)
    return digest.hexdigest()
