"""Content-addressed plans: the feature-cache key is the wire bytes.

A plan's canonical bytes (:mod:`repro.engine.plan_codec`) are both
its feature-cache key material and its section of a v3 request blob.
These tests pin the consequences:

- the key covers the optimizer estimates bit for bit, so a plan whose
  cost differs in the last bits is never served another plan's
  features (in-process and through a worker);
- a worker keys an :class:`EncodedPlan` by the bytes it received and
  decodes the tree only on a miss — a repeated plan decodes zero
  times, whether it repeats in one drain or across drains;
- the structural checks still run on a hit: a request carrying a
  cached plan's exact section but a bad runtime block, env section or
  length fails alone with :class:`ProtocolError`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import struct

import numpy as np
import pytest

from repro.cluster.proc import protocol
from repro.cluster.proc.worker import WorkerRuntime
from repro.engine import plan_codec
from repro.engine.plan_codec import (
    EST_FLOATS,
    EncodedPlan,
    decode_plan,
    encode_plan,
)
from repro.errors import PlanError, ProtocolError, ReproError
from repro.featurization.fingerprint import plan_fingerprint
from repro.models.native import NativeCostEstimator
from repro.serving import CostService, EstimatorBundle, SnapshotStore
from repro.serving.adaptation import AdaptationConfig


def twin(plan, field: str):
    """A deep copy of *plan* whose root *field* is scaled by 1 + 1e-11:
    equal to 8 significant digits, different in its float64 bits."""
    other = copy.deepcopy(plan)
    setattr(other, field, getattr(plan, field) * (1.0 + 1e-11))
    assert getattr(other, field) != getattr(plan, field)
    assert f"{getattr(other, field):.8g}" == f"{getattr(plan, field):.8g}"
    return other


@pytest.fixture(scope="module")
def sensitive_plan(cluster_bundle, cluster_envs):
    """The first plan whose twin, in each est field, has a different
    cold estimate than the plan itself — so a twin served the plan's
    cached features shows."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    for record in labeled:
        plan = record.plan
        if not all(getattr(plan, field) for field in EST_FLOATS):
            continue
        requests = [(plan, env, None)] + [
            (twin(plan, field), env, None) for field in EST_FLOATS
        ]
        # One cold service per request: no answer can come from a cache.
        base, *twins = (fresh_estimates(bundle, [r])[0] for r in requests)
        if all(value != base for value in twins):
            return plan
    raise AssertionError("no plan's estimate moves with all three est fields")


def frames_of(blobs, start=0):
    """``estimate`` frames carrying *blobs*, ids from *start*."""
    return [
        ({"id": start + i, "kind": "estimate"}, blob)
        for i, blob in enumerate(blobs)
    ]


def fresh_estimates(bundle, requests):
    """What a cold in-process service answers for *requests*."""
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        return single.estimate_batch(requests)


@pytest.fixture
def runtime(cluster_bundle):
    bundle, _ = cluster_bundle
    worker = WorkerRuntime({})
    worker.service.deploy(bundle)
    yield worker
    worker.close()


# ----------------------------------------------------------------------
# one key for both tiers, exact in every float bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field", EST_FLOATS)
def test_float_twins_get_distinct_fingerprints(sensitive_plan, field):
    plan = sensitive_plan
    assert plan_fingerprint(twin(plan, field)) != plan_fingerprint(plan)


def test_an_encoded_plan_is_keyed_like_its_tree(cluster_bundle):
    """One key function: a live plan and its wire section hash alike,
    and keying an EncodedPlan never decodes it."""
    _, labeled = cluster_bundle
    for record in labeled[:10]:
        data, nodes = encode_plan(record.plan)
        encoded = EncodedPlan(data, nodes)
        context = ("bundle", 3, "postgres", "env-0")
        assert plan_fingerprint(encoded, *context) == plan_fingerprint(
            record.plan, *context
        )
        assert encoded._plan is None


@pytest.mark.parametrize("field", EST_FLOATS)
def test_warm_service_serves_a_float_twin_its_own_estimate(
    cluster_bundle, cluster_envs, sensitive_plan, field
):
    """After ``estimate(plan)``, ``estimate(twin)`` is exactly what a
    cold service answers for the twin — not the plan's cached answer."""
    bundle, _ = cluster_bundle
    env = cluster_envs[0]
    plan = sensitive_plan
    other = twin(plan, field)
    [expected] = fresh_estimates(bundle, [(other, env, None)])
    with CostService(snapshot_store=SnapshotStore()) as warm:
        warm.deploy(bundle)
        warm.estimate(plan, env)
        assert warm.estimate(other, env) == expected


@pytest.mark.parametrize("field", EST_FLOATS)
def test_warm_worker_serves_a_float_twin_its_own_estimate(
    cluster_bundle, cluster_envs, sensitive_plan, runtime, field
):
    bundle, _ = cluster_bundle
    env = cluster_envs[0]
    plan = sensitive_plan
    other = twin(plan, field)
    [expected] = fresh_estimates(bundle, [(other, env, None)])
    runtime.serve_estimates(frames_of([protocol.encode_request([plan], env)]))
    [outcome] = runtime.serve_estimates(
        frames_of([protocol.encode_request([other], env)])
    )
    assert outcome == expected


def test_unencodable_values_are_fingerprinted_in_process(
    cluster_bundle, cluster_envs
):
    """A numpy scalar in a predicate is keyed by type and repr in
    process (never rejected there); the wire still refuses it."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    plan = copy.deepcopy(next(
        r.plan for r in labeled
        if any(n.predicates for n in r.plan.walk())
    ))
    node = next(n for n in plan.walk() if n.predicates)
    node.predicates[0] = dataclasses.replace(
        node.predicates[0], value=np.int64(7)
    )
    plain = copy.deepcopy(plan)
    plain_node = next(n for n in plain.walk() if n.predicates)
    plain_node.predicates[0] = dataclasses.replace(
        plain_node.predicates[0], value=7
    )
    assert plan_fingerprint(plan) == plan_fingerprint(copy.deepcopy(plan))
    assert plan_fingerprint(plan) != plan_fingerprint(plain)
    loose, _ = encode_plan(plan, strict=False)
    with pytest.raises(ProtocolError):
        decode_plan(loose)  # loose bytes are for hashing only
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        assert np.isfinite(single.estimate(plan, env))
    with pytest.raises(ProtocolError):
        protocol.encode_request([plan], env)


def circular_plan(labeled):
    """A copy of the first plan with predicates whose first predicate's
    value is a list that contains itself."""
    plan = copy.deepcopy(next(
        r.plan for r in labeled
        if any(n.predicates for n in r.plan.walk())
    ))
    node = next(n for n in plan.walk() if n.predicates)
    value = [1, 2]
    value.append(value)
    node.predicates[0] = dataclasses.replace(
        node.predicates[0], op="in", value=value
    )
    return plan


@pytest.fixture(params=["RecursionError", "ValueError"])
def circular_report(request, monkeypatch):
    """Run with the codec's own JSON encoders (a self-containing value
    recurses until ``RecursionError``) and with ones that keep JSON's
    circular-reference check (``ValueError``): both must end typed."""
    if request.param == "ValueError":
        monkeypatch.setattr(
            plan_codec, "_JSON", json.JSONEncoder(separators=(",", ":"))
        )
        monkeypatch.setattr(
            plan_codec,
            "_TAGGING_JSON",
            json.JSONEncoder(separators=(",", ":"), default=plan_codec._tag),
        )
    return request.param


def test_a_self_containing_value_is_a_typed_error_in_process_and_on_the_wire(
    cluster_bundle, cluster_envs, circular_report
):
    """No JSON can hold a list that contains itself.  The in-process
    key refuses it with PlanError, so ``estimate`` raises a
    ``repro.errors`` type rather than a builtin; the wire refuses it
    with ProtocolError."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    plan = circular_plan(labeled)
    for strict in (True, False):
        with pytest.raises(PlanError):
            encode_plan(plan, strict=strict)
    with pytest.raises(PlanError):
        plan_fingerprint(plan, "bundle", 1)
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        with pytest.raises(ReproError):
            single.estimate(plan, env)
        # In a batch the refused request fails alone.
        good = (labeled[0].plan, env, None)
        refused, served = single.estimate_batch([(plan, env, None), good])
        assert isinstance(refused, PlanError)
        assert [served] == fresh_estimates(bundle, [good])
    with pytest.raises(ProtocolError):
        protocol.encode_request([plan], env)


def test_the_process_tier_serves_an_encoded_plan_like_its_tree(
    cluster_bundle, cluster_envs, proc_service
):
    """``ProcClusterService`` ships an EncodedPlan's bytes as its plan
    section untouched, with a zero runtime block, and answers exactly
    what the in-process service answers for the tree."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[1]
    plans = [record.plan for record in labeled[:5]]
    expected = fresh_estimates(bundle, [(p, env, None) for p in plans])
    decodes = []
    encoded = [
        EncodedPlan(*encode_plan(p), on_decode=lambda: decodes.append(1))
        for p in plans
    ]
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        assert [single.estimate(e, env) for e in encoded] == expected
    decodes.clear()
    blob = protocol.encode_request(encoded, env)
    _, shipped = protocol.split_request(blob)
    assert [s.data for s in shipped] == [e.data for e in encoded]
    assert all(s.runtime == bytes(len(s.runtime)) for s in shipped)
    assert [proc_service.estimate(e, env) for e in encoded] == expected
    futures = [proc_service.estimate_async(e, env) for e in encoded]
    assert [f.result(timeout=30) for f in futures] == expected
    mixed = [encoded[0], plans[1], encoded[2], plans[3], encoded[4]]
    assert list(proc_service.estimate_many(mixed, env)) == expected
    assert decodes == []  # shipping never decodes


def test_an_encoded_plans_runtime_rides_in_the_runtime_block(
    cluster_bundle, cluster_envs
):
    """An EncodedPlan carrying runtime floats ships them in order with
    the live plans around it, and a node count or runtime size that
    disagrees with its bytes is refused before anything ships."""
    _, labeled = cluster_bundle
    env = cluster_envs[0]
    first, second = labeled[0].plan, labeled[1].plan
    runtime: list = []
    data, nodes = encode_plan(second, runtime)
    packed = struct.pack(f"<{len(runtime)}d", *runtime)
    blob = protocol.encode_request([first, EncodedPlan(data, nodes, packed)], env)
    assert blob == protocol.encode_request([first, second], env)
    for bad in (
        EncodedPlan(data, nodes + 1),
        EncodedPlan(data, nodes, packed[:-8]),
        EncodedPlan(data[:-8], nodes),
    ):
        with pytest.raises(ProtocolError):
            protocol.encode_request([bad], env)


# ----------------------------------------------------------------------
# decode only on a miss
# ----------------------------------------------------------------------
def test_a_repeated_plan_decodes_once_in_and_across_drains(
    cluster_bundle, cluster_envs, runtime
):
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    plan = labeled[0].plan
    blob = protocol.encode_request([plan], env)
    first = runtime.serve_estimates(frames_of([blob, blob, blob]))
    assert runtime.plans_decoded == 1
    again = runtime.serve_estimates(frames_of([blob, blob], start=3))
    assert runtime.plans_decoded == 1  # the repeat decoded zero plans
    [expected] = fresh_estimates(bundle, [(plan, env, None)])
    assert first == [expected] * 3 and again == [expected] * 2
    counters, _ = runtime.handle({"id": 9, "kind": "counters"}, b"")
    assert counters["value"]["plans_decoded"] == 1


def test_a_drain_of_distinct_plans_decodes_each_once(
    cluster_bundle, cluster_envs, runtime
):
    bundle, labeled = cluster_bundle
    requests = [
        (record.plan, cluster_envs[i % 2], None)
        for i, record in enumerate(labeled[:12])
    ]
    assert len({plan_fingerprint(p) for p, *_ in requests}) == 12
    blobs = [protocol.encode_request([p], e) for p, e, _ in requests]
    outcomes = runtime.serve_estimates(frames_of(blobs))
    assert runtime.plans_decoded == 12
    assert outcomes == fresh_estimates(bundle, requests)


def test_the_service_takes_encoded_plans_on_every_entry_point(
    cluster_bundle, cluster_envs
):
    """estimate, estimate_many, estimate_async and estimate_batch
    answer an EncodedPlan exactly as its tree; only the first miss
    decodes it."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[1]
    plans = [record.plan for record in labeled[:4]]
    decodes = []
    encoded = [
        EncodedPlan(*encode_plan(p), on_decode=lambda: decodes.append(1))
        for p in plans
    ]
    expected = fresh_estimates(bundle, [(p, env, None) for p in plans])
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        assert [single.estimate(e, env) for e in encoded] == expected
        assert list(single.estimate_many(encoded, env)) == expected
        futures = [single.estimate_async(e, env) for e in encoded]
        assert [f.result(timeout=30) for f in futures] == expected
        assert single.estimate_batch(
            [(e, env, None) for e in encoded]
        ) == expected
    assert len(decodes) == len(plans)


def test_what_needs_the_tree_decodes_it_once(
    cluster_bundle, cluster_envs, sysbench
):
    """A cached None (an estimator with no cacheable form) predicts
    from the tree, the adaptation loop observes it, and feedback
    labels a copy of it: each decodes an EncodedPlan once."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    plan = labeled[0].plan
    decodes = []

    def encoded():
        return EncodedPlan(*encode_plan(plan), on_decode=lambda: decodes.append(1))

    native = EstimatorBundle(
        name="native",
        estimator=NativeCostEstimator(slope=2.0, intercept=1.0),
        benchmark=sysbench,
    )
    with CostService(
        snapshot_store=SnapshotStore(),
        adaptation=AdaptationConfig(background=False),
    ) as service:
        service.deploy(native)
        deployed = service.deploy(bundle)
        assert service.adaptation.watcher(deployed.name) is not None
        expected = service.estimate(plan, env, bundle="native")
        for _ in range(2):  # a miss, then a hit on the cached None
            decodes.clear()
            assert service.estimate(encoded(), env, bundle="native") == expected
            assert len(decodes) == 1
        decodes.clear()
        service.estimate(encoded(), env, bundle=deployed.name)
        service.estimate(encoded(), env, bundle=deployed.name)  # a hit
        service.adaptation.run_pending()  # observes both records
        assert len(decodes) == 2
        decodes.clear()
        sent = encoded()
        service.record_feedback(sent, env, actual_ms=5.0, bundle=deployed.name)
        assert len(decodes) == 1
        assert sent.plan.actual_total_ms == 0.0  # the label went on a copy


# ----------------------------------------------------------------------
# structural checks stay on the hit path
# ----------------------------------------------------------------------
def test_a_cached_plans_section_with_a_bad_frame_fails_alone(
    cluster_bundle, cluster_envs, runtime
):
    """The worker already caches plan P.  Blobs carrying P's exact
    section but a short or long runtime block, a corrupt env section
    or a truncation each fail with ProtocolError; the good requests
    around them in the same drain are served, and nothing decodes."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    plan = labeled[0].plan
    good = protocol.encode_request([plan], env)
    runtime.serve_estimates(frames_of([good]))
    assert runtime.plans_decoded == 1
    env_len = int.from_bytes(good[:4], "little")
    corrupt_env = bytearray(good)
    corrupt_env[4] = ord("x")  # the env JSON's opening brace
    bad = [
        good[:-8],  # runtime block one float short
        good + b"\x00" * 8,  # runtime block one float long
        bytes(corrupt_env),
        good[: 4 + env_len + 20],  # cut inside the plan section
        good[:3],  # cut inside the env length
    ]
    blobs = [good]
    for blob in bad:
        blobs += [blob, good]
    outcomes = runtime.serve_estimates(frames_of(blobs))
    [expected] = fresh_estimates(bundle, [(plan, env, None)])
    assert outcomes[0::2] == [expected] * (len(bad) + 1)
    assert all(isinstance(o, ProtocolError) for o in outcomes[1::2])
    assert runtime.plans_decoded == 1


def test_split_request_checks_the_plan_section_head(cluster_bundle, cluster_envs):
    """A node count that disagrees with the canonical bytes (or with
    the runtime block) is refused before anything decodes."""
    _, labeled = cluster_bundle
    plan = labeled[0].plan
    blob = protocol.encode_request([plan], cluster_envs[0])
    env_len = int.from_bytes(blob[:4], "little")
    head = 4 + env_len + 4  # env section, then the query count
    assert blob[head : head + 1] == b"P"
    nodes = int.from_bytes(blob[head + 1 : head + 5], "little")
    for wrong in (0, nodes - 1, nodes + 1):
        data = bytearray(blob)
        data[head + 1 : head + 5] = wrong.to_bytes(4, "little")
        with pytest.raises(ProtocolError):
            protocol.split_request(bytes(data))
    section, (encoded,) = protocol.split_request(blob)
    assert encoded.nodes == nodes == plan.node_count
    assert protocol.decode_env(section) == cluster_envs[0]
