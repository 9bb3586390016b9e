"""Tracing over the one request path: the null span, and where each
entry point's ``predict`` span lands in the trace tree."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.obs import NULL_SPAN, Span, Tracer, open_span
from repro.obs import trace as trace_mod
from repro.serving import CostService, SnapshotStore
from repro.serving import service as service_mod
from repro.workload.collect import collect_labeled_plans


@pytest.fixture(scope="module")
def serving_envs():
    return random_environments(2, seed=3)


@pytest.fixture(scope="module")
def trained_bundle(sysbench, serving_envs):
    labeled = collect_labeled_plans(sysbench, serving_envs, 40, seed=1)
    pipeline = QCFE(
        sysbench,
        serving_envs,
        QCFEConfig(model="qppnet", epochs=2, template_scale=4),
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle(), labeled


@pytest.fixture()
def traced(trained_bundle):
    tracer = Tracer(sample_rate=1.0, seed=5)
    service = CostService(
        snapshot_store=SnapshotStore(), tracer=tracer, batch_window_s=0.01
    )
    service.deploy(trained_bundle[0])
    yield service, tracer
    service.close()


def test_open_span_without_a_tracer_is_the_shared_null_span():
    constructed = []
    original = trace_mod.Span.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        return original(self, *args, **kwargs)

    with mock.patch.object(trace_mod.Span, "__init__", counting_init):
        span = open_span(None, "parse")
        with open_span(None, "predict", kind="predict") as inner:
            assert inner.annotate(batch_size=2) is inner
        span.finish(error=RuntimeError("ignored"))
    assert span is NULL_SPAN and inner is NULL_SPAN
    assert not isinstance(NULL_SPAN, Span)
    assert constructed == []


def test_open_span_with_a_tracer_starts_a_real_span():
    tracer = Tracer(sample_rate=1.0, seed=5)
    with open_span(tracer, "request") as root:
        with open_span(tracer, "predict", kind="predict") as child:
            pass
    assert isinstance(root, Span) and child.parent_id == root.span_id
    assert tracer.counters()["traces_started"] == 1


def test_estimate_batch_nests_predict_under_the_caller_span(
    traced, trained_bundle, serving_envs
):
    """In-process ``estimate_batch`` under an open caller span: its one
    ``predict`` span joins the caller's trace, and no empty-link batch
    trace is rooted."""
    service, tracer = traced
    _, labeled = trained_bundle
    requests = [
        (labeled[0].query_sql, serving_envs[0], None),
        (labeled[1].query_sql, serving_envs[1], None),
    ]
    with tracer.start_span("caller") as caller:
        outcomes = service.estimate_batch(requests)
    assert all(value > 0 for value in outcomes)

    counters = tracer.counters()
    assert counters["batch_spans"] == 0 and counters["traces_started"] == 1
    assert tracer.traces(kind="batch") == []
    (trace,) = tracer.traces(kind="request")
    predicts = [s for s in trace["spans"] if s["name"] == "predict"]
    assert len(predicts) == 1
    assert predicts[0]["parent_id"] == caller.span_id
    assert predicts[0]["annotations"]["batch_size"] == 2


def test_sync_estimate_starts_exactly_one_trace_per_call(
    traced, trained_bundle, serving_envs
):
    service, tracer = traced
    _, labeled = trained_bundle
    for record in labeled[:3]:
        service.estimate(record.query_sql, serving_envs[0])
    counters = tracer.counters()
    assert counters["traces_started"] == 3 and counters["batch_spans"] == 0
    traces = tracer.traces(kind="request")
    assert len(traces) == 3
    for trace in traces:
        (root,) = [s for s in trace["spans"] if s["parent_id"] is None]
        assert root["name"] == "request"
        children = {s["name"]: s for s in trace["spans"] if s is not root}
        assert set(children) == {"parse", "plan", "featurize", "predict"}
        assert all(s["parent_id"] == root["span_id"] for s in children.values())


def test_flush_predict_nests_under_its_batch_span(
    traced, trained_bundle, serving_envs
):
    """The micro-batcher flush is the only code that opens a ``batch``
    span, and it is active on the batcher thread, so the flush's
    ``predict`` span is its child."""
    service, tracer = traced
    _, labeled = trained_bundle
    futures = [
        service.estimate_async(record.query_sql, serving_envs[0])
        for record in labeled[:4]
    ]
    assert all(future.result(timeout=30) > 0 for future in futures)
    service.close()  # drain: every batch trace is finalized
    batches = tracer.traces(kind="batch")
    assert batches
    linked = 0
    for trace in batches:
        (root,) = [s for s in trace["spans"] if s["parent_id"] is None]
        assert root["name"] == "batch"
        (predict,) = [s for s in trace["spans"] if s["name"] == "predict"]
        assert predict["parent_id"] == root["span_id"]
        assert predict["annotations"]["batch_size"] == len(
            root["annotations"]["links"]
        )
        linked += len(root["annotations"]["links"])
    assert linked == 4


def test_the_feature_cache_key_is_computed_inside_the_featurize_span(
    traced, trained_bundle, serving_envs
):
    """The key is part of featurization: ``plan_fingerprint`` runs
    under the active ``featurize`` span, which the ``featurize`` stats
    sample covers too, so the trace and the counter agree."""
    service, tracer = traced
    _, labeled = trained_bundle
    active = []
    original = service_mod.plan_fingerprint

    def recording(*args, **kwargs):
        span = tracer.current()
        active.append(span.name if span is not None else None)
        return original(*args, **kwargs)

    with mock.patch.object(service_mod, "plan_fingerprint", recording):
        service.estimate(labeled[0].plan, serving_envs[0])
        service.estimate(labeled[0].plan, serving_envs[0])  # a cache hit
    assert active == ["featurize", "featurize"]
