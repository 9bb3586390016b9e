"""Gradient importance against the autodiff oracle.

The oracle is the GD baseline as the package computed it before its
gradients were hand-derived: the model run on the test-side graph
(:func:`tests.nn.tensor.graph_forward`) from an input leaf, the
outputs weighted and summed, ``Tensor.backward``, and the mean
absolute input gradient.  ``gradient_importance`` must match it
through ``view(np.uint64)`` on trained QPPNet units (with the
cost-output weighting the pipeline uses) and on MSCN's ``out_net``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gradient import gradient_importance
from repro.featurization.encoding import OperatorEncoder
from repro.featurization.mscn_features import MSCNEncoder
from repro.models.mscn import MSCN
from repro.models.qppnet import QPPNet

from ..nn.tensor import Tensor, graph_forward


def oracle_gradient_importance(model, data, output_weights=None) -> np.ndarray:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    x = Tensor(data, requires_grad=True)
    out = graph_forward(model, x)
    if output_weights is not None:
        out = out * Tensor(np.asarray(output_weights).reshape(1, -1))
    out.sum().backward()
    return np.abs(x.grad).mean(axis=0)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture(scope="module", params=["tpch", "sysbench"])
def bench_plans(request, tpch, sysbench, tpch_labeled, sysbench_labeled):
    bench, labeled = {
        "tpch": (tpch, tpch_labeled),
        "sysbench": (sysbench, sysbench_labeled),
    }[request.param]
    return bench, list(labeled[:60])


def test_qppnet_units_with_cost_weighting(bench_plans):
    bench, plans = bench_plans
    model = QPPNet(OperatorEncoder(bench.catalog), epochs=2)
    model.fit(plans)
    cost_weight = np.zeros(1 + model.data_size)
    cost_weight[0] = 1.0
    datasets = model.operator_dataset(plans)
    assert datasets
    for op, data in datasets.items():
        unit = model.units[op]
        want = oracle_gradient_importance(unit, data, cost_weight)
        got = gradient_importance(unit, data, output_weights=cost_weight)
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=str(op))


def test_mscn_out_net(bench_plans):
    bench, plans = bench_plans
    model = MSCN(MSCNEncoder(bench.catalog), epochs=2)
    model.fit(plans)
    matrix, _ = model.final_input_dataset(plans)
    want = oracle_gradient_importance(model.out_net, matrix)
    got = gradient_importance(model.out_net, matrix)
    np.testing.assert_array_equal(_bits(got), _bits(want))
