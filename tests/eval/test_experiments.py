"""Integration: every paper experiment runs at tiny scale and shows
the qualitative result the paper reports."""

from __future__ import annotations

import pytest

from repro.eval.experiments import (
    ABLATION_VARIANTS,
    MODEL_NAMES,
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    table4,
    table5,
    table6,
    table7,
)
from repro.eval.harness import ExperimentContext
from repro.eval import reporting


#: Runs per arm of a wall-time comparison.  Each arm is judged by its
#: fastest run: a host stall only ever adds time, so the minimum is the
#: run least disturbed by one.
BEST_OF = 5


@pytest.fixture(scope="module")
def context(monkeypatch_module_scale):
    return ExperimentContext(seed=0)


@pytest.fixture(scope="module")
def monkeypatch_module_scale():
    import os

    saved = {k: os.environ.get(k) for k in ("QCFE_SCALE", "QCFE_EPOCHS", "QCFE_ENVS")}
    os.environ["QCFE_SCALE"] = "120"
    os.environ["QCFE_EPOCHS"] = "4"
    os.environ["QCFE_ENVS"] = "4"
    yield
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


class TestFigure1:
    def test_environments_change_cost(self, context):
        result = figure1(context, n_environments=4, n_queries=20)
        assert set(result) == {"tpch", "sysbench"}
        for per_env in result.values():
            assert len(per_env) == 4
            values = list(per_env.values())
            assert max(values) > min(values)  # environments matter
        assert reporting.render_figure1(result)


class TestTable4AndFigure5:
    def test_rows_and_ordering(self, context):
        rows = table4(context, benchmarks=("sysbench",), scales=(60, 120))
        models = {row.model for row in rows}
        assert models == set(MODEL_NAMES)
        assert len(rows) == 12
        by_key = {(r.model, r.scale): r for r in rows}
        # PGSQL is orders of magnitude off; learned models are not.
        assert by_key[("PGSQL", 120)].mean_q_error > 100
        assert by_key[("QCFE(mscn)", 120)].mean_q_error < 10
        assert reporting.render_table4(rows)

    def test_figure5_boxes(self, context):
        boxes = figure5(context, benchmarks=("sysbench",), scales=(120,))
        for box in boxes.values():
            assert box["q25"] <= box["q50"] <= box["q75"]
        assert reporting.render_figure5(boxes)


class TestFigure6And7:
    def test_ablation_variants_all_run(self, context):
        results = figure6(context, benchmarks=("sysbench",))
        assert {variant for _, variant in results} == set(ABLATION_VARIANTS)
        for summary in results.values():
            assert summary.mean >= 1.0
        assert reporting.render_figure6(results)

    def test_reduction_counts(self, context):
        counts = figure7(context, benchmark_name="sysbench")
        methods = {entry.method for entry in counts}
        assert methods == {"Greedy", "GD", "FR"}
        by_method = {entry.method: entry for entry in counts}
        # Paper Figure 7: greedy keeps almost everything, FR/GD prune a lot.
        assert by_method["Greedy"].reduction_ratio < 0.2
        assert by_method["FR"].reduction_ratio > 0.3
        assert by_method["GD"].reduction_ratio > 0.3
        assert reporting.render_figure7(counts)


class TestTable5:
    def test_fst_cheaper_than_fso(self, context):
        rows = table5(context, benchmarks=("joblight",), scales=(1, 2))
        by_label = {row.label: row for row in rows}
        assert by_label["scale=1"].collection_ms < by_label["FSO"].collection_ms
        # and accuracy stays in the same ballpark (within 2x)
        assert by_label["scale=2"].mean_q_error < 2.5 * by_label["FSO"].mean_q_error
        assert reporting.render_table5(rows)

    def test_collection_grows_with_scale(self, context):
        rows = table5(context, benchmarks=("joblight",), scales=(1, 2))
        by_label = {row.label: row for row in rows}
        assert by_label["scale=2"].collection_ms > by_label["scale=1"].collection_ms


class TestTable6:
    def test_runtime_grows_with_references(self, context):
        runs = [
            table6(context, benchmark_name="sysbench", reference_counts=(4, 32))
            for _ in range(BEST_OF)
        ]
        rows = runs[0]
        fastest = [min(run[i].fr_runtime_seconds for run in runs) for i in (0, 1)]
        assert fastest[1] > fastest[0]
        for row in rows:
            assert row.mean_q_error >= 1.0
            assert 0.0 <= row.reduction_ratio <= 1.0
        assert reporting.render_table6(rows)


class TestTable7AndFigure8:
    def test_transfer_beats_direct_on_small_h2_data(self, context):
        runs = [table7(context, benchmarks=("sysbench",)) for _ in range(BEST_OF)]
        rows = runs[0]
        by_model = {row.model: row for row in rows}
        assert set(by_model) == {"basis", "direct", "trans-FSO", "trans-FST"}
        fastest = {
            model: min(row.train_seconds for run in runs for row in run if row.model == model)
            for model in by_model
        }
        # Transfer retraining is much cheaper than direct training.
        assert fastest["trans-FST"] < fastest["direct"]
        assert reporting.render_table7(rows)

    def test_transfer_converges_faster(self, context):
        curves = figure8(context, benchmark_name="sysbench", epochs=4)
        direct = dict(curves["direct"])
        transfer = dict(curves["transfer"])
        first_epoch = min(direct)
        assert transfer[first_epoch] <= direct[first_epoch]
        assert reporting.render_figure8(curves)
