"""Ablations of this reproduction's own design choices (see DESIGN.md).

1. **Warm-started reduced retraining** — dropping constant dimensions
   folds exactly into the first-layer bias, so the reduced model can
   start at the base model's function.  Compared against retraining the
   reduced model cold.
2. **Snapshot granularity** — operator-level (the paper's default) vs
   the operator-table extension of Section III's discussion, measured
   as mean absolute per-node residual of the logical-formula fits.
"""

from __future__ import annotations


from repro.core.granularity import fit_fine_grained, residual_improvement
from repro.core.pipeline import QCFE, QCFEConfig
from repro.core.templates import generate_simplified_queries
from repro.engine.executor import ExecutionSimulator
from repro.eval.harness import default_epochs
from repro.eval.metrics import summarize_q_errors
from repro.models.qppnet import QPPNet
from repro.models.training import train_test_split
from repro.eval.reporting import format_table


def test_ablation_warm_start(benchmark, context, save_result):
    bench = context.benchmark("joblight")
    envs = context.environments()
    labeled = context.labeled("joblight")
    train, test = train_test_split(labeled, seed=0)
    epochs = default_epochs()

    def run() -> dict:
        config = QCFEConfig(model="qppnet", snapshot_source="template",
                            reduction="diff", epochs=epochs)
        warm = QCFE(bench, envs, config)
        warm.fit(train)
        # The same keep-masks on freshly initialised units, trained cold.
        cold = QPPNet(
            warm.operator_encoder, hidden=config.hidden, lr=config.lr,
            epochs=config.epochs, batch_size=config.batch_size,
            seed=config.seed, masks=warm.estimator.keep_masks(),
        )
        cold.fit(train, snapshot_set=warm.snapshot_set)
        actual = [r.latency_ms for r in test]
        return {
            label: summarize_q_errors(
                model.predict_many(test, snapshot_set=warm.snapshot_set), actual
            ).mean
            for label, model in (("warm-start", warm.estimator), ("cold-retrain", cold))
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [(label, f"{value:.3f}") for label, value in results.items()]
    save_result("ablation_warmstart", format_table(["variant", "mean q-error"], rows))
    assert results["warm-start"] <= results["cold-retrain"] * 1.1


def test_ablation_snapshot_granularity(benchmark, context, save_result):
    bench = context.benchmark("tpch")
    env = context.environments(2)[0]
    simulator = ExecutionSimulator(bench.catalog, bench.stats, env)

    def run():
        fit_queries = generate_simplified_queries(
            bench.template_texts, bench.catalog, bench.abstract, scale=4, seed=1
        )
        snapshot = fit_fine_grained(fit_queries, simulator)
        fresh = generate_simplified_queries(
            bench.template_texts, bench.catalog, bench.abstract, scale=2, seed=9
        )
        coarse, fine = residual_improvement(snapshot, fresh, simulator)
        return coarse, fine, snapshot.fine_key_count

    coarse, fine, keys = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ("operator-level", f"{coarse:.3f}"),
        (f"operator-table ({keys} keys)", f"{fine:.3f}"),
    ]
    save_result(
        "ablation_granularity",
        format_table(["snapshot granularity", "mean |residual| (ms)"], rows),
    )
    assert fine <= coarse * 1.05
