"""Plan-builder decisions mirror PostgreSQL's behaviour."""

from __future__ import annotations

import pytest

from repro.engine.cardinality import CardinalityModel
from repro.engine.cost import CostModel
from repro.engine.environment import DatabaseEnvironment, random_environments
from repro.engine.hardware import get_profile
from repro.engine.knobs import default_configuration
from repro.engine.operators import JOIN_OPERATORS, OperatorType
from repro.engine.optimizer import PlanBuilder
from repro.sql.parser import parse_sql


def build(tpch, sql, **knob_overrides):
    cfg = default_configuration()
    if knob_overrides:
        cfg = cfg.with_overrides(**knob_overrides)
    env = DatabaseEnvironment(cfg, get_profile("h1_r7_7735hs"))
    return PlanBuilder(tpch.catalog, tpch.stats, env).build(
        parse_sql(sql, tpch.catalog)
    )


class TestAccessPaths:
    def test_selective_equality_uses_index(self, tpch):
        plan = build(tpch, "SELECT * FROM orders WHERE orders.o_orderkey = 5")
        assert plan.op is OperatorType.INDEX_SCAN
        assert plan.index == "orders_pkey"

    def test_wide_range_uses_seq_scan(self, tpch):
        plan = build(tpch, "SELECT * FROM orders WHERE orders.o_totalprice > 900")
        assert plan.op is OperatorType.SEQ_SCAN

    def test_disabled_indexscan_falls_back(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM orders WHERE orders.o_orderkey = 5",
            enable_indexscan=False,
        )
        assert plan.op is OperatorType.SEQ_SCAN

    def test_disabled_seqscan_prefers_index(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM orders WHERE orders.o_orderkey < 600000",
            enable_seqscan=False,
        )
        # Even a mid-selectivity index scan beats a disabled seq scan,
        # provided any index candidate survives the selectivity cutoff.
        assert plan.op in (OperatorType.SEQ_SCAN, OperatorType.INDEX_SCAN)

    def test_unindexed_column_cannot_use_index(self, tpch):
        plan = build(tpch, "SELECT * FROM orders WHERE orders.o_totalprice = 100.0")
        assert plan.op is OperatorType.SEQ_SCAN


class TestJoinPlanning:
    def test_two_table_join_builds_valid_tree(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey",
        )
        plan.validate()
        assert plan.op in JOIN_OPERATORS

    def test_large_join_prefers_hash(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey",
        )
        assert plan.op is OperatorType.HASH_JOIN

    def test_hash_join_builds_on_smaller_input(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey",
        )
        if plan.op is OperatorType.HASH_JOIN:
            outer, inner = plan.children
            assert inner.est_rows <= outer.est_rows

    def test_disabled_hash_switches_method(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey",
            enable_hashjoin=False,
        )
        assert plan.op in (OperatorType.MERGE_JOIN, OperatorType.NESTED_LOOP)

    def test_merge_join_inputs_sorted(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey",
            enable_hashjoin=False,
            enable_nestloop=False,
        )
        assert plan.op is OperatorType.MERGE_JOIN
        for child in plan.children:
            assert child.op in (OperatorType.SORT, OperatorType.INDEX_SCAN)

    def test_five_way_join_connected(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM customer "
            "JOIN orders ON orders.o_custkey = customer.c_custkey "
            "JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey "
            "JOIN supplier ON supplier.s_suppkey = lineitem.l_suppkey "
            "JOIN nation ON nation.n_nationkey = supplier.s_nationkey",
        )
        plan.validate()
        assert sorted(plan.tables()) == [
            "customer", "lineitem", "nation", "orders", "supplier",
        ]

    def test_cross_join_falls_back_to_nested_loop(self, tpch):
        plan = build(tpch, "SELECT * FROM nation CROSS JOIN region")
        assert plan.op is OperatorType.NESTED_LOOP


class TestDecorators:
    def test_order_by_adds_sort_root(self, tpch):
        plan = build(
            tpch,
            "SELECT * FROM orders WHERE orders.o_totalprice > 5000 "
            "ORDER BY orders.o_totalprice",
        )
        assert plan.op is OperatorType.SORT
        assert plan.sort_keys == ("orders.o_totalprice",)

    def test_group_by_adds_aggregate(self, tpch):
        plan = build(
            tpch,
            "SELECT COUNT(*) FROM orders GROUP BY orders.o_orderpriority",
        )
        assert plan.op is OperatorType.AGGREGATE
        assert plan.group_keys == ("orders.o_orderpriority",)

    def test_limit_on_top(self, tpch):
        plan = build(tpch, "SELECT * FROM orders LIMIT 10")
        assert plan.op is OperatorType.LIMIT
        assert plan.limit_count == 10

    def test_estimates_annotated_everywhere(self, tpch):
        plan = build(
            tpch,
            "SELECT COUNT(*) FROM lineitem JOIN orders ON "
            "lineitem.l_orderkey = orders.o_orderkey WHERE lineitem.l_quantity < 10 "
            "GROUP BY orders.o_orderpriority ORDER BY orders.o_orderpriority LIMIT 5",
        )
        for node in plan.walk():
            assert node.est_rows >= 0
            assert node.est_total_cost > 0

    def test_deterministic_planning(self, tpch):
        sql = (
            "SELECT * FROM lineitem JOIN orders ON "
            "lineitem.l_orderkey = orders.o_orderkey WHERE lineitem.l_quantity < 10"
        )
        a = build(tpch, sql)
        b = build(tpch, sql)
        assert [n.op for n in a.walk()] == [n.op for n in b.walk()]


def _estimates(plan):
    return [
        (n.est_rows.hex(), n.est_width, n.est_startup_cost.hex(), n.est_total_cost.hex())
        for n in plan.walk()
    ]


@pytest.mark.parametrize("name", ["tpch", "joblight", "sysbench"])
def test_incremental_annotation_equals_a_full_rewalk(name, request):
    """The builder annotates each node once, when it is made.  A full
    bottom-up re-walk of the final plan must reproduce every estimate
    bit for bit."""
    benchmark = request.getfixturevalue(name)
    for env in random_environments(4, seed=21):
        builder = PlanBuilder(benchmark.catalog, benchmark.stats, env)
        cards = CardinalityModel(benchmark.catalog, benchmark.stats)
        cost = CostModel(benchmark.catalog, env)
        for _, query in benchmark.generate_queries(30, seed=2):
            plan = builder.build(query)
            incremental = _estimates(plan)
            cards.annotate_estimates(plan)
            cost.annotate(plan)
            assert _estimates(plan) == incremental, query.sql()
