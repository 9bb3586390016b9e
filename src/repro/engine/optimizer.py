"""A cost-based plan builder in the style of PostgreSQL's planner.

Decisions mirror PostgreSQL's structure: access-path selection per
table (seq vs index scan), greedy join ordering on estimated output
cardinality, join-method selection by estimated cost, and the standard
treatment of planner toggles — a disabled method is penalised by a huge
``DISABLE_COST`` rather than removed, so a plan always exists.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..catalog.schema import Catalog
from ..catalog.statistics import CatalogStatistics
from ..sql.ast import JoinCondition, SelectQuery
from .cardinality import CardinalityModel
from .cost import CostModel
from .environment import DatabaseEnvironment
from .operators import OperatorType, PlanNode, scan_node

DISABLE_COST = 1.0e10

#: Selectivity above which an index scan stops being attractive even
#: before costing (PG flips to seq scan for large fractions).
_INDEX_SELECTIVITY_CUTOFF = 0.25


class PlanBuilder:
    """Builds one physical plan per query under a given environment."""

    def __init__(
        self,
        catalog: Catalog,
        stats: CatalogStatistics,
        env: DatabaseEnvironment,
    ):
        self.catalog = catalog
        self.stats = stats
        self.env = env
        self.cards = CardinalityModel(catalog, stats)
        self.cost = CostModel(catalog, env)

    # ------------------------------------------------------------------
    def build(self, query: SelectQuery) -> PlanNode:
        """Build, annotate and validate the physical plan for *query*."""
        scans = {
            table: self._best_scan(table, query) for table in query.tables
        }
        root = self._join_tables(query, scans)
        if query.is_aggregate:
            root = self._new(PlanNode(
                op=OperatorType.AGGREGATE,
                children=[root],
                group_keys=tuple(c.sql() for c in query.group_by),
            ))
        if query.order_by:
            root = self._new(PlanNode(
                op=OperatorType.SORT,
                children=[root],
                sort_keys=tuple(o.column.sql() for o in query.order_by),
            ))
        if query.limit is not None:
            root = self._new(PlanNode(
                op=OperatorType.LIMIT, children=[root], limit_count=query.limit
            ))
        root.validate()
        return root

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def _best_scan(self, table_name: str, query: SelectQuery) -> PlanNode:
        predicates = query.predicates_on(table_name)
        table = self.catalog.table(table_name)
        candidates: List[Tuple[float, PlanNode]] = []

        seq = self._new(scan_node(OperatorType.SEQ_SCAN, table_name, predicates))
        penalty = 0.0 if self.env.knobs["enable_seqscan"] else DISABLE_COST
        candidates.append((seq.est_total_cost + penalty, seq))

        for pred in predicates:
            for index in table.indexes_on(pred.column):
                sel = self.stats.for_table(table_name).estimated_selectivity(pred)
                if sel > _INDEX_SELECTIVITY_CUTOFF:
                    continue
                idx = self._new(scan_node(
                    OperatorType.INDEX_SCAN, table_name, predicates, index=index.name
                ))
                penalty = 0.0 if self.env.knobs["enable_indexscan"] else DISABLE_COST
                candidates.append((idx.est_total_cost + penalty, idx))
        candidates.sort(key=lambda pair: pair[0])
        return candidates[0][1]

    def _new(self, node: PlanNode) -> PlanNode:
        """Annotate a node the builder has just made, and return it.

        Only the new node is annotated: its children were annotated
        when they were made, and a node's estimates depend only on its
        own subtree, so candidates that share a subtree share its work.
        """
        self.cards.estimate_node(node)
        self.cost.annotate_node(node)
        return node

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _join_tables(
        self, query: SelectQuery, scans: Dict[str, PlanNode]
    ) -> PlanNode:
        components: Dict[FrozenSet[str], PlanNode] = {
            frozenset([t]): plan for t, plan in scans.items()
        }
        conditions = list(query.joins)
        while len(components) > 1:
            best: Optional[Tuple[float, FrozenSet[str], FrozenSet[str], PlanNode]] = None
            for cond in conditions:
                left_set = self._component_of(components, cond.left.table)
                right_set = self._component_of(components, cond.right.table)
                if left_set is None or right_set is None or left_set == right_set:
                    continue
                candidate = self._best_join(
                    components[left_set], components[right_set], cond
                )
                key = (candidate.est_rows, candidate.est_total_cost)
                if best is None or key < (best[3].est_rows, best[3].est_total_cost):
                    best = (candidate.est_total_cost, left_set, right_set, candidate)
            if best is None:
                # No connecting condition left: cross join smallest pair.
                sets = sorted(components, key=lambda s: components[s].est_rows)
                left_set, right_set = sets[0], sets[1]
                candidate = self._make_join(
                    OperatorType.NESTED_LOOP,
                    components[left_set],
                    components[right_set],
                    None,
                )
                best = (candidate.est_total_cost, left_set, right_set, candidate)
            _, left_set, right_set, joined = best
            del components[left_set]
            del components[right_set]
            components[left_set | right_set] = joined
        (root,) = components.values()
        return root

    @staticmethod
    def _component_of(
        components: Dict[FrozenSet[str], PlanNode], table: str
    ) -> Optional[FrozenSet[str]]:
        for key in components:
            if table in key:
                return key
        return None

    def _best_join(
        self, left: PlanNode, right: PlanNode, cond: JoinCondition
    ) -> PlanNode:
        candidates: List[Tuple[float, PlanNode]] = []
        knobs = self.env.knobs

        hash_plan = self._make_join(OperatorType.HASH_JOIN, left, right, cond)
        penalty = 0.0 if knobs["enable_hashjoin"] else DISABLE_COST
        candidates.append((hash_plan.est_total_cost + penalty, hash_plan))

        merge_plan = self._make_merge_join(left, right, cond)
        penalty = 0.0 if knobs["enable_mergejoin"] else DISABLE_COST
        if merge_plan.children[0].op is OperatorType.SORT and not knobs["enable_sort"]:
            penalty += DISABLE_COST
        candidates.append((merge_plan.est_total_cost + penalty, merge_plan))

        nl_plan = self._make_join(OperatorType.NESTED_LOOP, left, right, cond)
        penalty = 0.0 if knobs["enable_nestloop"] else DISABLE_COST
        candidates.append((nl_plan.est_total_cost + penalty, nl_plan))

        candidates.sort(key=lambda pair: pair[0])
        return candidates[0][1]

    def _make_join(
        self,
        op: OperatorType,
        left: PlanNode,
        right: PlanNode,
        cond: Optional[JoinCondition],
    ) -> PlanNode:
        join_columns: Tuple[str, ...] = ()
        if cond is not None:
            join_columns = (
                cond.left.table, cond.left.column, cond.right.table, cond.right.column
            )
        outer, inner = left, right
        if op is OperatorType.HASH_JOIN and outer.est_rows < inner.est_rows:
            # Build on the smaller input (PG convention: inner = build).
            outer, inner = inner, outer
        if op is OperatorType.NESTED_LOOP:
            if outer.est_rows > inner.est_rows:
                outer, inner = inner, outer
            if self.env.knobs["enable_material"] and inner.children:
                inner = self._new(PlanNode(op=OperatorType.MATERIALIZE, children=[inner]))
        return self._new(
            PlanNode(op=op, children=[outer, inner], join_columns=join_columns)
        )

    def _make_merge_join(
        self, left: PlanNode, right: PlanNode, cond: JoinCondition
    ) -> PlanNode:
        left_sorted = self._ensure_sorted(left, f"{cond.left.table}.{cond.left.column}")
        right_sorted = self._ensure_sorted(
            right, f"{cond.right.table}.{cond.right.column}"
        )
        join_columns = (
            cond.left.table, cond.left.column, cond.right.table, cond.right.column
        )
        return self._new(PlanNode(
            op=OperatorType.MERGE_JOIN,
            children=[left_sorted, right_sorted],
            join_columns=join_columns,
        ))

    def _ensure_sorted(self, plan: PlanNode, key: str) -> PlanNode:
        if plan.op is OperatorType.SORT and plan.sort_keys and plan.sort_keys[0] == key:
            return plan
        if plan.op is OperatorType.INDEX_SCAN:
            table, column = key.split(".", 1)
            if plan.table == table and plan.index is not None:
                return plan  # index output is ordered on its key
        return self._new(
            PlanNode(op=OperatorType.SORT, children=[plan], sort_keys=(key,))
        )
