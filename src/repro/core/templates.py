"""Simplified query templates (paper Algorithm 1).

Computing a feature snapshot by executing the *original* workload is
expensive (7.7h for TPC-H FSO in the paper).  Algorithm 1 instead

1. parses the original query templates, matching keywords to operators
   (paper Table II) to collect the operator-table-column set ``info``;
2. instantiates per-operator *parent templates* with that table/column
   information;
3. fills the resulting simplified templates with values from the data
   abstract ``R`` and random comparison keywords, ``N`` times each.

The simplified queries are tiny single-scan / single-join queries that
still exercise every operator the workload uses, so the least-squares
snapshot fit sees the same operators at a fraction of the cost (FST).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..catalog.schema import Catalog
from ..catalog.statistics import DataAbstract, Predicate
from ..rng import rng_for
from ..sql.ast import ColumnRef, JoinCondition, OrderByItem, SelectQuery

_QUALIFIED = r"[A-Za-z_][A-Za-z_0-9]*\.[A-Za-z_][A-Za-z_0-9]*"
#: comparison predicates: table.col OP literal-or-placeholder
_PRED_RE = re.compile(
    rf"({_QUALIFIED})\s*(<=|>=|<>|=|<|>|BETWEEN|IN|LIKE)\s*(?!{_QUALIFIED})",
    re.IGNORECASE,
)
_JOIN_RE = re.compile(rf"({_QUALIFIED})\s*=\s*({_QUALIFIED})")
_ORDER_RE = re.compile(rf"ORDER\s+BY\s+({_QUALIFIED})", re.IGNORECASE)
_GROUP_RE = re.compile(rf"GROUP\s+BY\s+({_QUALIFIED})", re.IGNORECASE)

#: Comparison keywords used to fill conditions (Algorithm 1, line 12).
FILL_OPERATORS = ("<", ">", "=")


@dataclass
class TemplateInfo:
    """The operator-table-column set ``info`` of Algorithm 1."""

    scans: Set[Tuple[str, str]] = field(default_factory=set)
    sorts: Set[Tuple[str, str]] = field(default_factory=set)
    aggregates: Set[Tuple[str, str]] = field(default_factory=set)
    joins: Set[Tuple[str, str, str, str]] = field(default_factory=set)

    def total_entries(self) -> int:
        """Scans, sorts, aggregates and joins found, together."""
        return (
            len(self.scans) + len(self.sorts) + len(self.aggregates) + len(self.joins)
        )


def _split_ref(ref: str) -> Tuple[str, str]:
    table, column = ref.lower().split(".", 1)
    return table, column


def parse_template_info(
    template_texts: Sequence[Tuple[str, str]], catalog: Catalog
) -> TemplateInfo:
    """Phase 1: keyword-match the original templates (paper Table II).

    A comparison keyword maps to Seq/Index Scan, ``table1.a = table2.b``
    to the join operators, ``ORDER BY`` to Sort and ``GROUP BY`` to
    Aggregate.  References to tables/columns absent from the catalog
    are ignored (defensive: templates may mention synthetic aliases).
    """
    info = TemplateInfo()

    def known(table: str, column: str) -> bool:
        """Whether the catalog has *table* with *column*."""
        return catalog.has_table(table) and catalog.table(table).has_column(column)

    for _, text in template_texts:
        join_refs: Set[str] = set()
        for match in _JOIN_RE.finditer(text):
            left, right = match.group(1), match.group(2)
            lt, lc = _split_ref(left)
            rt, rc = _split_ref(right)
            if known(lt, lc) and known(rt, rc) and lt != rt:
                info.joins.add((lt, lc, rt, rc))
                join_refs.update({left.lower(), right.lower()})
        for match in _PRED_RE.finditer(text):
            ref = match.group(1).lower()
            if ref in join_refs:
                continue
            table, column = _split_ref(ref)
            if known(table, column):
                info.scans.add((table, column))
        for match in _ORDER_RE.finditer(text):
            table, column = _split_ref(match.group(1))
            if known(table, column):
                info.sorts.add((table, column))
        for match in _GROUP_RE.finditer(text):
            table, column = _split_ref(match.group(1))
            if known(table, column):
                info.aggregates.add((table, column))
    return info


@dataclass(frozen=True)
class SimplifiedTemplate:
    """Phase 2 output: one parent template bound to table/columns."""

    kind: str  # "scan" | "sort" | "aggregate" | "join" | "join_sort"
    table: str
    column: str
    join: Optional[Tuple[str, str, str, str]] = None

    def describe(self) -> str:
        """``kind:table.column``, or ``kind:lt.lc=rt.rc`` for a join."""
        if self.join is not None:
            lt, lc, rt, rc = self.join
            return f"{self.kind}:{lt}.{lc}={rt}.{rc}"
        return f"{self.kind}:{self.table}.{self.column}"


def generate_simplified_templates(info: TemplateInfo) -> List[SimplifiedTemplate]:
    """Phase 2: bind parent templates to the info set (Table II)."""
    templates: List[SimplifiedTemplate] = []
    for table, column in sorted(info.scans):
        templates.append(SimplifiedTemplate("scan", table, column))
    for table, column in sorted(info.sorts):
        templates.append(SimplifiedTemplate("sort", table, column))
    for table, column in sorted(info.aggregates):
        templates.append(SimplifiedTemplate("aggregate", table, column))
    for join in sorted(info.joins):
        lt, lc, rt, rc = join
        templates.append(SimplifiedTemplate("join", lt, lc, join=join))
        templates.append(SimplifiedTemplate("join_sort", lt, lc, join=join))
    return templates


def _condition(
    catalog: Catalog,
    abstract: DataAbstract,
    table: str,
    column: str,
    rng: np.random.Generator,
    fill_index: Optional[int] = None,
) -> Predicate:
    """One filled condition (Algorithm 1 line 12).

    The keyword is drawn from :data:`FILL_OPERATORS`; when
    ``fill_index`` is given the keywords cycle round-robin instead of
    being sampled, guaranteeing every operator keyword (hence both scan
    types) appears even at small scales ``N``.
    """
    if fill_index is None:
        op = str(rng.choice(FILL_OPERATORS))
    else:
        op = FILL_OPERATORS[fill_index % len(FILL_OPERATORS)]
    value = abstract.sample(table, column, rng)
    return Predicate(table, column, op, value)


def instantiate_simplified(
    template: SimplifiedTemplate,
    catalog: Catalog,
    abstract: DataAbstract,
    rng: np.random.Generator,
    fill_index: Optional[int] = None,
) -> SelectQuery:
    """Phase 3: fill one simplified template with values from ``R``."""
    condition = _condition(
        catalog, abstract, template.table, template.column, rng, fill_index
    )
    if template.kind == "scan":
        return SelectQuery(tables=[template.table], predicates=[condition])
    if template.kind == "sort":
        return SelectQuery(
            tables=[template.table],
            predicates=[condition],
            order_by=[OrderByItem(ColumnRef(template.table, template.column))],
        )
    if template.kind == "aggregate":
        return SelectQuery(
            tables=[template.table],
            predicates=[condition],
            group_by=[ColumnRef(template.table, template.column)],
            aggregate="count",
        )
    if template.kind in ("join", "join_sort"):
        lt, lc, rt, rc = template.join  # type: ignore[misc]
        order_by = (
            [OrderByItem(ColumnRef(lt, lc))] if template.kind == "join_sort" else []
        )
        return SelectQuery(
            tables=[lt, rt],
            predicates=[condition],
            joins=[JoinCondition(ColumnRef(lt, lc), ColumnRef(rt, rc))],
            order_by=order_by,
        )
    raise ValueError(f"unknown simplified-template kind {template.kind!r}")


def generate_simplified_queries(
    template_texts: Sequence[Tuple[str, str]],
    catalog: Catalog,
    abstract: DataAbstract,
    scale: int = 1,
    seed: int = 0,
) -> List[SelectQuery]:
    """Algorithm 1 end to end: original templates -> simplified queries.

    ``scale`` is the paper's ``N``: how many filled instances of each
    simplified template to emit.
    """
    info = parse_template_info(template_texts, catalog)
    simplified = generate_simplified_templates(info)
    rng = rng_for("simplified", seed)
    queries: List[SelectQuery] = []
    for round_index in range(max(scale, 1)):
        for template in simplified:
            queries.append(
                instantiate_simplified(
                    template, catalog, abstract, rng, fill_index=round_index
                )
            )
    return queries
