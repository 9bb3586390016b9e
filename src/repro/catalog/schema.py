"""Relational catalog: tables, columns and indexes.

The learned estimators never touch raw tuples — only plans, statistics
and cardinalities — so the catalog is purely *descriptive*: it records
the shape of each benchmark database (row counts, column domains, value
skew, indexes) and is the single source the statistics, optimizer and
data-abstract layers read from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Logical column types; widths drive page-count estimates."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"


_DEFAULT_WIDTHS = {
    ColumnType.INT: 4,
    ColumnType.FLOAT: 8,
    ColumnType.DATE: 4,
    ColumnType.TEXT: 32,
}


@dataclass(frozen=True)
class Column:
    """A column description.

    ``ndv`` is the number of distinct values; ``skew`` is the Zipf
    exponent of the value-frequency distribution (0 = uniform), which is
    what creates the gap between optimizer estimates (uniformity
    assumption) and true cardinalities.
    """

    name: str
    dtype: ColumnType = ColumnType.INT
    ndv: int = 1000
    min_value: float = 0.0
    max_value: float = 1000.0
    skew: float = 0.0
    null_frac: float = 0.0
    width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ndv <= 0:
            raise SchemaError(f"column {self.name}: ndv must be positive")
        if self.max_value < self.min_value:
            raise SchemaError(f"column {self.name}: empty domain")
        if not 0.0 <= self.null_frac < 1.0:
            raise SchemaError(f"column {self.name}: null_frac out of range")

    @property
    def byte_width(self) -> int:
        return self.width if self.width is not None else _DEFAULT_WIDTHS[self.dtype]


@dataclass(frozen=True)
class Index:
    """A (possibly multi-column) B-tree index."""

    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"index {self.name}: needs at least one column")

    @property
    def leading_column(self) -> str:
        return self.columns[0]


PAGE_SIZE_BYTES = 8192
TUPLE_OVERHEAD_BYTES = 28  # PG heap tuple header + item pointer


@dataclass
class Table:
    """A table description with columns and indexes.

    A table must not be mutated after construction: ``tuple_width`` and
    ``pages`` are computed once here, because the planner and the
    simulator read them for every scan of every plan.
    """

    name: str
    columns: List[Column]
    row_count: int
    indexes: List[Index] = field(default_factory=list)
    #: Average tuple width in bytes, including heap overhead.
    tuple_width: int = field(init=False, repr=False, compare=False)
    #: Heap pages, the basis of sequential-scan cost.
    pages: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise SchemaError(f"table {self.name}: negative row count")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"table {self.name}: duplicate column names")
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        self.tuple_width = TUPLE_OVERHEAD_BYTES + sum(c.byte_width for c in self.columns)
        per_page = max(1, PAGE_SIZE_BYTES // max(self.tuple_width, 1))
        self.pages = max(1, -(-self.row_count // per_page))

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def indexes_on(self, column: str) -> List[Index]:
        """Indexes whose *leading* column is *column* (usable for it)."""
        return [ix for ix in self.indexes if ix.leading_column == column]

    def has_index_on(self, column: str) -> bool:
        return bool(self.indexes_on(column))


class Catalog:
    """A named collection of tables — one per benchmark database."""

    def __init__(self, name: str, tables: Iterable[Table]):
        self.name = name
        self.tables: Dict[str, Table] = {}
        for table in tables:
            if table.name in self.tables:
                raise SchemaError(f"duplicate table {table.name!r}")
            self.tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"catalog {self.name} has no table {name!r}") from None

    def column(self, table: str, column: str) -> Column:
        return self.table(table).column(column)

    def has_table(self, name: str) -> bool:
        return name in self.tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self.tables)

    def all_columns(self) -> List[Tuple[str, str]]:
        """All (table, column) pairs, in deterministic order."""
        pairs: List[Tuple[str, str]] = []
        for name in self.table_names:
            for col in self.tables[name].columns:
                pairs.append((name, col.name))
        return pairs

    def all_indexes(self) -> List[Index]:
        out: List[Index] = []
        for name in self.table_names:
            out.extend(self.tables[name].indexes)
        return out

    def __repr__(self) -> str:
        return f"Catalog({self.name!r}, tables={self.table_names})"
