"""Catalog schema invariants and error handling."""

from __future__ import annotations

import pytest

from repro.catalog.imdb import imdb_catalog
from repro.catalog.schema import (
    PAGE_SIZE_BYTES,
    TUPLE_OVERHEAD_BYTES,
    Catalog,
    Column,
    ColumnType,
    Index,
    Table,
)
from repro.catalog.sysbench import sysbench_catalog
from repro.catalog.tpch import tpch_catalog
from repro.errors import SchemaError


def make_table(name="t", rows=1000):
    return Table(
        name=name,
        row_count=rows,
        columns=[
            Column("a", ColumnType.INT, ndv=100, min_value=0, max_value=100),
            Column("b", ColumnType.TEXT, ndv=10, min_value=0, max_value=10),
        ],
        indexes=[Index(f"{name}_a_idx", name, ("a",), unique=False)],
    )


class TestColumn:
    def test_default_widths_by_type(self):
        assert Column("x", ColumnType.INT, ndv=1, max_value=1).byte_width == 4
        assert Column("x", ColumnType.FLOAT, ndv=1, max_value=1).byte_width == 8
        assert Column("x", ColumnType.TEXT, ndv=1, max_value=1).byte_width == 32

    def test_explicit_width_wins(self):
        assert Column("x", ColumnType.TEXT, ndv=1, max_value=1, width=120).byte_width == 120

    def test_rejects_bad_ndv(self):
        with pytest.raises(SchemaError):
            Column("x", ndv=0)

    def test_rejects_empty_domain(self):
        with pytest.raises(SchemaError):
            Column("x", ndv=5, min_value=10, max_value=1)

    def test_rejects_bad_null_frac(self):
        with pytest.raises(SchemaError):
            Column("x", ndv=5, max_value=5, null_frac=1.5)


class TestIndex:
    def test_leading_column(self):
        ix = Index("i", "t", ("a", "b"))
        assert ix.leading_column == "a"

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Index("i", "t", ())


class TestTable:
    def test_column_lookup(self):
        table = make_table()
        assert table.column("a").name == "a"
        assert table.has_column("b")
        assert not table.has_column("zzz")

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_table().column("zzz")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", ndv=1, max_value=1)] * 2, row_count=1)

    def test_negative_rows_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", ndv=1, max_value=1)], row_count=-1)

    def test_tuple_width_includes_overhead(self):
        table = make_table()
        assert table.tuple_width == 28 + 4 + 32

    def test_pages_scale_with_rows(self):
        small = make_table(rows=100)
        large = make_table(rows=1_000_000)
        assert large.pages > small.pages
        per_page = PAGE_SIZE_BYTES // small.tuple_width
        assert small.pages == -(-100 // per_page)

    def test_pages_at_least_one(self):
        assert make_table(rows=0).pages == 1

    @pytest.mark.parametrize("make", [tpch_catalog, imdb_catalog, sysbench_catalog])
    def test_memoized_width_and_pages_match_the_formula(self, make):
        for table in make().tables.values():
            width = TUPLE_OVERHEAD_BYTES + sum(c.byte_width for c in table.columns)
            per_page = max(1, PAGE_SIZE_BYTES // max(width, 1))
            assert table.tuple_width == width, table.name
            assert table.pages == max(1, -(-table.row_count // per_page)), table.name

    def test_indexes_on_leading_column_only(self):
        table = Table(
            "t",
            [Column("a", ndv=1, max_value=1), Column("b", ndv=1, max_value=1)],
            row_count=10,
            indexes=[Index("i", "t", ("a", "b"))],
        )
        assert table.has_index_on("a")
        assert not table.has_index_on("b")


class TestCatalog:
    def test_lookup_and_listing(self):
        catalog = Catalog("db", [make_table("t1"), make_table("t2")])
        assert catalog.table("t1").name == "t1"
        assert catalog.table_names == ["t1", "t2"]
        assert catalog.column("t2", "a").name == "a"
        assert ("t1", "a") in catalog.all_columns()
        assert len(catalog.all_indexes()) == 2

    def test_unknown_table_raises(self):
        catalog = Catalog("db", [make_table()])
        with pytest.raises(SchemaError):
            catalog.table("nope")

    def test_duplicate_tables_rejected(self):
        with pytest.raises(SchemaError):
            Catalog("db", [make_table("t"), make_table("t")])

    def test_all_columns_deterministic_order(self):
        catalog = Catalog("db", [make_table("b"), make_table("a")])
        assert catalog.all_columns() == [
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
        ]
