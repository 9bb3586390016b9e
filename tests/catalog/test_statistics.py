"""Statistics: selectivity bounds, determinism, skew behaviour."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import statistics
from repro.catalog.schema import Catalog, Column, ColumnType, Table
from repro.catalog.statistics import (
    CatalogStatistics,
    DataAbstract,
    Predicate,
    TableStatistics,
    _clamp,
    zipf_frequencies,
)
from repro.errors import SchemaError


def make_catalog(skew=0.0) -> Catalog:
    table = Table(
        "t",
        [
            Column("k", ColumnType.INT, ndv=1000, min_value=0, max_value=1000, skew=skew),
            Column("v", ColumnType.FLOAT, ndv=500, min_value=0, max_value=100),
            Column("s", ColumnType.TEXT, ndv=50, min_value=0, max_value=50),
        ],
        row_count=100_000,
    )
    return Catalog("db", [table])


class TestZipf:
    @given(st.integers(1, 10_000), st.floats(0.0, 2.0))
    def test_frequencies_are_distribution(self, ndv, skew):
        freqs = zipf_frequencies(ndv, skew)
        assert np.all(freqs >= 0)
        assert freqs.sum() <= 1.0 + 1e-9

    def test_uniform_when_no_skew(self):
        freqs = zipf_frequencies(100, 0.0)
        np.testing.assert_allclose(freqs, 0.01)

    def test_rank_zero_most_frequent(self):
        freqs = zipf_frequencies(100, 1.0)
        assert freqs[0] == freqs.max()
        assert np.all(np.diff(freqs) <= 1e-15)

    def test_rejects_bad_ndv(self):
        with pytest.raises(SchemaError):
            zipf_frequencies(0, 1.0)


_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
_values = st.floats(0, 1000)


class TestEstimatedSelectivity:
    @given(_ops, _values)
    def test_bounded(self, op, value):
        stats = TableStatistics(make_catalog().table("t"))
        sel = stats.estimated_selectivity(Predicate("t", "k", op, value))
        assert 0.0 < sel <= 1.0

    def test_equality_is_one_over_ndv(self):
        stats = TableStatistics(make_catalog().table("t"))
        sel = stats.estimated_selectivity(Predicate("t", "k", "=", 5))
        assert sel == pytest.approx(1.0 / 1000)

    def test_range_is_domain_fraction(self):
        stats = TableStatistics(make_catalog().table("t"))
        sel = stats.estimated_selectivity(Predicate("t", "k", "<", 250))
        assert sel == pytest.approx(0.25)

    def test_between(self):
        stats = TableStatistics(make_catalog().table("t"))
        sel = stats.estimated_selectivity(Predicate("t", "k", "between", (100, 300)))
        assert sel == pytest.approx(0.2)

    def test_in_list(self):
        stats = TableStatistics(make_catalog().table("t"))
        sel = stats.estimated_selectivity(Predicate("t", "k", "in", (1, 2, 3)))
        assert sel == pytest.approx(3.0 / 1000)

    def test_like_patterns(self):
        stats = TableStatistics(make_catalog().table("t"))
        anchored = stats.estimated_selectivity(Predicate("t", "s", "like", "abc%"))
        floating = stats.estimated_selectivity(Predicate("t", "s", "like", "%abc%"))
        assert floating < anchored

    def test_unsupported_operator_rejected(self):
        with pytest.raises(SchemaError):
            Predicate("t", "k", "~~", 1)


class TestTrueSelectivity:
    @given(_ops, _values)
    def test_bounded_and_deterministic(self, op, value):
        stats = TableStatistics(make_catalog(skew=1.0).table("t"), seed_key=1)
        pred = Predicate("t", "k", op, value)
        first = stats.true_selectivity(pred)
        second = stats.true_selectivity(pred)
        assert first == second
        assert 0.0 < first <= 1.0

    def test_skewed_equality_varies_by_value(self):
        stats = TableStatistics(make_catalog(skew=1.2).table("t"))
        sels = {
            stats.true_selectivity(Predicate("t", "k", "=", v)) for v in range(30)
        }
        assert len(sels) > 5  # zipf ranks differ by literal

    def test_estimation_error_exists_on_skew(self):
        stats = TableStatistics(make_catalog(skew=1.2).table("t"))
        pred = Predicate("t", "k", "=", 7)
        est = stats.estimated_selectivity(pred)
        true = stats.true_selectivity(pred)
        assert est != pytest.approx(true, rel=1e-3)


class TestCatalogStatistics:
    def test_conjunction_products(self):
        stats = CatalogStatistics(make_catalog())
        preds = [Predicate("t", "k", "<", 500), Predicate("t", "v", "<", 50.0)]
        est = stats.estimated_conjunction(preds)
        assert est == pytest.approx(0.25)

    def test_true_conjunction_damps_correlation(self):
        stats = CatalogStatistics(make_catalog())
        pred = Predicate("t", "k", "<", 500)
        single = stats.true_conjunction([pred])
        double = stats.true_conjunction([pred, Predicate("t", "k", ">", 100)])
        assert double <= 1.0
        assert single <= 1.0

    def test_empty_conjunction_is_one(self):
        stats = CatalogStatistics(make_catalog())
        assert stats.estimated_conjunction([]) == 1.0

    def test_join_selectivity_textbook(self):
        stats = CatalogStatistics(make_catalog())
        sel = stats.estimated_join_selectivity(("t", "k"), ("t", "v"))
        assert sel == pytest.approx(1.0 / 1000)

    def test_true_join_deterministic(self):
        stats = CatalogStatistics(make_catalog(), seed_key=9)
        a = stats.true_join_selectivity(("t", "k"), ("t", "v"))
        b = stats.true_join_selectivity(("t", "k"), ("t", "v"))
        assert a == b

    def test_unknown_table_raises(self):
        stats = CatalogStatistics(make_catalog())
        with pytest.raises(SchemaError):
            stats.for_table("nope")


class TestClamp:
    @pytest.mark.parametrize(
        "x",
        [float("nan"), float("inf"), -float("inf"), 1e-9, 1.0, 0.0, -0.0,
         -3.5, 0.25, 1.0 + 1e-16, 2.0, 5e-324],
    )
    @pytest.mark.parametrize("lo, hi", [(1e-9, 1.0), (1e-12, 1.0)])
    def test_matches_np_clip(self, x, lo, hi):
        want = float(np.clip(x, lo, hi))
        got = _clamp(x, lo, hi)
        assert type(got) is float
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got.hex() == want.hex()

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_matches_np_clip_anywhere(self, x):
        want = float(np.clip(x, 1e-9, 1.0))
        got = _clamp(x, 1e-9, 1.0)
        assert (np.isnan(got) and np.isnan(want)) or got.hex() == want.hex()


class TestSelectivityMemo:
    PREDICATES = [
        Predicate("t", "k", "=", 17),
        Predicate("t", "k", "<", 400),
        Predicate("t", "v", "between", (10.0, 20.5)),
        Predicate("t", "s", "in", ("s_1", "s_2")),
        Predicate("t", "s", "like", "%s_1"),
    ]

    def test_memoized_values_equal_fresh_ones(self):
        warm = TableStatistics(make_catalog(skew=1.1).table("t"), seed_key=3)
        first = [warm.true_selectivity(p) for p in self.PREDICATES]
        again = [warm.true_selectivity(p) for p in self.PREDICATES]
        for pred, a, b in zip(self.PREDICATES, first, again, strict=True):
            fresh = TableStatistics(make_catalog(skew=1.1).table("t"), seed_key=3)
            assert a.hex() == b.hex() == fresh.true_selectivity(pred).hex()

    def test_key_separates_values_that_print_alike(self):
        as_int, as_str = Predicate("t", "k", "<", 1), Predicate("t", "k", "<", "1")
        assert as_int.key() == as_str.key()
        assert as_int.memo_key() != as_str.memo_key()

    def test_unhashable_literal_is_computed_not_stored(self):
        stats = TableStatistics(make_catalog().table("t"))
        pred = Predicate("t", "s", "in", ["s_1", "s_2", "s_3"])
        sel = stats.true_selectivity(pred)
        assert sel == stats.true_selectivity(pred)
        assert not stats._true_memo

    def test_memos_stop_growing_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(statistics, "SELECTIVITY_MEMO_MAX", 8)
        stats = CatalogStatistics(make_catalog(), seed_key=4)
        table = stats.for_table("t")
        preds = [Predicate("t", "k", "<", v) for v in range(20)]
        got = [table.true_selectivity(p) for p in preds]
        assert len(table._true_memo) == 8
        fresh = TableStatistics(make_catalog().table("t"), seed_key=(4, "t"))
        assert got == [fresh.true_selectivity(p) for p in preds]
        pairs = [(("t", a), ("t", b)) for a in "kvs" for b in "kvs"]
        joins = [stats.true_join_selectivity(*pair) for pair in pairs]
        assert len(stats._true_join_memo) == 8
        fresh_stats = CatalogStatistics(make_catalog(), seed_key=4)
        assert joins == [fresh_stats.true_join_selectivity(*pair) for pair in pairs]

    def test_racing_threads_store_equal_values(self, monkeypatch):
        """More threads than cores share one memo: every answer equals
        the single-threaded one, and the cap overshoots by at most one
        entry per racing thread."""
        monkeypatch.setattr(statistics, "SELECTIVITY_MEMO_MAX", 16)
        threads_n = 8
        preds = [Predicate("t", "k", "<", v) for v in range(64)]
        fresh = TableStatistics(make_catalog().table("t"), seed_key=5)
        want = [fresh.true_selectivity(p) for p in preds]
        shared = TableStatistics(make_catalog().table("t"), seed_key=5)
        results = [None] * threads_n

        def work(slot):
            order = np.random.default_rng(slot).permutation(len(preds))
            got = {int(i): shared.true_selectivity(preds[i]) for i in order}
            results[slot] = [got[i] for i in range(len(preds))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * threads_n
        assert len(shared._true_memo) <= 16 + threads_n


class TestDataAbstract:
    def test_values_within_domain(self):
        abstract = DataAbstract(make_catalog(), samples_per_column=16)
        for value in abstract.values("t", "k"):
            assert 0 <= value <= 1000

    def test_values_cached(self):
        abstract = DataAbstract(make_catalog())
        assert abstract.values("t", "k") is abstract.values("t", "k")

    def test_float_column_sampling(self):
        abstract = DataAbstract(make_catalog())
        for value in abstract.values("t", "v"):
            assert isinstance(value, float)
            assert 0 <= value <= 100

    def test_text_column_sampling(self):
        abstract = DataAbstract(make_catalog())
        assert all(isinstance(v, str) for v in abstract.values("t", "s"))

    def test_sample_draws_from_values(self):
        abstract = DataAbstract(make_catalog())
        rng = np.random.default_rng(0)
        assert abstract.sample("t", "k", rng) in abstract.values("t", "k")
