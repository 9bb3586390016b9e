"""Analytic statistics: the optimizer's view vs the data's truth.

Two selectivity functions live here:

* :meth:`TableStatistics.estimated_selectivity` — what a PostgreSQL-
  style optimizer would estimate (uniformity + independence
  assumptions, 1/ndv equality, range fractions of the domain).
* :meth:`TableStatistics.true_selectivity` — the "ground truth" of the
  simulated data: Zipf-skewed value frequencies plus a deterministic
  correlation perturbation keyed by the predicate, so repeated
  executions agree.

The gap between the two is what makes the raw PostgreSQL cost model a
poor latency predictor in the paper's Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from ..rng import rng_for, stable_seed
from .schema import Catalog, ColumnType, Table

#: How strongly "true" range selectivities deviate from the uniform
#: estimate (lognormal sigma).  Chosen so the PG baseline's q-error is
#: large while remaining correlated with the truth, as in the paper.
TRUE_SELECTIVITY_SIGMA = 0.6

_COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">=", "between", "in", "like"}

#: Entries each selectivity memo keeps.  Planning sees the same
#: predicates over and over (the data abstract draws 32 literals per
#: column), but a long-lived statistics object, such as the serving
#: layer's, can see arbitrary literals; past the cap new keys are
#: computed and not stored.  A TPC-H ``QCFE.fit`` stores at most about
#: 660 entries per table, and an entry costs about 265 bytes, so a
#: full memo holds about 1 MB.
SELECTIVITY_MEMO_MAX = 1 << 12


def _clamp(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` for a scalar, without numpy's
    per-call overhead.  NaN stays NaN, as with ``np.clip``: ``max`` and
    ``min`` keep their first argument when a comparison is false."""
    return float(min(max(x, lo), hi))


def _remember(memo: Dict, key: object, value: float) -> float:
    """Store *value* under *key* unless the memo is full.

    The memos are read and written without a lock.  Two threads that
    miss on the same key compute the same float (the selectivities are
    pure functions of the key and the statistics seed), so whichever
    write lands last stores an equal value.  The cap is soft for the
    same reason: threads that pass the size check together can each
    add one entry past it.
    """
    if len(memo) < SELECTIVITY_MEMO_MAX:
        memo[key] = value
    return value


def zipf_frequencies(ndv: int, skew: float, max_terms: int = 4096) -> np.ndarray:
    """Normalised Zipf frequencies for ``ndv`` values with exponent *skew*.

    For large ndv the tail is folded into a uniform remainder so the
    vector stays small; rank 0 is the most frequent value.
    """
    if ndv <= 0:
        raise SchemaError("ndv must be positive")
    terms = min(ndv, max_terms)
    if skew <= 0.0:
        return np.full(terms, 1.0 / ndv)
    ranks = np.arange(1, terms + 1, dtype=np.float64)
    weights = ranks**-skew
    # Approximate the tail mass of ranks terms..ndv with an integral.
    if ndv > terms:
        if abs(skew - 1.0) < 1e-9:
            tail = np.log(ndv / terms)
        else:
            tail = (ndv ** (1 - skew) - terms ** (1 - skew)) / (1 - skew)
    else:
        tail = 0.0
    total = weights.sum() + tail
    return weights / total


@dataclass(frozen=True)
class Predicate:
    """A simple predicate ``table.column OP value`` used for estimation.

    ``value`` is interpreted inside the column domain; for ``between``
    it is a (low, high) tuple, for ``in`` a sequence of values.
    """

    table: str
    column: str
    op: str
    value: object = None

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise SchemaError(f"unsupported predicate operator {self.op!r}")

    def key(self) -> Tuple:
        return (self.table, self.column, self.op, str(self.value))

    def memo_key(self) -> Tuple:
        """:meth:`key` plus the value's type and the value itself: the
        string alone can collide (``1`` and ``"1"``, or a tuple of
        floats printed alike), and a memo must never do so."""
        return (*self.key(), type(self.value), self.value)


class TableStatistics:
    """Selectivity estimation for one table."""

    def __init__(self, table: Table, seed_key: object = 0):
        self.table = table
        self._seed_key = seed_key
        self._true_memo: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------
    # estimated (optimizer view)
    # ------------------------------------------------------------------
    def estimated_selectivity(self, pred: Predicate) -> float:
        """PostgreSQL-style selectivity under uniformity assumptions."""
        col = self.table.column(pred.column)
        lo, hi = col.min_value, col.max_value
        span = max(hi - lo, 1e-12)
        op = pred.op
        if op == "=":
            sel = 1.0 / col.ndv
        elif op == "<>":
            sel = 1.0 - 1.0 / col.ndv
        elif op in ("<", "<="):
            sel = (self._as_float(pred.value) - lo) / span
        elif op in (">", ">="):
            sel = (hi - self._as_float(pred.value)) / span
        elif op == "between":
            low, high = pred.value  # type: ignore[misc]
            sel = (self._as_float(high) - self._as_float(low)) / span
        elif op == "in":
            sel = len(tuple(pred.value)) / col.ndv  # type: ignore[arg-type]
        elif op == "like":
            # PG's default pattern selectivity for non-anchored LIKE.
            sel = 0.005 if str(pred.value).startswith("%") else 0.02
        else:  # pragma: no cover - guarded by Predicate
            raise SchemaError(f"unsupported operator {op!r}")
        sel *= 1.0 - col.null_frac
        return _clamp(sel, 1e-9, 1.0)

    # ------------------------------------------------------------------
    # true (data view)
    # ------------------------------------------------------------------
    def true_selectivity(self, pred: Predicate) -> float:
        """Ground-truth selectivity of the simulated data.

        Equality predicates draw their frequency from the Zipf rank the
        literal value deterministically maps to; range predicates apply
        a lognormal perturbation keyed by the predicate, standing in
        for the skew/correlation real data exhibits.  Memoized per
        :meth:`Predicate.memo_key`.
        """
        key = pred.memo_key()
        try:
            sel = self._true_memo.get(key)
        except TypeError:  # an unhashable literal: compute, never store
            return self._true_selectivity(pred)
        if sel is None:
            sel = _remember(self._true_memo, key, self._true_selectivity(pred))
        return sel

    def _true_selectivity(self, pred: Predicate) -> float:
        col = self.table.column(pred.column)
        est = self.estimated_selectivity(pred)
        if pred.op == "=" and col.skew > 0.0:
            freqs = zipf_frequencies(col.ndv, col.skew)
            rank = stable_seed("rank", self._seed_key, *pred.key()) % col.ndv
            if rank < len(freqs):
                sel = float(freqs[rank])
            else:
                sel = float((1.0 - freqs.sum()) / max(col.ndv - len(freqs), 1))
            sel *= 1.0 - col.null_frac
        else:
            z = rng_for("truesel", self._seed_key, *pred.key()).standard_normal()
            sel = est * float(np.exp(TRUE_SELECTIVITY_SIGMA * z))
        return _clamp(sel, 1e-9, 1.0)

    @staticmethod
    def _as_float(value: object) -> float:
        try:
            return float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            # Text literals: map deterministically into the unit domain.
            return float(stable_seed("textval", str(value)) % 10_000) / 10.0


class CatalogStatistics:
    """Statistics for every table of a catalog, plus join selectivity."""

    def __init__(self, catalog: Catalog, seed_key: object = 0):
        self.catalog = catalog
        self._seed_key = seed_key
        self._true_join_memo: Dict[Tuple, float] = {}
        self._tables: Dict[str, TableStatistics] = {
            name: TableStatistics(tab, seed_key=(seed_key, name))
            for name, tab in catalog.tables.items()
        }

    def for_table(self, name: str) -> TableStatistics:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no statistics for table {name!r}") from None

    # -- conjunctive predicate lists ------------------------------------
    def estimated_conjunction(self, preds: Sequence[Predicate]) -> float:
        """Independence-assumption product over a predicate list."""
        sel = 1.0
        for pred in preds:
            sel *= self.for_table(pred.table).estimated_selectivity(pred)
        return _clamp(sel, 1e-12, 1.0)

    def true_conjunction(self, preds: Sequence[Predicate]) -> float:
        """Truth for a conjunction; mild positive correlation between
        predicates on the same table (real columns are correlated, so
        the truth shrinks less than the independence product)."""
        sel = 1.0
        by_table: Dict[str, int] = {}
        for pred in preds:
            t_sel = self.for_table(pred.table).true_selectivity(pred)
            repeat = by_table.get(pred.table, 0)
            if repeat:
                # Damp later predicates on the same table toward 1.
                t_sel = t_sel ** (1.0 / (1.0 + 0.5 * repeat))
            by_table[pred.table] = repeat + 1
            sel *= t_sel
        return _clamp(sel, 1e-12, 1.0)

    # -- joins -----------------------------------------------------------
    def estimated_join_selectivity(
        self, left: Tuple[str, str], right: Tuple[str, str]
    ) -> float:
        """Textbook 1/max(ndv) equi-join selectivity."""
        l_col = self.catalog.column(*left)
        r_col = self.catalog.column(*right)
        return 1.0 / max(l_col.ndv, r_col.ndv, 1)

    def true_join_selectivity(
        self, left: Tuple[str, str], right: Tuple[str, str]
    ) -> float:
        """Ground-truth join selectivity, memoized per column pair."""
        key = (left, right)
        sel = self._true_join_memo.get(key)
        if sel is None:
            est = self.estimated_join_selectivity(left, right)
            z = rng_for("truejoin", self._seed_key, left, right).standard_normal()
            sel = _remember(
                self._true_join_memo,
                key,
                _clamp(est * float(np.exp(TRUE_SELECTIVITY_SIGMA * z)), 1e-12, 1.0),
            )
        return sel


class DataAbstract:
    """The data abstract ``R`` of Algorithm 1: representative per-column
    value samples used to fill simplified query templates."""

    def __init__(self, catalog: Catalog, samples_per_column: int = 32, seed: int = 7):
        self.catalog = catalog
        self.samples_per_column = samples_per_column
        self._seed = seed
        self._cache: Dict[Tuple[str, str], List[object]] = {}

    def values(self, table: str, column: str) -> List[object]:
        """Sample literal values from a column's domain (cached)."""
        key = (table, column)
        if key not in self._cache:
            col = self.catalog.column(table, column)
            rng = rng_for("abstract", self._seed, table, column)
            if col.dtype in (ColumnType.INT, ColumnType.DATE):
                lo, hi = int(col.min_value), int(col.max_value)
                draws = rng.integers(lo, max(hi, lo + 1), size=self.samples_per_column)
                self._cache[key] = [int(v) for v in draws]
            elif col.dtype is ColumnType.FLOAT:
                draws = rng.uniform(col.min_value, col.max_value, self.samples_per_column)
                self._cache[key] = [round(float(v), 4) for v in draws]
            else:
                self._cache[key] = [
                    f"{column}_{int(v)}"
                    for v in rng.integers(0, col.ndv, size=self.samples_per_column)
                ]
        return self._cache[key]

    def sample(self, table: str, column: str, rng: Optional[np.random.Generator] = None) -> object:
        """One random literal for ``table.column``."""
        values = self.values(table, column)
        rng = rng or rng_for("abstract-pick", self._seed, table, column)
        return values[int(rng.integers(0, len(values)))]
