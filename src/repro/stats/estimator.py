"""Cardinality and selectivity estimation.

This is the estimator every planning component shares.  It follows the
standard System-R lineage the paper's host optimizer also descends from:

* column-vs-literal predicates use histograms / distinct counts,
* LIKE and other opaque text predicates are estimated from a stored row
  sample,
* conjunctions assume independence,
* equi-join selectivity is ``1 / max(ndv(left), ndv(right))``,
* semi-join (bitvector) selectivity uses distinct-value containment.

The estimator is deliberately *good but imperfect* — the paper
attributes part of its regressions to exactly this gap (Section 7.4).
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.expr.eval import like_to_regex
from repro.expr.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
)
from repro.stats.statistics import ColumnStatistics
from repro.storage.database import Database

_DEFAULT_SELECTIVITY = 0.33
_MIN_ROWS = 1.0


class CardinalityEstimator:
    """Estimates base-table, predicate, join, and semi-join cardinalities.

    Parameters
    ----------
    database:
        Provides table statistics.
    alias_tables:
        Maps query aliases to table names, so expressions over aliases
        can be resolved to statistics.

    An estimator lives for one ``optimize_query`` call and memoizes,
    for that long only, each alias's filtered base cardinality and each
    column's distinct count.
    """

    def __init__(self, database: Database, alias_tables: dict[str, str]) -> None:
        self._database = database
        self._alias_tables = dict(alias_tables)
        # (alias, id(predicate)) -> (predicate, rows); holding the
        # predicate keeps its id from being reused while the entry lives.
        self._base_rows: dict[tuple[str, int], tuple[object, float]] = {}
        self._distinct: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # Base tables
    # ------------------------------------------------------------------

    def table_rows(self, alias: str) -> float:
        stats = self._table_stats(alias)
        return float(stats.num_rows)

    def base_cardinality(self, alias: str, predicate: Expression | None) -> float:
        """Estimated rows of ``alias`` after its local predicate."""
        key = (alias, id(predicate))
        known = self._base_rows.get(key)
        if known is not None:
            return known[1]
        rows = self.table_rows(alias)
        if predicate is not None:
            rows *= self.predicate_selectivity(predicate)
        rows = max(_MIN_ROWS, rows)
        self._base_rows[key] = (predicate, rows)
        return rows

    # ------------------------------------------------------------------
    # Predicate selectivity
    # ------------------------------------------------------------------

    def predicate_selectivity(self, expression: Expression) -> float:
        """Estimated fraction of rows satisfying ``expression``."""
        selectivity = self._selectivity(expression)
        return float(min(1.0, max(0.0, selectivity)))

    def _selectivity(self, expression: Expression) -> float:
        if isinstance(expression, And):
            product = 1.0
            for operand in expression.operands:
                product *= self._selectivity(operand)
            return product
        if isinstance(expression, Or):
            miss = 1.0
            for operand in expression.operands:
                miss *= 1.0 - self._selectivity(operand)
            return 1.0 - miss
        if isinstance(expression, Not):
            return 1.0 - self._selectivity(expression.operand)
        if isinstance(expression, Comparison):
            return self._comparison_selectivity(expression)
        if isinstance(expression, Between):
            return self._between_selectivity(expression)
        if isinstance(expression, InList):
            return self._in_selectivity(expression)
        if isinstance(expression, Like):
            return self._like_selectivity(expression)
        return _DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, expression: Comparison) -> float:
        column, literal = _column_vs_literal(expression.left, expression.right)
        if column is None:
            # column-vs-column or literal-vs-literal inside one table;
            # fall back to a fixed guess.
            return _DEFAULT_SELECTIVITY
        stats = self._column_stats(column)
        op = expression.op
        if _column_on_right(expression):
            op = _flip_comparison(op)
        value = literal.value
        if op == "=":
            return self._eq_selectivity(stats, value)
        if op == "<>":
            return 1.0 - self._eq_selectivity(stats, value)
        if not isinstance(value, (int, float)) or stats.histogram is None:
            return self._sample_selectivity(stats, op, value)
        if op == "<":
            return stats.histogram.selectivity_le(float(value) - 0.5) \
                if stats.column_type.name == "INT64" \
                else stats.histogram.selectivity_le(float(value))
        if op == "<=":
            return stats.histogram.selectivity_le(float(value))
        if op == ">":
            return stats.histogram.selectivity_gt(float(value))
        if op == ">=":
            half = 0.5 if stats.column_type.name == "INT64" else 0.0
            return stats.histogram.selectivity_gt(float(value) - half)
        return _DEFAULT_SELECTIVITY

    def _eq_selectivity(self, stats: ColumnStatistics, value: object) -> float:
        if isinstance(value, (int, float)) and stats.histogram is not None:
            return stats.histogram.selectivity_eq(float(value))
        if stats.num_distinct > 0:
            return 1.0 / stats.num_distinct
        return _DEFAULT_SELECTIVITY

    def _between_selectivity(self, expression: Between) -> float:
        if not isinstance(expression.operand, ColumnRef):
            return _DEFAULT_SELECTIVITY
        stats = self._column_stats(expression.operand)
        low = expression.low.value if isinstance(expression.low, Literal) else None
        high = expression.high.value if isinstance(expression.high, Literal) else None
        if (
            stats.histogram is not None
            and isinstance(low, (int, float))
            and isinstance(high, (int, float))
        ):
            return stats.histogram.selectivity_range(float(low), float(high))
        return _DEFAULT_SELECTIVITY

    def _in_selectivity(self, expression: InList) -> float:
        if not isinstance(expression.operand, ColumnRef):
            return _DEFAULT_SELECTIVITY
        stats = self._column_stats(expression.operand)
        total = 0.0
        for value in expression.values:
            total += self._eq_selectivity(stats, value)
        return min(1.0, total)

    def _like_selectivity(self, expression: Like) -> float:
        if not isinstance(expression.operand, ColumnRef):
            return _DEFAULT_SELECTIVITY
        stats = self._column_stats(expression.operand)
        if len(stats.sample) == 0:
            return _DEFAULT_SELECTIVITY
        regex = like_to_regex(expression.pattern)
        matches = sum(
            1 for value in stats.sample.tolist() if regex.match(str(value))
        )
        # Laplace smoothing so a zero-match sample never estimates 0.
        return (matches + 1.0) / (len(stats.sample) + 2.0)

    def _sample_selectivity(
        self, stats: ColumnStatistics, op: str, value: object
    ) -> float:
        if len(stats.sample) == 0:
            return _DEFAULT_SELECTIVITY
        sample = stats.sample
        try:
            if op == "<":
                matches = int(np.sum(sample < value))
            elif op == "<=":
                matches = int(np.sum(sample <= value))
            elif op == ">":
                matches = int(np.sum(sample > value))
            elif op == ">=":
                matches = int(np.sum(sample >= value))
            else:
                return _DEFAULT_SELECTIVITY
        except TypeError:
            return _DEFAULT_SELECTIVITY
        return (matches + 1.0) / (len(sample) + 2.0)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def column_distinct(self, alias: str, column: str) -> float:
        key = (alias, column)
        distinct = self._distinct.get(key)
        if distinct is None:
            stats = self._table_stats(alias)
            distinct = float(max(1, stats.column(column).num_distinct))
            self._distinct[key] = distinct
        return distinct

    def join_selectivity(
        self,
        left_alias: str,
        left_columns: tuple[str, ...],
        right_alias: str,
        right_columns: tuple[str, ...],
    ) -> float:
        """Equi-join selectivity relative to the cross product.

        Multi-column joins multiply per-column selectivities (the usual
        independence assumption), floored so huge keys never estimate 0.
        """
        selectivity = 1.0
        for left_col, right_col in zip(left_columns, right_columns):
            ndv_left = self.column_distinct(left_alias, left_col)
            ndv_right = self.column_distinct(right_alias, right_col)
            selectivity *= 1.0 / max(ndv_left, ndv_right)
        return max(selectivity, 1e-12)

    def join_cardinality(
        self,
        left_rows: float,
        right_rows: float,
        left_alias: str,
        left_columns: tuple[str, ...],
        right_alias: str,
        right_columns: tuple[str, ...],
    ) -> float:
        selectivity = self.join_selectivity(
            left_alias, left_columns, right_alias, right_columns
        )
        return max(_MIN_ROWS, left_rows * right_rows * selectivity)

    def semijoin_selectivity(
        self,
        probe_alias: str,
        probe_columns: tuple[str, ...],
        build_alias: str,
        build_columns: tuple[str, ...],
        build_fraction: float,
    ) -> float:
        """Fraction of probe rows surviving a bitvector from the build side.

        ``build_fraction`` is the estimated fraction of build-side rows
        remaining after the build side's own predicates/filters; the
        distinct count of the build key shrinks accordingly (standard
        distinct-value scaling).
        """
        survival = 1.0
        for probe_col, build_col in zip(probe_columns, build_columns):
            ndv_probe = self.column_distinct(probe_alias, probe_col)
            ndv_build = self.column_distinct(build_alias, build_col)
            remaining_build_ndv = ndv_build * min(1.0, max(0.0, build_fraction))
            survival *= min(1.0, remaining_build_ndv / max(ndv_probe, 1.0))
        return float(min(1.0, max(0.0, survival)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _table_stats(self, alias: str):
        try:
            table_name = self._alias_tables[alias]
        except KeyError:
            raise QueryError(f"unknown alias {alias!r}") from None
        return self._database.stats(table_name)

    def _column_stats(self, ref: ColumnRef) -> ColumnStatistics:
        return self._table_stats(ref.alias).column(ref.column)


def _column_vs_literal(
    left: Expression, right: Expression
) -> tuple[ColumnRef | None, Literal | None]:
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left, right
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        return right, left
    return None, None


def _column_on_right(expression: Comparison) -> bool:
    return isinstance(expression.right, ColumnRef) and isinstance(
        expression.left, Literal
    )


def _flip_comparison(op: str) -> str:
    flips = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    return flips[op]
