"""Zone maps: the whole-column synopsis behind the sorted-band search.

A column stored in ascending order (a fact table loaded by date key,
say) answers any single-column value band with two binary searches:
the qualifying rows are one contiguous range.  :class:`ColumnZoneMap`
records the one fact that makes the search sound — the column is
ascending and holds no NaN — and :func:`predicate_band` recognises the
predicates it can answer.  The executor's scan band search joins the
two (see :meth:`repro.engine.executor.Executor._scan_band_search`).

Zone maps are purely derived state: built lazily from the immutable
column arrays, cached on :class:`repro.storage.database.Database` per
``(table, column)`` with the same single-flight construction discipline
as the dictionary indexes, and invalidated alongside them.
"""

from __future__ import annotations

import numpy as np

from repro.expr.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
)

__all__ = ["ColumnZoneMap", "predicate_band"]


class ColumnZoneMap:
    """Whole-column synopsis: is the column ascending with no NaN?

    NaN must rule sortedness out: NaN compares false under every
    ordered predicate yet sorts *last* under ``searchsorted``, so a
    "sorted" column with NaN would band-include rows the evaluator
    rejects.  Unorderable object values (mixed types) are not sorted
    either.
    """

    __slots__ = ("sorted_ascending",)

    def __init__(self, sorted_ascending: bool) -> None:
        self.sorted_ascending = sorted_ascending

    @classmethod
    def build(cls, column: np.ndarray) -> "ColumnZoneMap":
        """One vectorized pass over ``column``.

        >>> import numpy as np
        >>> ColumnZoneMap.build(np.array([1, 2, 2, 5])).sorted_ascending
        True
        >>> ColumnZoneMap.build(np.array([1.0, np.nan])).sorted_ascending
        False
        """
        column = np.asarray(column)
        if column.dtype.kind == "f" and np.isnan(column).any():
            return cls(False)
        try:
            return cls(bool(np.all(column[1:] >= column[:-1])))
        except TypeError:  # unorderable object values
            return cls(False)

    def __repr__(self) -> str:
        return f"ColumnZoneMap(sorted_ascending={self.sorted_ascending})"


def _literal(expression: Expression) -> object | None:
    if isinstance(expression, Literal):
        return expression.value
    return None


def _split_comparison(
    predicate: Comparison,
) -> tuple[ColumnRef | None, Literal | None, bool]:
    if isinstance(predicate.left, ColumnRef) and isinstance(
        predicate.right, Literal
    ):
        return predicate.left, predicate.right, False
    if isinstance(predicate.right, ColumnRef) and isinstance(
        predicate.left, Literal
    ):
        return predicate.right, predicate.left, True
    return None, None, False


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def predicate_band(
    predicate: Expression, alias: str
) -> tuple[str, object | None, bool, object | None, bool] | None:
    """The predicate as one value band on one column, or ``None``.

    Returns ``(column, low, low_inclusive, high, high_inclusive)`` when
    the predicate is *exactly* a conjunction of ordered comparisons /
    ``BETWEEN`` against literals on a single column of ``alias`` — the
    shape a sorted (clustered) column can answer with two binary
    searches instead of any row-wise evaluation.  Either bound may be
    ``None`` (unbounded on that side).  Anything the band cannot
    represent losslessly (``<>``, ``IN``, ``OR``, ``NOT``, multiple
    columns, column-vs-column, non-literal bounds, NULL literals)
    returns ``None`` — the caller falls back to normal evaluation, so
    banding is always byte-identical to evaluating.
    """
    if isinstance(predicate, And):
        merged = None
        for operand in predicate.operands:
            band = predicate_band(operand, alias)
            if band is None:
                return None
            merged = band if merged is None else _merge_bands(merged, band)
            if merged is None:
                return None
        return merged
    if isinstance(predicate, Between):
        operand = predicate.operand
        if not isinstance(operand, ColumnRef) or operand.alias != alias:
            return None
        low = _literal(predicate.low)
        high = _literal(predicate.high)
        if low is None or high is None:
            return None
        return (operand.column, low, True, high, True)
    if isinstance(predicate, Comparison):
        column, literal, flipped = _split_comparison(predicate)
        if column is None or column.alias != alias:
            return None
        op = _FLIPPED[predicate.op] if flipped else predicate.op
        value = literal.value
        if value is None:
            return None
        name = column.column
        if op == "=":
            return (name, value, True, value, True)
        if op == "<":
            return (name, None, False, value, False)
        if op == "<=":
            return (name, None, False, value, True)
        if op == ">":
            return (name, value, False, None, False)
        if op == ">=":
            return (name, value, True, None, False)
        return None  # <> is two rays, not a band
    return None


def _merge_bands(left, right):
    """Intersection of two bands on the same column (``None`` when the
    columns differ or the bound values are not comparable)."""
    if left[0] != right[0]:
        return None
    try:
        low, low_inclusive = _tighter_bound(
            left[1], left[2], right[1], right[2], prefer_high=True
        )
        high, high_inclusive = _tighter_bound(
            left[3], left[4], right[3], right[4], prefer_high=False
        )
    except TypeError:
        return None
    return (left[0], low, low_inclusive, high, high_inclusive)


def _tighter_bound(a, a_inclusive, b, b_inclusive, prefer_high: bool):
    """The tighter of two band bounds (higher low / lower high); on a
    tie, inclusive only when both sides are."""
    if a is None:
        return b, b_inclusive
    if b is None:
        return a, a_inclusive
    if bool(a == b):
        return a, a_inclusive and b_inclusive
    if bool(b > a) == prefer_high:
        return b, b_inclusive
    return a, a_inclusive
