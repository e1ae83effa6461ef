"""Zone maps: per-morsel min/max synopses for morsel-level data skipping.

A *zone map* is the classic small-materialized-aggregate synopsis
(Moerkotte, VLDB 1998): for every morsel of a stored column it records
the minimum, maximum, null count, and whether the morsel is constant.
The executor consults zone maps before dispatching morsel work — a
morsel whose ``[min, max]`` provably cannot satisfy a scan predicate,
pass an applied bitvector filter, or match any build-side join key is
skipped without reading a single row.  This is the partition-level
analogue of the paper's row-level bitvector filtering: the filter
eliminates non-qualifying *rows* inside a morsel, the zone map
eliminates non-qualifying *morsels* before the filter even runs.

Zone maps are purely derived state: built lazily from the immutable
column arrays (one vectorized pass per column), cached on
:class:`repro.storage.database.Database` keyed by ``(table, column,
morsel shape)`` with the same single-flight construction discipline as
the dictionary indexes, and invalidated alongside them.

Pruning is *conservative by construction*: every helper in this module
answers "is this predicate/filter provably false for **every** row of
the morsel?", and anything it cannot reason about (``NOT``, ``LIKE``,
column-vs-column comparisons, mismatched value types) answers "no".
Skipped morsels therefore contribute exactly the rows the full
evaluation would have contributed — none — and pruned execution stays
byte-identical to unpruned execution.

NaN discipline: bounds are computed over non-NaN values (NaN compares
false under every ordered predicate, so it can never rescue a morsel
from pruning), and an all-NaN morsel reports ``min is None`` — which
ordered comparisons, equality, ``BETWEEN``, and ``IN`` prune outright
(``<>`` does not: numpy's ``!=`` is *true* for NaN).
"""

from __future__ import annotations

import numpy as np

from repro.expr.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
    Or,
)

__all__ = [
    "ColumnZoneMap",
    "MorselBounds",
    "predicate_prunes_morsel",
    "predicate_accepts_morsel",
    "filter_prunes_morsel",
    "predicate_band",
    "predicate_prune_flags",
    "predicate_accept_flags",
    "scan_morsel_decisions",
    "filter_prune_flags",
    "pruned_row_fraction",
]


class MorselBounds:
    """Bounds of one column over one morsel: ``(min, max, null_count)``.

    ``low``/``high`` are ``None`` when the morsel holds no comparable
    values (all-NaN float runs, or an empty range) — a state every
    comparison-style predicate treats as unsatisfiable.
    """

    __slots__ = ("low", "high", "null_count")

    def __init__(self, low, high, null_count: int) -> None:
        self.low = low
        self.high = high
        self.null_count = null_count

    @property
    def all_null(self) -> bool:
        return self.low is None

    @property
    def is_constant(self) -> bool:
        """Whether every described row holds one identical value."""
        return (
            self.low is not None
            and self.low == self.high
            and self.null_count == 0
        )

    def __repr__(self) -> str:
        return (
            f"MorselBounds({self.low!r}, {self.high!r}, "
            f"nulls={self.null_count})"
        )


class ColumnZoneMap:
    """Per-morsel min/max/null-count/constant synopses of one column.

    Construction is one pass over the column — ``O(rows)`` ufunc
    reductions per morsel slice, no sorting, no allocation proportional
    to the data — and the result is a few machine words per morsel.
    Like every storage-side artifact, the zone map describes *base
    table* row ranges; views that still map rows contiguously onto the
    base (identity scans) can therefore be pruned morsel-by-morsel.
    """

    __slots__ = (
        "ranges", "mins", "maxs", "null_counts", "known", "sorted_ascending",
        "_bound_arrays",
    )

    def __init__(
        self,
        ranges: tuple[tuple[int, int], ...],
        mins: tuple,
        maxs: tuple,
        null_counts: tuple[int, ...],
        known: tuple[bool, ...] | None = None,
        sorted_ascending: bool = False,
    ) -> None:
        self.ranges = ranges
        self.mins = mins
        self.maxs = maxs
        self.null_counts = null_counts
        # ``known[i]`` False means the morsel yielded no usable synopsis
        # (unorderable mixed-type object values): "no information", which
        # must never prune — distinct from the all-NaN state, which is
        # definite knowledge that no comparable value exists.
        self.known = known if known is not None else (True,) * len(ranges)
        # Whether the whole column is ascending with no NaN: the
        # clustered-band precondition.  A sorted column turns any
        # single-column value band into one contiguous row range —
        # binary search replaces per-morsel interval checks entirely
        # (see the executor's scan band search).  NaN must disqualify:
        # NaN compares false under every ordered predicate yet sorts
        # *last* under ``searchsorted``, so a "sorted" column with NaN
        # would band-include rows the evaluator rejects.
        self.sorted_ascending = sorted_ascending
        self._bound_arrays: tuple | None = None

    @classmethod
    def build(
        cls, column: np.ndarray, ranges: list[tuple[int, int]]
    ) -> "ColumnZoneMap":
        """Compute the synopsis of ``column`` over the given row ranges.

        >>> import numpy as np
        >>> zm = ColumnZoneMap.build(np.array([3, 1, 2, 9, 9, 9]),
        ...                          [(0, 3), (3, 6)])
        >>> zm.bounds(0).low, zm.bounds(0).high
        (1, 3)
        >>> zm.is_constant(1)
        True
        """
        column = np.asarray(column)
        is_float = column.dtype.kind == "f"
        mins: list = []
        maxs: list = []
        nulls: list[int] = []
        known: list[bool] = []
        for start, stop in ranges:
            values = column[start:stop]
            if len(values) == 0:
                mins.append(None)
                maxs.append(None)
                nulls.append(0)
                known.append(True)
                continue
            if is_float:
                nan_count = int(np.count_nonzero(np.isnan(values)))
                nulls.append(nan_count)
                known.append(True)
                if nan_count == len(values):
                    mins.append(None)
                    maxs.append(None)
                    continue
                mins.append(float(np.nanmin(values)))
                maxs.append(float(np.nanmax(values)))
            else:
                nulls.append(0)
                try:
                    low, high = values.min(), values.max()
                except TypeError:
                    # Mixed-type object column: no total order, hence no
                    # information — bounds() reports None so nothing is
                    # ever pruned off this morsel.
                    mins.append(None)
                    maxs.append(None)
                    known.append(False)
                    continue
                known.append(True)
                if column.dtype.kind in "iub":
                    mins.append(int(low))
                    maxs.append(int(high))
                else:
                    mins.append(low)
                    maxs.append(high)
        if sum(nulls) or not all(known):
            sorted_ascending = False
        else:
            try:
                sorted_ascending = bool(np.all(column[1:] >= column[:-1]))
            except TypeError:  # unorderable object values
                sorted_ascending = False
        return cls(
            tuple((int(a), int(b)) for a, b in ranges),
            tuple(mins),
            tuple(maxs),
            tuple(nulls),
            tuple(known),
            sorted_ascending,
        )

    @property
    def num_morsels(self) -> int:
        return len(self.ranges)

    def bounds(self, index: int) -> MorselBounds | None:
        """The morsel's bounds, or ``None`` when nothing is known."""
        if not self.known[index]:
            return None
        return MorselBounds(
            self.mins[index], self.maxs[index], self.null_counts[index]
        )

    def is_constant(self, index: int) -> bool:
        """Whether every row of the morsel holds one identical value."""
        bounds = self.bounds(index)
        return bounds is not None and bounds.is_constant

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(lows, highs, null_free)`` over all morsels as arrays, or
        ``None`` — what lets one vectorized comparison decide every
        morsel at once (:func:`scan_morsel_decisions`).

        Only a plain numeric synopsis qualifies: every morsel known and
        holding at least one comparable value, bounds all ``int``
        (within int64) or all ``float``.  Built on first use and kept:
        the zone map is immutable, so a racing second build is the same
        arrays.
        """
        if self._bound_arrays is None:
            arrays = None
            kinds = set(map(type, self.mins)) | set(map(type, self.maxs))
            if all(self.known) and kinds in ({int}, {float}):
                dtype = np.int64 if kinds == {int} else np.float64
                try:
                    arrays = (
                        np.array(self.mins, dtype=dtype),
                        np.array(self.maxs, dtype=dtype),
                        np.array(self.null_counts) == 0,
                    )
                except OverflowError:  # uint64 bounds past int64
                    pass
            self._bound_arrays = (arrays,)
        return self._bound_arrays[0]

    def __repr__(self) -> str:
        return f"ColumnZoneMap(morsels={self.num_morsels})"


# ----------------------------------------------------------------------
# Interval reasoning
# ----------------------------------------------------------------------


def _definitely_outside(low, high, value) -> bool:
    """``value`` provably outside ``[low, high]`` (False when types
    are not comparable — conservative, never prunes on a guess)."""
    try:
        return bool(value < low) or bool(value > high)
    except TypeError:
        return False


def _literal(expression: Expression) -> object | None:
    if isinstance(expression, Literal):
        return expression.value
    return None


def predicate_prunes_morsel(predicate: Expression, bounds_of) -> bool:
    """True iff ``predicate`` is provably false for every morsel row.

    ``bounds_of(alias, column)`` returns the :class:`MorselBounds` of
    one column over the morsel under test, or ``None`` when no zone map
    is available for it.  The reasoning mirrors the vectorized
    evaluator (:mod:`repro.expr.eval`) exactly:

    * ``AND`` prunes when any conjunct prunes; ``OR`` when all branches
      do;
    * ordered comparisons, equality, ``BETWEEN``, and ``IN`` prune when
      the morsel's value interval is disjoint from the predicate's —
      and an all-NaN morsel always prunes them, because NaN compares
      false under those operators;
    * ``NOT``, ``LIKE``, ``<>`` over all-NaN morsels, column-vs-column
      comparisons, and anything else never prune (numpy's ``~`` and
      ``!=`` are *true* for NaN rows, so guessing would be unsound).
    """
    if isinstance(predicate, And):
        return any(
            predicate_prunes_morsel(operand, bounds_of)
            for operand in predicate.operands
        )
    if isinstance(predicate, Or):
        return bool(predicate.operands) and all(
            predicate_prunes_morsel(operand, bounds_of)
            for operand in predicate.operands
        )
    if isinstance(predicate, Comparison):
        return _comparison_prunes(predicate, bounds_of)
    if isinstance(predicate, Between):
        if not isinstance(predicate.operand, ColumnRef):
            return False
        bounds = bounds_of(predicate.operand.alias, predicate.operand.column)
        if bounds is None:
            return False
        if bounds.all_null:
            return True
        low = _literal(predicate.low)
        high = _literal(predicate.high)
        if low is None or high is None:
            return False
        try:
            return bool(bounds.high < low) or bool(bounds.low > high)
        except TypeError:
            return False
    if isinstance(predicate, InList):
        if not isinstance(predicate.operand, ColumnRef):
            return False
        bounds = bounds_of(predicate.operand.alias, predicate.operand.column)
        if bounds is None:
            return False
        if bounds.all_null or not predicate.values:
            return True
        return all(
            _definitely_outside(bounds.low, bounds.high, value)
            for value in predicate.values
        )
    if isinstance(predicate, Not):
        # NOT flips false to true, and NaN rows satisfy e.g. NOT(x = 5);
        # never prune through a negation.
        return False
    return False


def _comparison_prunes(predicate: Comparison, bounds_of) -> bool:
    column, literal, flipped = _split_comparison(predicate)
    if column is None:
        return False
    bounds = bounds_of(column.alias, column.column)
    if bounds is None:
        return False
    op = predicate.op
    if flipped:
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
              "=": "=", "<>": "<>"}[op]
    if bounds.all_null:
        # NaN compares false under the ordered operators and equality,
        # but the evaluator's numpy ``!=`` yields *True* for NaN — an
        # all-NaN morsel satisfies <> everywhere and must never prune it.
        return op != "<>"
    value = literal.value
    try:
        if op == "=":
            return bool(value < bounds.low) or bool(value > bounds.high)
        if op == "<>":
            # All-false only when every row equals the literal.
            return bounds.is_constant and bool(bounds.low == value)
        if op == "<":
            return bool(bounds.low >= value)
        if op == "<=":
            return bool(bounds.low > value)
        if op == ">":
            return bool(bounds.high <= value)
        if op == ">=":
            return bool(bounds.high < value)
    except TypeError:
        return False
    return False


def predicate_accepts_morsel(predicate: Expression, bounds_of) -> bool:
    """True iff ``predicate`` is provably *true* for every morsel row.

    The dual of :func:`predicate_prunes_morsel`, powering the
    constant-morsel short-circuit: a morsel whose synopsis proves the
    predicate everywhere (the ``is_constant`` case is the archetype —
    one comparison against the constant answers for every row) is kept
    whole without evaluating a single row.  Same conservatism contract:
    anything the interval logic cannot decide answers "no", so
    accepting is always byte-identical to evaluating.

    NaN discipline mirrors the evaluator: a row holding NaN fails every
    ordered comparison, equality, ``BETWEEN``, and ``IN``, so those
    operators only accept morsels with ``null_count == 0``; numpy's
    ``!=`` is *true* for NaN, so ``<>`` tolerates (and an all-NaN
    morsel satisfies) it.  ``NOT p`` accepts exactly when ``p`` prunes
    — "provably false everywhere" negates to "provably true
    everywhere", NaN rows included (their ``p`` is false too).
    """
    if isinstance(predicate, And):
        return bool(predicate.operands) and all(
            predicate_accepts_morsel(operand, bounds_of)
            for operand in predicate.operands
        )
    if isinstance(predicate, Or):
        return any(
            predicate_accepts_morsel(operand, bounds_of)
            for operand in predicate.operands
        )
    if isinstance(predicate, Not):
        return predicate_prunes_morsel(predicate.operand, bounds_of)
    if isinstance(predicate, Comparison):
        return _comparison_accepts(predicate, bounds_of)
    if isinstance(predicate, Between):
        if not isinstance(predicate.operand, ColumnRef):
            return False
        bounds = bounds_of(predicate.operand.alias, predicate.operand.column)
        if bounds is None or bounds.all_null or bounds.null_count:
            return False
        low = _literal(predicate.low)
        high = _literal(predicate.high)
        if low is None or high is None:
            return False
        try:
            return bool(low <= bounds.low) and bool(bounds.high <= high)
        except TypeError:
            return False
    if isinstance(predicate, InList):
        if not isinstance(predicate.operand, ColumnRef):
            return False
        bounds = bounds_of(predicate.operand.alias, predicate.operand.column)
        if bounds is None or not bounds.is_constant:
            return False
        # A constant morsel passes IN iff its one value is listed;
        # non-constant intervals prove nothing about membership.
        try:
            return any(bool(bounds.low == value) for value in predicate.values)
        except TypeError:
            return False
    return False


def _comparison_accepts(predicate: Comparison, bounds_of) -> bool:
    column, literal, flipped = _split_comparison(predicate)
    if column is None:
        return False
    bounds = bounds_of(column.alias, column.column)
    if bounds is None:
        return False
    op = predicate.op
    if flipped:
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
              "=": "=", "<>": "<>"}[op]
    value = literal.value
    if bounds.all_null:
        # numpy's != is True for NaN rows; every other operator is
        # False there.
        return op == "<>"
    try:
        if op == "=":
            return bounds.is_constant and bool(bounds.low == value)
        if op == "<>":
            # NaN rows already satisfy <>; the ordered rows do iff the
            # whole interval misses the literal.
            return bool(value < bounds.low) or bool(value > bounds.high)
        if bounds.null_count:
            return False  # a NaN row fails every ordered comparison
        if op == "<":
            return bool(bounds.high < value)
        if op == "<=":
            return bool(bounds.high <= value)
        if op == ">":
            return bool(bounds.low > value)
        if op == ">=":
            return bool(bounds.low >= value)
    except TypeError:
        return False
    return False


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
        op = predicate.op
        if flipped:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                  "=": "=", "<>": "<>"}[op]
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


def predicate_prune_flags(
    predicate: Expression,
    alias: str,
    zone_of,
    num_morsels: int,
) -> list[bool]:
    """Per-morsel prune flags of ``predicate`` over one relation alias.

    ``zone_of(column)`` supplies the :class:`ColumnZoneMap` of one
    column (or ``None`` when unavailable) and is called lazily — at
    most once per column, and never for columns only referenced by
    constructs the interval logic cannot use (``NOT``, ``LIKE``).
    This is the one sweep both the executor's pruning sites and the
    estimator's skip-fraction peek share, so their notions of "provably
    empty" can never diverge.
    """
    zones: dict[str, ColumnZoneMap | None] = {}

    def zone(column: str) -> ColumnZoneMap | None:
        if column not in zones:
            zones[column] = zone_of(column)
        return zones[column]

    flags = []
    for index in range(num_morsels):
        def bounds_of(bounds_alias: str, column: str, index=index):
            if bounds_alias != alias:
                return None
            column_zone = zone(column)
            if column_zone is None:
                return None
            return column_zone.bounds(index)

        flags.append(predicate_prunes_morsel(predicate, bounds_of))
    return flags


def predicate_accept_flags(
    predicate: Expression,
    alias: str,
    zone_of,
    num_morsels: int,
) -> list[bool]:
    """Per-morsel accept flags of ``predicate`` over one relation alias.

    The accept-side counterpart of :func:`predicate_prune_flags` (same
    lazy per-column zone lookup); ``flags[i]`` True means every row of
    morsel ``i`` provably satisfies the predicate, so the scan can keep
    the morsel whole without evaluating it (the constant-morsel
    short-circuit).  A morsel can never be both pruned and accepted —
    the two sweeps decide "provably false everywhere" and "provably
    true everywhere" from the same bounds.
    """
    zones: dict[str, ColumnZoneMap | None] = {}

    def zone(column: str) -> ColumnZoneMap | None:
        if column not in zones:
            zones[column] = zone_of(column)
        return zones[column]

    flags = []
    for index in range(num_morsels):
        def bounds_of(bounds_alias: str, column: str, index=index):
            if bounds_alias != alias:
                return None
            column_zone = zone(column)
            if column_zone is None:
                return None
            return column_zone.bounds(index)

        flags.append(predicate_accepts_morsel(predicate, bounds_of))
    return flags


def scan_morsel_decisions(
    predicate: Expression,
    alias: str,
    zone_of,
    num_morsels: int,
) -> tuple[list[bool], list[bool]]:
    """One fused sweep: per-morsel ``(pruned, accepted)`` flags.

    The executor's scan site needs both directions; fusing them shares
    the per-morsel bounds closure and the lazy zone lookups, and the
    accept test is skipped outright for morsels already proven empty
    (prune is authoritative — the degenerate empty morsel trivially
    satisfies both definitions).
    """
    zones: dict[str, ColumnZoneMap | None] = {}

    def zone(column: str) -> ColumnZoneMap | None:
        if column not in zones:
            zones[column] = zone_of(column)
        return zones[column]

    decided = _vector_decisions(predicate, alias, zone)
    if decided is not None:
        return decided[0].tolist(), (decided[1] & ~decided[0]).tolist()
    pruned: list[bool] = []
    accepted: list[bool] = []
    for index in range(num_morsels):
        def bounds_of(bounds_alias: str, column: str, index=index):
            if bounds_alias != alias:
                return None
            column_zone = zone(column)
            if column_zone is None:
                return None
            return column_zone.bounds(index)

        is_pruned = predicate_prunes_morsel(predicate, bounds_of)
        pruned.append(is_pruned)
        accepted.append(
            not is_pruned and predicate_accepts_morsel(predicate, bounds_of)
        )
    return pruned, accepted


# Literal types whose comparison against a whole bounds array is exact:
# numpy compares an int64 array with a Python int, and a float64 array
# with a float or a float-representable int, as Python would one by one.
_EXACT_FLOAT_INT = 2**53


def _vector_comparable(value, dtype: np.dtype) -> bool:
    if type(value) in (int, bool):
        limit = 2**63 if dtype.kind == "i" else _EXACT_FLOAT_INT
        return -limit <= value < limit
    return type(value) is float and dtype.kind == "f"


def _vector_decisions(
    predicate: Expression, alias: str, zone
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(prunes, accepts)`` of every morsel at once, or ``None``.

    The per-morsel reasoning of :func:`predicate_prunes_morsel` /
    :func:`predicate_accepts_morsel` run as array comparisons over
    :meth:`ColumnZoneMap.bound_arrays`, so a scan whose layout lets
    nothing be decided learns that in a few ufunc calls instead of two
    tree walks per morsel.  Covers ``AND`` / ``OR`` over ordered
    comparisons, equality and ``BETWEEN`` of one numeric column against
    numeric literals; any other shape, synopsis or literal type answers
    ``None`` and the caller sweeps morsel by morsel.
    """
    if isinstance(predicate, (And, Or)):
        parts = [
            _vector_decisions(operand, alias, zone)
            for operand in predicate.operands
        ]
        if not parts or any(part is None for part in parts):
            return None
        any_of, all_of = np.logical_or.reduce, np.logical_and.reduce
        prunes, accepts = zip(*parts)
        if isinstance(predicate, And):
            return any_of(prunes), all_of(accepts)
        return all_of(prunes), any_of(accepts)
    if not isinstance(predicate, (Comparison, Between)):
        return None
    band = predicate_band(predicate, alias)
    if band is None:
        return None
    column, low, low_inclusive, high, high_inclusive = band
    column_zone = zone(column)
    arrays = None if column_zone is None else column_zone.bound_arrays()
    if arrays is None:
        return None
    lows, highs, null_free = arrays
    if any(
        bound is not None and not _vector_comparable(bound, lows.dtype)
        for bound in (low, high)
    ):
        return None
    prunes = np.zeros(len(lows), dtype=bool)
    accepts = null_free  # a NaN row fails every one of these operators
    if low is not None:
        prunes = prunes | (highs < low if low_inclusive else highs <= low)
        accepts = accepts & (lows >= low if low_inclusive else lows > low)
    if high is not None:
        prunes = prunes | (lows > high if high_inclusive else lows >= high)
        accepts = accepts & (highs <= high if high_inclusive else highs < high)
    return prunes, accepts


def filter_prune_flags(
    key_bounds: list[tuple | None] | None,
    column_zones: list["ColumnZoneMap"],
    num_morsels: int,
) -> list[bool]:
    """Per-morsel prune flags against a filter's (or join's) key bounds."""
    return [
        filter_prunes_morsel(
            key_bounds, [zone.bounds(index) for zone in column_zones]
        )
        for index in range(num_morsels)
    ]


def pruned_row_fraction(
    ranges, flags: list[bool], total_rows: int
) -> float:
    """Fraction of ``total_rows`` living in flagged (pruned) morsels."""
    if total_rows <= 0:
        return 0.0
    skipped = sum(
        stop - start
        for (start, stop), pruned in zip(ranges, flags)
        if pruned
    )
    return min(1.0, skipped / total_rows)


def filter_prunes_morsel(
    key_bounds: list[tuple | None] | None,
    morsel_bounds: list[MorselBounds | None],
) -> bool:
    """True iff no morsel row can pass a bitvector filter's key bounds.

    ``key_bounds[i]`` is the ``(min, max)`` of the filter's i-th
    inserted key column (``None`` when unavailable — float keys with
    NaN, or a filter kind that kept no bounds); ``morsel_bounds[i]`` is
    the probe column's synopsis over the morsel.  One provably disjoint
    key column is enough: the key *tuple* cannot match.

    Soundness relies on the bounds contract of
    :meth:`repro.filters.base.BitvectorFilter.key_bounds`: bounds are
    only reported for columns with no NaN build keys, so a NaN probe
    row — which falls outside every interval — can never match an
    inserted key anyway.
    """
    if key_bounds is None:
        return False
    for column_key_bounds, bounds in zip(key_bounds, morsel_bounds):
        if column_key_bounds is None or bounds is None:
            continue
        if bounds.all_null:
            # Every probe key in this morsel is NaN; the build side has
            # none (else its bounds would be None).
            return True
        low, high = column_key_bounds
        try:
            if bool(bounds.high < low) or bool(bounds.low > high):
                return True
        except TypeError:
            continue
    return False
