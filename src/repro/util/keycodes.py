"""Exact joint encoding of multi-column keys into dense integer codes.

The execution engine and the exact bitvector filter both need to compare
(multi-)column key tuples across two relations *without false positives*.
Hashing alone cannot guarantee that, so we factorize the values of both
sides jointly: every distinct value of each column gets a dense code
(the code :func:`numpy.unique` would give it), and the per-column codes
are combined with a mixed-radix encoding.  Two rows receive the same
combined code if and only if their key tuples are equal.

Joint factorization is exact but pays a presence-table scatter or an
``O(n log n)`` sort per call.
The :class:`ColumnDictionary` fast path amortizes that cost: a stored
column is factorized *once* (sorted distinct values + a dense code per
row), and later probes encode through the dictionary with
``searchsorted`` — ``O(m log u)`` for ``m`` probe values over ``u``
distinct build values, with no re-factorization.  The executor keeps one
dictionary per ``(table, column)`` in :class:`repro.storage.database.
Database`; :class:`repro.filters.exact.ExactFilter` holds those, and
builds one of its own per key column only for keys without a stored
column behind them.

Stored codes are also the engine's key representation *between*
operators: joins, group-bys and exact-filter probes gather
``dictionary.codes[selection]`` (see
:meth:`repro.engine.relation.Relation.dictionary_codes`) and combine /
translate codes (:func:`combine_codes`, :func:`split_codes`,
:meth:`ColumnDictionary.translate_to`) without touching raw values, and
predicates over a stored text column are answered per distinct value
(:meth:`ColumnDictionary.truth_table`) and gathered through the codes.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.util.lru import LruCache

# Mixed-radix combinations stay below 2**62 so intermediate products
# cannot wrap int64; past that the callers re-densify (or bail out).
_RADIX_LIMIT = 2**62

# Module-wide count of factorizations (``_unique_inverse`` calls) run by
# this module.  Tests use it to prove that dictionary-backed probe paths do
# no re-factorization at probe time.
_factorizations = 0


def factorization_count() -> int:
    """Number of factorizations run since import."""
    return _factorizations


# Distinct values and factorizations, equal to ``np.unique``'s, by three
# routes.  Integer and bool columns over a compact span scatter into a
# presence table: no sort and no hash.  Object (text) columns hash: a
# sort would compare every row in Python, while only the distinct values
# need ordering.  Everything else sorts.  ``np.unique`` without
# ``return_inverse`` hashes integers on NumPy >= 2.3: on NumPy 2.4.6 it
# counted a 450k-row int64 column of 150k values in 147 ms, the presence
# table in 2 ms; over a 2**40 span it took 337 ms, the sort 5 ms.


def _presence_offsets(values: np.ndarray) -> tuple[np.ndarray, int, int] | None:
    """``(values - lo, lo, span)`` of an integer or bool column whose
    span passes :func:`dense_table_worthwhile`, or None (sort or hash)."""
    if values.dtype.kind not in "iub" or not len(values):
        return None
    lo, hi = int(values.min()), int(values.max())
    span = hi - lo + 1
    if not dense_table_worthwhile(span, len(values)):
        return None
    if values.dtype.kind == "u":
        # Unsigned: v - lo is in [0, span) in the column's own dtype,
        # also above the int64 range.
        return values - values.dtype.type(lo), lo, span
    return values.astype(np.int64) - lo, lo, span


def _presence(offsets: np.ndarray, span: int) -> np.ndarray:
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    return present


def _present_values(present: np.ndarray, lo: int, dtype: np.dtype) -> np.ndarray:
    """The sorted values a presence table holds, in the column's dtype."""
    slots = np.flatnonzero(present)
    if dtype.kind == "u":
        return slots.astype(dtype) + dtype.type(lo)
    return (slots + lo).astype(dtype)


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the positions of sorted numeric ``ordered`` that start a
    new value, as ``np.unique`` tells values apart: ``-0.0 == 0.0`` by
    comparison, and every NaN (sorted last) is one value."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    if ordered.dtype.kind == "f" and len(ordered) and np.isnan(ordered[-1]):
        starts[np.searchsorted(ordered, ordered[-1], side="left") + 1:] = False
    return starts


def _sorted_objects(items: list) -> np.ndarray:
    """The sorted distinct Python objects of ``items``, as an object array."""
    ordered = sorted(set(items))
    uniques = np.empty(len(ordered), dtype=object)
    uniques[:] = ordered
    return uniques


def unique_values(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``: the sorted distinct values."""
    if values.dtype.kind == "O":
        return _sorted_objects(values.tolist())
    presence = _presence_offsets(values)
    if presence is not None:
        offsets, lo, span = presence
        return _present_values(_presence(offsets, span), lo, values.dtype)
    ordered = np.sort(values)
    return ordered[run_starts(ordered)]


def count_distinct(values: np.ndarray) -> int:
    """``len(np.unique(values))``, by the route :func:`unique_values`
    takes, without materializing the values."""
    if values.dtype.kind == "O":
        return len(set(values.tolist()))
    presence = _presence_offsets(values)
    if presence is not None:
        offsets, _, span = presence
        return int(np.count_nonzero(_presence(offsets, span)))
    return int(np.count_nonzero(run_starts(np.sort(values))))


def _unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counted ``np.unique(..., return_inverse=True)``, codes as int64.

    Object columns hash and compact integer spans take the presence
    table (see :func:`unique_values`); both give ``np.unique``'s values
    and codes.
    """
    global _factorizations
    _factorizations += 1
    if values.dtype.kind == "O":
        items = values.tolist()
        uniques = _sorted_objects(items)
        rank = dict(zip(uniques.tolist(), range(len(uniques))))
        inverse = np.fromiter(
            map(rank.__getitem__, items), dtype=np.int64, count=len(items)
        )
        return uniques, inverse
    presence = _presence_offsets(values)
    if presence is not None:
        offsets, lo, span = presence
        present = _presence(offsets, span)
        codes = (np.cumsum(present) - 1)[offsets]
        return _present_values(present, lo, values.dtype), codes
    uniques, inverse = np.unique(values, return_inverse=True)
    return uniques, inverse.astype(np.int64, copy=False)


def _factorize_pair(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Return dense codes for ``left`` and ``right`` over a shared domain.

    The two arrays may be of different lengths but must have compatible
    dtypes (both numeric or both strings).
    """
    if left.dtype.kind in ("i", "u") and right.dtype.kind in ("i", "u"):
        left = left.astype(np.int64, copy=False)
        right = right.astype(np.int64, copy=False)
    merged = np.concatenate([left, right])
    uniques, inverse = _unique_inverse(merged)
    codes_left = inverse[: len(left)]
    codes_right = inverse[len(left):]
    return codes_left, codes_right, len(uniques)


def joint_codes(
    left_columns: list[np.ndarray], right_columns: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode multi-column keys of two relations into comparable codes.

    Parameters
    ----------
    left_columns, right_columns:
        Parallel lists of key columns; ``left_columns[i]`` joins against
        ``right_columns[i]``.  All columns on one side must share a
        length.

    Returns
    -------
    ``(left_codes, right_codes)`` — int64 arrays where equal codes mean
    equal key tuples.  The encoding is exact (no collisions).
    """
    return joint_codes_and_domain(left_columns, right_columns)[:2]


def joint_codes_and_domain(
    left_columns: list[np.ndarray], right_columns: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`joint_codes` plus the size of the domain the codes live in
    (every code is in ``[0, domain)``) — what direct-addressing
    consumers size their tables by."""
    if len(left_columns) != len(right_columns):
        raise ValueError(
            "key column count mismatch: "
            f"{len(left_columns)} vs {len(right_columns)}"
        )
    if not left_columns:
        raise ValueError("joint_codes requires at least one key column")

    codes_l, codes_r, radix = _factorize_pair(left_columns[0], right_columns[0])
    combined_l = codes_l.astype(np.int64)
    combined_r = codes_r.astype(np.int64)
    for col_l, col_r in zip(left_columns[1:], right_columns[1:]):
        codes_l, codes_r, next_radix = _factorize_pair(col_l, col_r)
        if radix and next_radix and radix > _RADIX_LIMIT // max(next_radix, 1):
            # Mixed-radix overflow is practically unreachable at our data
            # sizes, but fall back to re-factorizing the combined codes
            # rather than silently wrapping.
            combined_l, combined_r, radix = _factorize_pair(combined_l, combined_r)
        combined_l = combined_l * next_radix + codes_l
        combined_r = combined_r * next_radix + codes_r
        radix = radix * next_radix
    return combined_l, combined_r, radix


def single_table_codes(columns: list[np.ndarray]) -> np.ndarray:
    """Exact dense codes for a multi-column key within one relation.

    Useful for duplicate detection and grouping.  Codes are only
    comparable within the single call.
    """
    if not columns:
        raise ValueError("single_table_codes requires at least one key column")
    uniques, combined = _unique_inverse(columns[0])
    radix = len(uniques)
    for column in columns[1:]:
        uniques, inverse = _unique_inverse(column)
        next_radix = len(uniques)
        if radix and next_radix and radix > _RADIX_LIMIT // max(next_radix, 1):
            # Same guard as joint_codes: wide group-by keys over large
            # domains could silently wrap int64; re-densify the prefix
            # codes instead.
            uniques, combined = _unique_inverse(combined)
            radix = len(uniques)
        combined = combined * next_radix + inverse
        radix = radix * next_radix
    return combined


# ----------------------------------------------------------------------
# Dictionary fast paths
# ----------------------------------------------------------------------


_INT64_MAX = np.iinfo(np.int64).max


def _beyond_int64(values: np.ndarray) -> np.ndarray | None:
    """Mask of entries an int64 cast would wrap negative, or ``None``.

    Only uint64 can hold such values.  A wrapped probe would compare
    equal to a genuinely negative key, so callers force these entries
    to "absent" instead of trusting the cast.
    """
    if values.dtype.kind != "u" or values.dtype.itemsize < 8:
        return None
    beyond = values > _INT64_MAX
    return beyond if beyond.any() else None


def encode_into_domain(values: np.ndarray, domain: np.ndarray) -> np.ndarray:
    """Dense codes of ``values`` within a *sorted* distinct ``domain``.

    Values absent from the domain get code ``-1``.  Pure binary search:
    no factorization of ``values`` is performed.
    """
    beyond = None
    if (
        values.dtype.kind in ("i", "u")
        and domain.dtype.kind in ("i", "u")
        and values.dtype != domain.dtype
    ):
        # Mixed integer widths compare in int64.  uint64 entries past
        # int64 cannot equal anything on the other (narrower or signed)
        # side: probes among them are absent, and domain entries among
        # them — a sorted suffix — are dropped without moving any code.
        beyond = _beyond_int64(values)
        if _beyond_int64(domain) is not None:
            domain = domain[
                : np.searchsorted(domain, np.uint64(_INT64_MAX), side="right")
            ]
        values = values.astype(np.int64, copy=False)
        domain = domain.astype(np.int64, copy=False)
    if len(domain) == 0:
        return np.full(len(values), -1, dtype=np.int64)
    positions = np.searchsorted(domain, values)
    positions[positions == len(domain)] = 0
    matched = domain[positions] == values
    if beyond is not None:
        matched &= ~beyond
    return np.where(matched, positions, -1).astype(np.int64, copy=False)


# A dense value->code table is only worth its memory when the integer
# domain is reasonably compact; beyond this span we binary-search.
_TABLE_SPAN_CAP = 1 << 22


def dense_table_worthwhile(span: int, count: int, cap: int = _TABLE_SPAN_CAP) -> bool:
    """Shared cost model for dense lookup structures over a code domain.

    A table of ``span`` slots serving ``count`` distinct entries pays
    off when it is not wildly sparser than its content (4x, floored at
    1024 slots so tiny domains always qualify) and stays under the
    memory ``cap``.  Used by the dictionary lookup table here and the
    executor's code-space group-by, so tuning happens in one place.
    (The join's match table is sized by the rows it serves, build plus
    probe, not by its content — see ``_BuildMatcher``.)
    """
    return span <= max(4 * count, 1024) and span <= cap


# Sentinel stored for a translation between equal domains: nothing to
# retain and no gather.
_IDENTITY = object()

# Predicate truth tables kept per dictionary (see ``truth_table``).
_TRUTH_TABLE_BOUND = 64


class ColumnDictionary:
    """Cached factorization of one stored column.

    ``values`` holds the sorted distinct values; ``codes`` holds the
    dense int64 code of every base row (``values[codes] == column``).
    Built once per column, then reused by every join, filter probe, and
    group-by that touches the column.  Because ``values`` is sorted,
    code order *is* value order — grouping or comparing by code yields
    the same order as grouping or comparing by value.

    Anything that is a function of the dictionary alone is computed
    once per dictionary *object* and dies with it, so a rebuilt
    dictionary (a new object) can never hit an entry derived from the
    old one: predicate truth tables (:meth:`truth_table`, a bounded LRU
    held here) and code translations into another dictionary
    (:meth:`translate_to`, held here weakly per target).  Instances are
    weak-referenceable so that holders of their own per-dictionary
    tables (the exact filter's member tables) can key them the same way.

    For compact integer domains a dense value->code lookup table is
    built lazily, turning :meth:`encode` into one O(1)-per-element
    gather (``np.searchsorted`` pays per-element binary-search dispatch
    that is nearly an order of magnitude slower at probe sizes).
    """

    __slots__ = (
        "values", "codes", "_table", "_table_base",
        "_translations", "_truth_tables", "__weakref__",
    )

    def __init__(self, values: np.ndarray, codes: np.ndarray) -> None:
        self.values = values
        self.codes = codes
        self._table: np.ndarray | None | bool = None  # False = not viable
        self._table_base = 0
        # target dictionary -> mapping array, or _IDENTITY.
        self._translations = weakref.WeakKeyDictionary()
        self._truth_tables = LruCache(_TRUTH_TABLE_BOUND)

    @classmethod
    def build(cls, column: np.ndarray) -> "ColumnDictionary":
        values, codes = _unique_inverse(column)
        return cls(values, codes)

    @property
    def num_values(self) -> int:
        return len(self.values)

    def _lookup_table(self) -> np.ndarray | None:
        """Dense value->code table for compact integer domains."""
        table = self._table
        if table is False:
            return None
        if table is not None:
            return table
        if len(self.values) == 0 or self.values.dtype.kind not in "iu":
            self._table = False
            return None
        base = int(self.values[0])
        if not (
            np.iinfo(np.int64).min <= base
            and int(self.values[-1]) <= np.iinfo(np.int64).max
        ):
            # uint64 domains beyond int64: the offset arithmetic below
            # would overflow; binary search handles them instead.
            self._table = False
            return None
        span = int(self.values[-1]) - base + 1
        if not dense_table_worthwhile(span, len(self.values)):
            self._table = False
            return None
        built = np.full(span, -1, dtype=np.int64)
        built[self.values.astype(np.int64) - base] = np.arange(
            len(self.values), dtype=np.int64
        )
        # Benign race: concurrent builders produce identical tables.
        self._table_base = base
        self._table = built
        return built

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Codes of arbitrary ``values`` in this dictionary (-1 absent)."""
        if values.dtype.kind in "iu":
            table = self._lookup_table()
            if table is not None:
                offsets = values.astype(np.int64, copy=False) - self._table_base
                in_range = (offsets >= 0) & (offsets < len(table))
                beyond = _beyond_int64(values)
                if beyond is not None:
                    in_range &= ~beyond
                return np.where(
                    in_range, table[np.where(in_range, offsets, 0)], -1
                )
        return encode_into_domain(values, self.values)

    def translate_to(self, other: "ColumnDictionary") -> np.ndarray | None:
        """Per-code mapping from this dictionary into ``other``.

        ``mapping[self_code]`` is the corresponding code in ``other``,
        or -1 when the value does not occur there; ``None`` when the
        two hold the same sorted domain, so codes are already
        ``other``'s and the caller skips the gather.  Cost is
        ``O(u log u')`` over the two distinct-value counts, paid once
        per pair of dictionary objects: the result is kept, read-only
        and as int32 (half the bytes to hold and to gather through; a
        dictionary of 2**31 values would not fit in memory), for as
        long as both are alive.  (Racing first callers compute the same
        mapping twice, which is benign.)
        """
        if other is self:
            return None
        mapping = self._translations.get(other)
        if mapping is None:
            mapping = other.encode(self.values)
            if len(mapping) == other.num_values and np.array_equal(
                mapping, np.arange(len(mapping))
            ):
                mapping = _IDENTITY
            else:
                mapping = mapping.astype(np.int32)
                mapping.setflags(write=False)
            self._translations[other] = mapping
        return None if mapping is _IDENTITY else mapping

    def translate_codes(
        self, other: "ColumnDictionary", codes: np.ndarray
    ) -> np.ndarray:
        """Rows given as codes in this dictionary, as int64 codes in
        ``other`` (-1 where the value does not occur there); ``codes``
        itself when the domains are equal.  The widening is explicit
        because an int32 array used as an index downstream is cast on
        a slower path than this ``astype``."""
        mapping = self.translate_to(other)
        if mapping is None:
            return codes
        return mapping[codes].astype(np.int64)

    def truth_table(self, key: object, evaluate) -> tuple[np.ndarray, bool]:
        """The bool table ``evaluate(self.values)`` memoized under ``key``.

        ``table[code]`` answers a predicate for every row holding that
        code; ``key`` identifies the predicate (constants included).
        Returns ``(table, built)``: ``built`` is False on a memo hit.
        At most ``_TRUTH_TABLE_BOUND`` tables are kept per dictionary,
        least recently used first out.  Threads racing the first
        evaluation each compute the (same) table.
        """
        table = self._truth_tables.get(key)
        if table is not None:
            return table, False
        table = np.asarray(evaluate(self.values), dtype=bool)
        table.setflags(write=False)
        self._truth_tables.put(key, table)
        return table, True

    def __repr__(self) -> str:
        return f"ColumnDictionary(values={self.num_values}, rows={len(self.codes)})"


def combine_codes(
    code_columns: list[np.ndarray], radices: list[int]
) -> np.ndarray | None:
    """Mixed-radix combination of per-column dictionary codes.

    ``code_columns[i]`` holds codes in ``[0, radices[i])`` with ``-1``
    marking values absent from the corresponding domain; any ``-1``
    poisons the whole row to a combined code of ``-1`` (which never
    matches a valid combined code, all of which are >= 0).

    Returns ``None`` when the radix product could overflow — callers
    fall back to :func:`joint_codes`.
    """
    if len(code_columns) != len(radices):
        raise ValueError("code column / radix count mismatch")
    if not code_columns:
        raise ValueError("combine_codes requires at least one code column")
    if len(code_columns) == 1:
        # Single-column keys already satisfy the contract (-1 = absent);
        # callers must not mutate the returned array.
        return code_columns[0]
    if not radices_fit(radices):
        return None
    combined = np.zeros(len(code_columns[0]), dtype=np.int64)
    invalid = np.zeros(len(code_columns[0]), dtype=bool)
    for codes, radix in zip(code_columns, radices):
        invalid |= codes < 0
        combined = combined * max(int(radix), 1) + np.maximum(codes, 0)
    combined[invalid] = -1
    return combined


def radices_fit(radices: list[int]) -> bool:
    """Whether :func:`combine_codes` can combine codes of these radices
    (the product stays clear of int64 overflow; one column needs no
    combining) — decidable before any code column is gathered."""
    if len(radices) == 1:
        return True
    total = 1
    for radix in radices:
        step = max(int(radix), 1)
        if total > _RADIX_LIMIT // step:
            return False
        total *= step
    return True


def code_domain(radices: list[int]) -> int:
    """Size of the combined code domain :func:`combine_codes` maps into
    (every combined code is ``< code_domain(radices)``)."""
    domain = 1
    for radix in radices:
        domain *= max(int(radix), 1)
    return domain


def split_codes(combined: np.ndarray, radices: list[int]) -> list[np.ndarray]:
    """Per-column codes of non-negative combined codes (inverse of
    :func:`combine_codes`; last column fastest-varying)."""
    columns: list[np.ndarray] = [None] * len(radices)  # type: ignore[list-item]
    for index in range(len(radices) - 1, -1, -1):
        radix = max(int(radices[index]), 1)
        columns[index] = combined % radix
        combined = combined // radix
    return columns
