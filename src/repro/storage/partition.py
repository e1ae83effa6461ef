"""Horizontal partitioning: row-range morsels over stored tables.

A *morsel* is a contiguous row range of one table — the scheduling unit
of the parallel executor (Leis et al., "Morsel-Driven Parallelism",
SIGMOD 2014).  Partitioning is purely logical: no data moves, a morsel
is just ``[start, stop)`` over the table's immutable column arrays, so
every derived artifact (dictionary codes, selection vectors, zone-map
style statistics) is shared by slicing rather than rebuilt per
partition.

:func:`morsel_ranges` is the one splitting policy, shared by
:meth:`repro.storage.table.Table.morsels` (base-table scans) and the
executor's intermediate-relation splits, so tuning the morsel shape
happens in one place.
"""

from __future__ import annotations

import dataclasses

# Target rows per morsel when the caller does not override it.  Large
# enough that per-morsel Python dispatch is noise next to the numpy
# kernels run on the range, small enough that a fact table splits into
# useful parallel work.
DEFAULT_MORSEL_ROWS = 65536

# Never split below this many rows per morsel: tiny morsels pay more in
# scheduling than their kernels cost.
MIN_MORSEL_ROWS = 1024

# Below this row count a parallel region is processed serially even at
# parallelism > 1: per-morsel dispatch would cost more than the numpy
# kernels it splits.  The executor enforces it.
MIN_PARALLEL_ROWS = 8192


def morsel_ranges(
    num_rows: int,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    min_morsels: int = 1,
) -> list[tuple[int, int]]:
    """Split ``[0, num_rows)`` into contiguous, balanced row ranges.

    Precedence of the three sizing inputs, strongest first:

    1. ``num_rows`` — there are never more ranges than rows (each range
       holds at least one row), and an empty input yields no ranges;
    2. ``min_morsels`` — an explicit demand for parallelism (one morsel
       per worker) is honored even when the :data:`MIN_MORSEL_ROWS`
       floor would prefer fewer, larger morsels: the caller knows it
       has workers to feed, and under-splitting would idle them;
    3. ``morsel_rows`` — the target size; the split it implies is
       clamped so no range drops below :data:`MIN_MORSEL_ROWS` (tiny
       morsels pay more in scheduling than their kernels cost).

    Ranges are balanced to within one row so no worker inherits a
    remainder-sized straggler.

    >>> morsel_ranges(10_000, morsel_rows=4096)
    [(0, 3334), (3334, 6667), (6667, 10000)]
    >>> morsel_ranges(10, morsel_rows=4)  # too small to split
    [(0, 10)]
    >>> morsel_ranges(4096, morsel_rows=16)  # floor caps the target split
    [(0, 1024), (1024, 2048), (2048, 3072), (3072, 4096)]
    >>> morsel_ranges(4096, morsel_rows=4096, min_morsels=8)  # workers win
    [(0, 512), (512, 1024), (1024, 1536), (1536, 2048), (2048, 2560), (2560, 3072), (3072, 3584), (3584, 4096)]
    >>> morsel_ranges(3, morsel_rows=4096, min_morsels=8)  # never > num_rows
    [(0, 1), (1, 2), (2, 3)]
    >>> morsel_ranges(0)
    []
    """
    if num_rows <= 0:
        return []
    morsel_rows = max(int(morsel_rows), 1)
    count = -(-num_rows // morsel_rows)  # ceil division
    count = min(count, max(num_rows // MIN_MORSEL_ROWS, 1))
    if min_morsels > count:
        # The explicit worker demand overrides the size floor (but can
        # never exceed one row per range).
        count = min(min_morsels, num_rows)
    base, extra = divmod(num_rows, count)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclasses.dataclass(frozen=True)
class Morsel:
    """One contiguous row range of a named table."""

    table_name: str
    index: int
    start: int
    stop: int

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:
        return (
            f"Morsel({self.table_name!r}[{self.index}], "
            f"rows {self.start}:{self.stop})"
        )


def partition_table(
    table_name: str,
    num_rows: int,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    min_morsels: int = 1,
) -> tuple[Morsel, ...]:
    """Morsels covering a table of ``num_rows`` rows."""
    return tuple(
        Morsel(table_name, index, start, stop)
        for index, (start, stop) in enumerate(
            morsel_ranges(num_rows, morsel_rows, min_morsels)
        )
    )

