"""Runtime relation: a lazy, zero-copy batch of alias-qualified columns.

A :class:`Relation` is a *view*: base column arrays plus an int64
selection vector.  ``mask``/``gather``/``merged_with`` compose selection
indices — O(rows) int64 work regardless of column count — instead of
copying every column the way an eager engine would.  A column is
materialized (``base[selection]``) only when something actually reads
it: join-key encoding, predicate evaluation, aggregate input, or the
final output.  Materialized columns are cached per view, and the copy
cost is reported to :class:`~repro.engine.metrics.ExecutionMetrics`
(``rows_copied`` / ``bytes_gathered``) so benchmarks can prove that
filter applications no longer gather untouched columns.

Columns remember their *provenance* — the ``(table, column)`` they were
scanned from.  Because selections compose without rewriting base arrays,
provenance survives arbitrarily many filters and joins, which lets the
executor read join, group-by and filter-probe keys as stored dictionary
codes (:meth:`Relation.dictionary_codes`, backed by
:meth:`repro.storage.database.Database.dictionary`) instead of
re-factorizing or binary-searching raw values per query.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError


class _ColumnGroup:
    """A set of equally-selected columns sharing one selection vector.

    ``base`` maps ``(alias, column)`` to a base array; ``selection`` is
    ``None`` (identity: the view is the base rows themselves), a
    contiguous ``slice`` (one row band of the base, materializable as a
    numpy view without copying), or a sorted or gathered int64 index
    array into the base arrays.  All groups of
    one relation describe the same number of rows.
    """

    __slots__ = ("base", "sources", "selection")

    def __init__(
        self,
        base: dict[tuple[str, str], np.ndarray],
        sources: dict[tuple[str, str], tuple[str, str]],
        selection: np.ndarray | slice | None,
    ) -> None:
        self.base = base
        self.sources = sources
        self.selection = selection

    def compose(self, indices: np.ndarray) -> "_ColumnGroup":
        """Group viewing ``self`` restricted to ``indices`` (no copies
        of data columns — only the int64 selection is gathered)."""
        if self.selection is None:
            selection = indices
        elif isinstance(self.selection, slice):
            selection = indices + self.selection.start
        else:
            selection = self.selection[indices]
        return _ColumnGroup(self.base, self.sources, selection)

    def compose_range(self, start: int, stop: int) -> "_ColumnGroup":
        """Group viewing rows ``[start, stop)`` of ``self``.  Never
        copies: identity and slice selections stay slices, index-array
        selections are sliced (numpy views)."""
        if self.selection is None:
            selection: np.ndarray | slice = slice(start, stop)
        elif isinstance(self.selection, slice):
            offset = self.selection.start
            selection = slice(offset + start, offset + stop)
        else:
            selection = self.selection[start:stop]
        return _ColumnGroup(self.base, self.sources, selection)


class Relation:
    """Columns keyed by ``(alias, column)``, all of equal length.

    The intermediate data structure flowing between operators.  Gather
    operations produce new relation *views*; the originals — and the
    base arrays — stay untouched.
    """

    def __init__(
        self,
        columns: dict[tuple[str, str], np.ndarray],
        num_rows: int,
        sources: dict[tuple[str, str], tuple[str, str]] | None = None,
        counters=None,
    ) -> None:
        self._groups = (
            [_ColumnGroup(dict(columns), dict(sources or {}), None)]
            if columns
            else []
        )
        self.num_rows = num_rows
        self._counters = counters
        self._materialized: dict[tuple[str, str], np.ndarray] = {}

    @classmethod
    def _from_groups(cls, groups: list[_ColumnGroup], num_rows: int,
                     counters) -> "Relation":
        relation = cls({}, num_rows, counters=counters)
        relation._groups = groups
        return relation

    @classmethod
    def empty(cls) -> "Relation":
        return cls({}, 0)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------

    def column_keys(self) -> list[tuple[str, str]]:
        return sorted(key for group in self._groups for key in group.base)

    def aliases(self) -> set[str]:
        return {alias for group in self._groups for alias, _ in group.base}

    def column(self, alias: str, name: str) -> np.ndarray:
        """The column's values at this view, materializing lazily.

        Identity views return the base array itself (zero copies);
        selected views gather once and cache the result, reporting the
        copy to the execution counters.
        """
        key = (alias, name)
        cached = self._materialized.get(key)
        if cached is not None:
            return cached
        group = self._group_of(key)
        if group.selection is None or isinstance(group.selection, slice):
            # Identity and contiguous-range views are numpy views of the
            # base array: zero copies, nothing to count.
            values = group.base[key][group.selection or slice(None)]
        else:
            values = group.base[key][group.selection]
            if self._counters is not None:
                self._counters.count_copy(len(values), values.nbytes)
        self._materialized[key] = values
        return values

    def column_head(self, alias: str, name: str, count: int) -> np.ndarray:
        """First ``count`` rows of a column without materializing it all.

        Used by sampling consumers (adaptive filter ordering); returns a
        cached full column when one already exists.
        """
        key = (alias, name)
        cached = self._materialized.get(key)
        if cached is not None:
            return cached[:count]
        group = self._group_of(key)
        if group.selection is None:
            return group.base[key][:count]
        if isinstance(group.selection, slice):
            start = group.selection.start
            stop = min(group.selection.stop, start + count)
            return group.base[key][start:stop]
        return group.base[key][group.selection[:count]]

    def is_whole_table(self) -> bool:
        """Whether every column of this view is its whole stored array,
        in row order: one column group with the identity selection —
        what a base-table scan is before anything narrows it.  Row ``i``
        of the view is then row ``i`` of every per-row array stored for
        its columns, dictionary codes included."""
        return len(self._groups) == 1 and self._groups[0].selection is None

    def provider(self, alias: str, name: str) -> np.ndarray:
        """Column provider signature for the expression evaluator."""
        return self.column(alias, name)

    def base_source(
        self, alias: str, name: str
    ) -> tuple[str, str, np.ndarray | slice | None] | None:
        """Provenance of a column: ``(table, column, selection)``.

        ``selection is None`` means the view is the whole base column; a
        ``slice`` means one contiguous row range of it.
        Returns ``None`` for columns without table provenance.
        """
        key = (alias, name)
        group = self._group_of(key)
        source = group.sources.get(key)
        if source is None:
            return None
        return (source[0], source[1], group.selection)

    def dictionary_codes(self, database, alias: str, name: str):
        """A column at this view as stored dictionary codes, or ``None``.

        Returns ``(dictionary, codes)``: the column's table-resident
        :class:`~repro.util.keycodes.ColumnDictionary` and the int64
        code of every row of the view (``dictionary.values[codes]``
        equals :meth:`column`) — one gather of the stored per-row
        codes, zero-copy for identity and slice views, with no
        value column materialized.  The one provenance -> codes step
        shared by the hash join, group-by and exact-filter probes.

        ``None`` when the column has no table provenance (derived
        columns, relations built from bare arrays) or is float/complex:
        ordered dictionaries cannot equate NaN with NaN the way
        ``np.unique`` factorization does, so those keys stay on the
        value paths.
        """
        dictionary = self.column_dictionary(database, alias, name)
        if dictionary is None:
            return None
        return dictionary, self.stored_codes(dictionary, alias, name)

    def stored_codes(self, dictionary, alias: str, name: str) -> np.ndarray:
        """This view's rows of ``dictionary.codes`` — ``dictionary``
        being the one :meth:`column_dictionary` returned for the column."""
        selection = self.base_source(alias, name)[2]
        codes = dictionary.codes
        if selection is not None:
            codes = codes[selection]
        return codes

    def column_dictionary(
        self, database, alias: str, name: str, text_only: bool = False
    ):
        """The dictionary :meth:`dictionary_codes` would read a column
        through, or ``None`` on its terms — answered from provenance
        alone: no row is gathered.

        ``text_only`` also declines numeric columns: what a predicate
        asks, since one vectorized compare over their rows already
        beats a dictionary, while every per-row operation on a stored
        string is a Python-object operation."""
        key = (alias, name)
        source = self._group_of(key).sources.get(key)
        if source is None:
            return None
        table_name, column_name = source[0], source[1]
        kind = database.table(table_name).column(column_name).dtype.kind
        if kind in "fc" or (text_only and kind not in "OU"):
            return None
        return database.dictionary(table_name, column_name)

    def _group_of(self, key: tuple[str, str]) -> _ColumnGroup:
        for group in self._groups:
            if key in group.base:
                return group
        raise ExecutionError(
            f"column {key[0]}.{key[1]} not present in relation "
            f"(have {self.column_keys()})"
        )

    # ------------------------------------------------------------------
    # Row-set composition (zero-copy)
    # ------------------------------------------------------------------

    def gather(self, indices: np.ndarray) -> "Relation":
        indices = np.asarray(indices, dtype=np.int64)
        groups = [group.compose(indices) for group in self._groups]
        return Relation._from_groups(groups, int(len(indices)), self._counters)

    def mask(self, mask: np.ndarray) -> "Relation":
        """Row filter by bool mask.

        One ``flatnonzero`` per relation: identity and slice views share
        it (rebased by the slice offset); index-array views compose
        through it.  Only the int64 selections are built — no data
        column is copied.
        """
        mask = np.asarray(mask)
        counters = self._counters
        flat: np.ndarray | None = None
        groups = []
        for group in self._groups:
            current = group.selection
            if current is None or isinstance(current, slice):
                offset = 0 if current is None else current.start
                if flat is None:
                    flat = np.flatnonzero(mask)
                    if counters is not None:
                        counters.count_selection(flat.nbytes)
                selection = flat + offset if offset else flat
            else:
                if flat is None:
                    flat = np.flatnonzero(mask)
                selection = current[flat]
                if counters is not None:
                    counters.count_selection(selection.nbytes)
            groups.append(_ColumnGroup(group.base, group.sources, selection))
        if flat is not None:
            num_rows = len(flat)
        else:
            num_rows = int(np.count_nonzero(mask))
        return Relation._from_groups(groups, int(num_rows), counters)

    def select_sorted(self, positions: np.ndarray) -> "Relation":
        """Row filter by already-sorted view-local positions.

        The executor's morsel-parallel filter probe concatenates
        per-morsel ``flatnonzero`` offsets — sorted by construction —
        so the vector in hand is the selection :meth:`mask` would have
        built, and parallel and serial executions hold identical
        selection state.
        """
        positions = np.asarray(positions, dtype=np.int64)
        counters = self._counters
        counted = False
        groups = []
        for group in self._groups:
            current = group.selection
            if current is None or isinstance(current, slice):
                if counters is not None and not counted:
                    counters.count_selection(positions.nbytes)
                    counted = True
                if current is None:
                    selection = positions
                else:
                    selection = positions + current.start
            else:
                selection = current[positions]
                if counters is not None:
                    counters.count_selection(selection.nbytes)
            groups.append(_ColumnGroup(group.base, group.sources, selection))
        return Relation._from_groups(groups, int(len(positions)), counters)

    def narrow(self, start: int, stop: int) -> "Relation":
        """Contiguous row band ``[start, stop)`` of this view.

        Identity and slice selections stay slices — columns materialize
        as numpy views, zero-copy, which is what a sorted-column band
        search narrows a scan to; index-array selections are sliced.
        """
        groups = [group.compose_range(start, stop) for group in self._groups]
        return Relation._from_groups(groups, stop - start, self._counters)

    def merged_with(
        self,
        other: "Relation",
        self_idx: np.ndarray | None,
        other_idx: np.ndarray | None,
        live: frozenset[str] | None = None,
    ) -> "Relation":
        """Join-style merge: view self through ``self_idx`` and other
        through ``other_idx``, concatenating the column sets.

        An index of ``None`` is the identity — every row of that side,
        in order — and that side's column groups are carried as they
        are instead of being composed with an ``arange``.  ``live`` names
        the aliases something downstream still reads: a group with none
        of them is not carried at all (``None`` keeps every group).
        """
        mine = set(key for group in self._groups for key in group.base)
        for group in other._groups:
            for key in group.base:
                if key in mine:
                    raise ExecutionError(f"duplicate column {key} in join")
        groups = []
        for relation, idx in ((self, self_idx), (other, other_idx)):
            if idx is not None:
                idx = np.asarray(idx, dtype=np.int64)
            for group in relation._groups:
                if live is not None and live.isdisjoint(
                    alias for alias, _ in group.base
                ):
                    continue
                groups.append(group if idx is None else group.compose(idx))
        num_rows = self.num_rows if self_idx is None else len(self_idx)
        return Relation._from_groups(
            groups, int(num_rows), self._counters or other._counters
        )

    @property
    def columns(self) -> dict[tuple[str, str], np.ndarray]:
        """Materialize every column (final output, tests, debugging)."""
        return {key: self.column(*key) for key in self.column_keys()}

    def __repr__(self) -> str:
        return (
            f"Relation(rows={self.num_rows}, "
            f"columns={self.column_keys()})"
        )
