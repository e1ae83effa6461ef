"""Columnar table: named numpy arrays of equal length."""

from __future__ import annotations

import numpy as np

from repro.errors import DataError, SchemaError
from repro.storage.partition import DEFAULT_MORSEL_ROWS, Morsel, partition_table
from repro.storage.schema import ColumnDef, TableSchema
from repro.storage.types import ColumnType, coerce_to_type, infer_column_type
from repro.util.keycodes import count_distinct, single_table_codes


class Table:
    """An immutable in-memory columnar table.

    Columns are numpy arrays; all columns share the same length.  The
    table knows its :class:`~repro.storage.schema.TableSchema` so key
    lookups and type checks are cheap.

    Construction validates lengths and coerces each column to the
    storage dtype of its declared type.
    """

    def __init__(self, schema: TableSchema, columns: dict[str, np.ndarray]) -> None:
        missing = set(schema.column_names) - set(columns)
        extra = set(columns) - set(schema.column_names)
        if missing:
            raise DataError(f"table {schema.name!r}: missing columns {sorted(missing)}")
        if extra:
            raise DataError(f"table {schema.name!r}: unexpected columns {sorted(extra)}")

        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        num_rows: int | None = None
        for column_def in schema.columns:
            values = np.asarray(columns[column_def.name])
            if values.ndim != 1:
                raise DataError(
                    f"column {column_def.name!r} of {schema.name!r} must be 1-D"
                )
            if num_rows is None:
                num_rows = len(values)
            elif len(values) != num_rows:
                raise DataError(
                    f"ragged columns in table {schema.name!r}: "
                    f"{column_def.name!r} has {len(values)} rows, expected {num_rows}"
                )
            self._columns[column_def.name] = coerce_to_type(
                values, column_def.column_type
            )
        self._num_rows = num_rows or 0
        # Partitioning is logical (row ranges over immutable arrays), so
        # morsel lists are tiny and cached per requested shape.
        self._partitions: dict[tuple[int, int], tuple[Morsel, ...]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        name: str,
        columns: dict[str, np.ndarray],
        key: tuple[str, ...] = (),
    ) -> "Table":
        """Build a table inferring column types from the arrays."""
        defs = tuple(
            ColumnDef(col_name, infer_column_type(np.asarray(values)))
            for col_name, values in columns.items()
        )
        schema = TableSchema(name=name, columns=defs, key=key)
        return cls(schema, columns)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.column_names

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r} in table {self.name!r}"
            ) from None

    def column_type(self, name: str) -> ColumnType:
        return self.schema.column_type(name)

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def morsels(
        self,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        min_morsels: int = 1,
    ) -> tuple[Morsel, ...]:
        """Row-range morsels covering this table.

        Purely logical: each :class:`~repro.storage.partition.Morsel`
        is a ``[start, stop)`` range over the table's immutable column
        arrays.  Scans slice both the base columns and any
        table-resident dictionary codes by the same range, so every
        partition reuses the shared per-column artifacts instead of
        rebuilding them.  The morsel list for a given shape is computed
        once and cached (the table is immutable).
        """
        key = (int(morsel_rows), int(min_morsels))
        cached = self._partitions.get(key)
        if cached is None:
            cached = partition_table(
                self.name, self._num_rows, morsel_rows, min_morsels
            )
            self._partitions[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Row-set operations (return new tables)
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """Return a new table with rows gathered by ``indices``."""
        return Table(
            self.schema,
            {name: values[indices] for name, values in self._columns.items()},
        )

    def filter(self, mask: np.ndarray) -> "Table":
        """Return a new table keeping rows where ``mask`` is True."""
        if len(mask) != self._num_rows:
            raise DataError(
                f"mask length {len(mask)} != row count {self._num_rows}"
            )
        return self.take(np.flatnonzero(mask))

    def head(self, count: int) -> "Table":
        """Return the first ``count`` rows (for debugging / examples)."""
        return self.take(np.arange(min(count, self._num_rows)))

    # ------------------------------------------------------------------
    # Integrity checks
    # ------------------------------------------------------------------

    def validate_key(self) -> None:
        """Raise :class:`DataError` if declared key values are not unique."""
        if not self.schema.key or self._num_rows == 0:
            return
        columns = [self.column(c) for c in self.schema.key]
        codes = columns[0] if len(columns) == 1 else single_table_codes(columns)
        if count_distinct(codes) != self._num_rows:
            raise DataError(
                f"table {self.name!r}: duplicate values in key {self.schema.key}"
            )

    def rows(self, limit: int | None = None) -> list[tuple]:
        """Materialize rows as tuples (testing/debugging helper)."""
        stop = self._num_rows if limit is None else min(limit, self._num_rows)
        names = self.column_names
        return [
            tuple(self._columns[name][i] for name in names) for i in range(stop)
        ]

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self._num_rows}, "
            f"columns={list(self.column_names)})"
        )
