"""Per-column and per-table statistics collection."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.stats.histogram import EquiDepthHistogram
from repro.storage.table import Table
from repro.storage.types import ColumnType
from repro.util.keycodes import count_distinct

_SAMPLE_ROWS = 2000
_SAMPLE_SEED = 0x5EED


@dataclasses.dataclass(frozen=True)
class ColumnStatistics:
    """Statistics for a single column.

    ``histogram`` is present for numeric columns only.  ``sample``
    holds up to :data:`_SAMPLE_ROWS` raw values used to estimate
    predicates histograms cannot capture (LIKE, IN over text).
    """

    name: str
    column_type: ColumnType
    num_rows: int
    num_distinct: int
    min_value: float | None
    max_value: float | None
    histogram: EquiDepthHistogram | None
    sample: np.ndarray

    @classmethod
    def collect(cls, name: str, values: np.ndarray, column_type: ColumnType,
                rng: np.random.Generator) -> "ColumnStatistics":
        num_rows = len(values)
        num_distinct = count_distinct(values) if num_rows else 0
        if column_type.is_numeric and num_rows:
            as_float = values.astype(np.float64)
            min_value = float(as_float.min())
            max_value = float(as_float.max())
            histogram = EquiDepthHistogram.build(as_float)
        else:
            min_value = None
            max_value = None
            histogram = None
        if num_rows > _SAMPLE_ROWS:
            sample = values[rng.choice(num_rows, _SAMPLE_ROWS, replace=False)]
        else:
            sample = values.copy()
        return cls(
            name=name,
            column_type=column_type,
            num_rows=num_rows,
            num_distinct=num_distinct,
            min_value=min_value,
            max_value=max_value,
            histogram=histogram,
            sample=sample,
        )


@dataclasses.dataclass(frozen=True)
class TableStatistics:
    """Statistics for a whole table."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStatistics]

    @classmethod
    def collect(cls, table: Table) -> "TableStatistics":
        rng = np.random.default_rng(_SAMPLE_SEED)
        columns = {
            column_def.name: ColumnStatistics.collect(
                column_def.name,
                table.column(column_def.name),
                column_def.column_type,
                rng,
            )
            for column_def in table.schema.columns
        }
        return cls(table_name=table.name, num_rows=table.num_rows, columns=columns)

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name]
