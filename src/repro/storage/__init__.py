"""In-memory columnar storage engine.

The storage substrate the paper relies on (SQL Server's column stores /
B+-trees) is replaced by a minimal but real columnar engine: tables hold
``numpy`` arrays per column, schemas declare unique keys and foreign
keys, and a catalog ties tables together so the optimizer can detect
PKFK joins.
"""

from repro.storage.types import ColumnType, infer_column_type
from repro.storage.partition import (
    DEFAULT_MORSEL_ROWS,
    Morsel,
    morsel_ranges,
    partition_table,
)
from repro.storage.table import Table
from repro.storage.zonemaps import ColumnZoneMap
from repro.storage.schema import ColumnDef, TableSchema, ForeignKey
from repro.storage.catalog import Catalog
from repro.storage.database import Database
from repro.storage.csvio import table_to_csv, table_from_csv

__all__ = [
    "ColumnType",
    "infer_column_type",
    "DEFAULT_MORSEL_ROWS",
    "Morsel",
    "morsel_ranges",
    "partition_table",
    "Table",
    "ColumnZoneMap",
    "ColumnDef",
    "TableSchema",
    "ForeignKey",
    "Catalog",
    "Database",
    "table_to_csv",
    "table_from_csv",
]
