"""Database: catalog + table data + (lazily computed) statistics."""

from __future__ import annotations

import threading

from repro.errors import DataError, SchemaError
from repro.storage.catalog import Catalog
from repro.storage.partition import DEFAULT_MORSEL_ROWS, Morsel
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from repro.storage.zonemaps import ColumnZoneMap
from repro.util.keycodes import ColumnDictionary


class Database:
    """A named collection of tables with a shared catalog.

    This is the single object the SQL binder, optimizer, and executor
    all take as their view of the world.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self._stats_cache: dict[str, object] = {}
        self._schema_version = 0
        # Table-resident dictionary indexes: one cached factorization
        # per (table, column), built on first use.  Tables are
        # immutable and never replaced in-place, so entries only leave
        # via explicit invalidate_dictionaries() (see dictionary()).
        self._dictionaries: dict[tuple[str, str], ColumnDictionary] = {}
        self._dictionary_lock = threading.Lock()
        # Single-flight coordination: one Event per key currently being
        # factorized, so concurrent requesters wait instead of building
        # duplicates (see dictionary()).
        self._dictionary_pending: dict[tuple[str, str], threading.Event] = {}
        self.dictionary_builds = 0
        self.dictionary_lookups = 0
        self._dictionary_generation = 0
        # Zone maps: per-(table, column) sortedness synopses (see
        # repro.storage.zonemaps), built lazily with the same
        # single-flight discipline as dictionaries and invalidated
        # alongside them — both are derived column artifacts.
        self._zone_maps: dict[tuple[str, str], ColumnZoneMap] = {}
        self._zone_map_lock = threading.Lock()
        self._zone_map_pending: dict[tuple[str, str], threading.Event] = {}
        self.zone_map_builds = 0
        self.zone_map_lookups = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_table(self, table: Table, validate_key: bool = True) -> None:
        self.catalog.add_schema(table.schema)
        if validate_key:
            table.validate_key()
        self._tables[table.name] = table
        self._schema_version += 1

    def add_foreign_key(self, foreign_key: ForeignKey) -> None:
        self.catalog.add_foreign_key(foreign_key)
        self._schema_version += 1

    @property
    def schema_version(self) -> int:
        """Monotonic counter bumped on every catalog change.

        Consumers that cache artifacts derived from the catalog (plans,
        bitvector filters — see :class:`repro.service.QueryService`)
        compare versions to decide when to invalidate.
        """
        return self._schema_version

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def total_rows(self) -> int:
        return sum(t.num_rows for t in self._tables.values())

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def morsels(
        self,
        table_name: str,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        min_morsels: int = 1,
    ) -> tuple[Morsel, ...]:
        """Row-range morsels of one table (see :meth:`Table.morsels`).

        The database is the object the executor already holds, so this
        is the entry point parallel scans partition through.
        """
        return self.table(table_name).morsels(morsel_rows, min_morsels)

    # ------------------------------------------------------------------
    # Dictionary indexes
    # ------------------------------------------------------------------

    def dictionary(self, table_name: str, column_name: str) -> ColumnDictionary:
        """Cached factorization of one stored column.

        The first call factorizes the column in one pass, to the values
        and codes ``np.unique(..., return_inverse=True)`` gives: a
        presence table for integer and bool columns over a compact span
        (no sort; 4 ms against the argsort's 28 ms on 450k rows of 150k
        values), hashing for text, a sort for the rest.  Every later
        call — any hash join, exact-filter probe, group-by or text
        predicate that touches the column, from any thread — reuses the
        sorted distinct values and per-row codes.  All of them reach it
        through :meth:`repro.engine.relation.Relation.column_dictionary`
        and work on the stored codes; float columns and columns without
        table provenance never get here.  Tables are immutable and
        cannot be re-registered (the catalog rejects duplicates), so
        entries never go stale in-place; a data reload that swaps databases or tables
        must call :meth:`invalidate_dictionaries`, mirroring
        :meth:`invalidate_stats`.

        Construction is *single-flight*: factorization runs outside the
        lock (it is the slow part), but concurrent requesters of the
        same key wait on the in-flight build instead of duplicating it,
        so ``dictionary_builds`` counts exactly one build per resident
        entry — the invariant the morsel workers rely on when they all
        hit one fact-table column at once.
        """
        key = (table_name, column_name)
        with self._dictionary_lock:
            self.dictionary_lookups += 1
        while True:
            with self._dictionary_lock:
                cached = self._dictionaries.get(key)
                if cached is not None:
                    return cached
                pending = self._dictionary_pending.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._dictionary_pending[key] = pending
                    is_builder = True
                else:
                    is_builder = False
            if not is_builder:
                # Another thread owns the build; wait, then re-check the
                # cache (looping covers an invalidation racing the
                # publish, in which case this thread becomes the
                # builder on the next pass).
                pending.wait()
                continue
            try:
                built = ColumnDictionary.build(
                    self.table(table_name).column(column_name)
                )
            except BaseException:
                with self._dictionary_lock:
                    self._dictionary_pending.pop(key, None)
                pending.set()
                raise
            with self._dictionary_lock:
                self._dictionaries[key] = built
                self.dictionary_builds += 1
                self._dictionary_pending.pop(key, None)
            pending.set()
            return built

    def dictionary_cache_info(self) -> dict[str, int]:
        """Counters for observability (explain output, tests)."""
        with self._dictionary_lock:
            return {
                "entries": len(self._dictionaries),
                "builds": self.dictionary_builds,
                "lookups": self.dictionary_lookups,
            }

    @property
    def dictionary_generation(self) -> int:
        """Monotonic counter bumped by every :meth:`invalidate_dictionaries`.

        Consumers that cache artifacts holding dictionaries (the
        service's bitvector filters, built over the build table's
        dictionary) compare generations to release them.
        """
        return self._dictionary_generation

    def invalidate_dictionaries(self, table_name: str | None = None) -> None:
        """Drop cached dictionaries (and the zone maps derived from the
        same columns — both synopses share one invalidation lifecycle)."""
        with self._dictionary_lock:
            self._dictionary_generation += 1
            if table_name is None:
                self._dictionaries.clear()
            else:
                for key in [k for k in self._dictionaries if k[0] == table_name]:
                    del self._dictionaries[key]
        self.invalidate_zone_maps(table_name)

    # ------------------------------------------------------------------
    # Zone maps
    # ------------------------------------------------------------------

    def zone_map(self, table_name: str, column_name: str) -> ColumnZoneMap:
        """Cached whole-column synopsis of one stored column (see
        :mod:`repro.storage.zonemaps`).

        Construction is single-flight, mirroring :meth:`dictionary`:
        one vectorized pass per resident entry no matter how many
        threads ask at once.  Entries leave only via
        :meth:`invalidate_zone_maps` / :meth:`invalidate_dictionaries`.
        """
        key = (table_name, column_name)
        with self._zone_map_lock:
            self.zone_map_lookups += 1
        while True:
            with self._zone_map_lock:
                cached = self._zone_maps.get(key)
                if cached is not None:
                    return cached
                pending = self._zone_map_pending.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._zone_map_pending[key] = pending
                    is_builder = True
                else:
                    is_builder = False
            if not is_builder:
                # Wait for the in-flight build, then re-check (covers an
                # invalidation racing the publish — the waiter becomes
                # the builder on its next pass).
                pending.wait()
                continue
            try:
                built = ColumnZoneMap.build(
                    self.table(table_name).column(column_name)
                )
            except BaseException:
                with self._zone_map_lock:
                    self._zone_map_pending.pop(key, None)
                pending.set()
                raise
            with self._zone_map_lock:
                self._zone_maps[key] = built
                self.zone_map_builds += 1
                self._zone_map_pending.pop(key, None)
            pending.set()
            return built

    def zone_map_cache_info(self) -> dict[str, int]:
        """Counters for observability (explain output, tests)."""
        with self._zone_map_lock:
            return {
                "entries": len(self._zone_maps),
                "builds": self.zone_map_builds,
                "lookups": self.zone_map_lookups,
            }

    def invalidate_zone_maps(self, table_name: str | None = None) -> None:
        with self._zone_map_lock:
            if table_name is None:
                self._zone_maps.clear()
            else:
                for key in [k for k in self._zone_maps if k[0] == table_name]:
                    del self._zone_maps[key]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self, table_name: str):
        """Return (building on first use) statistics for a table.

        Import is deferred to avoid a circular dependency between the
        storage and stats packages.
        """
        if table_name not in self._stats_cache:
            from repro.stats.statistics import TableStatistics

            self._stats_cache[table_name] = TableStatistics.collect(
                self.table(table_name)
            )
        return self._stats_cache[table_name]

    def invalidate_stats(self, table_name: str | None = None) -> None:
        if table_name is None:
            self._stats_cache.clear()
        else:
            self._stats_cache.pop(table_name, None)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def validate_foreign_keys(self) -> None:
        """Check that every FK value appears in the referenced key.

        Raises :class:`DataError` on the first violation found.  Used by
        workload-generator tests to guarantee referential integrity.
        """
        import numpy as np

        from repro.util.keycodes import joint_codes

        for fk in self.catalog.foreign_keys:
            child = self.table(fk.child_table)
            parent = self.table(fk.parent_table)
            if child.num_rows == 0:
                continue
            child_cols = [child.column(c) for c in fk.child_columns]
            parent_cols = [parent.column(c) for c in fk.parent_columns]
            child_codes, parent_codes = joint_codes(child_cols, parent_cols)
            missing = ~np.isin(child_codes, parent_codes)
            if missing.any():
                raise DataError(
                    f"foreign key violation: {fk.child_table}{fk.child_columns} "
                    f"-> {fk.parent_table}{fk.parent_columns}: "
                    f"{int(missing.sum())} dangling rows"
                )

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={len(self._tables)})"
