"""A warm stack of exact filters on a whole fact scan is one AND of
packed row bitmaps and one compaction, never a semantics change.

:meth:`ExactFilter.member_bits` memoizes, per probe dictionary, the
packed membership of every stored row of the probe column; the
executor ANDs the bitmaps of the leading filters of a whole base-table
scan and compacts once.  These tests hold that path to:

* sqlite's answers for one, two and three stacked filters, and to the
  diminishing ``filter_check`` count of applying the filters one by one
  (recomputed here with :meth:`ExactFilter.contains`);
* a warm re-execution over cached filters that reads the memo
  (``bitmaps=hit``) and returns byte-identical results, and a rebuilt
  memo after ``Database.invalidate_dictionaries``;
* the same path on a stack over a clustered fact key, whose whole-table
  scan no morsel synopsis narrows;
* today's probe path wherever a bitmap is not row-aligned or not kept:
  the hashed kind, two-column keys, float keys and a predicate-selected
  fact scan;
* one ``ceil(rows / 8)``-byte bitmap per probed column in
  :attr:`ExactFilter.resident_bytes`.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.filters.blocked import BlockedBloomFilter
from repro.filters.cache import BitvectorFilterCache
from repro.filters.exact import ExactFilter
from repro.obs.trace import Tracer
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.nodes import ScanNode
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from sqlite_reference import assert_matches_sqlite

# Not a multiple of 8: the last bitmap byte is padded.
_ROWS = 6_001
# (dimension, size, predicate bound) per fact key fk1..fk3.
_DIMS = (("d1", 50, 5), ("d2", 40, 6), ("d3", 30, 4))


def _database(clustered: bool = False) -> Database:
    rng = np.random.default_rng(7)
    database = Database("member_bits")
    for name, size, _ in _DIMS:
        database.add_table(
            Table.from_arrays(
                name,
                {"id": np.arange(size), "v": rng.integers(0, 10, size)},
                key=("id",),
            )
        )
    database.add_table(
        Table.from_arrays(
            "pair",
            {
                "a": np.repeat(np.arange(10), 5),
                "b": np.tile(np.arange(5), 10),
                "v": rng.integers(0, 10, 50),
            },
            key=("a", "b"),
        )
    )
    database.add_table(
        Table.from_arrays(
            "fdim", {"x": np.arange(20, dtype=np.float64),
                     "v": rng.integers(0, 10, 20)},
            key=("x",),
        )
    )
    fk1 = rng.integers(0, 50, _ROWS)
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk1": np.sort(fk1) if clustered else fk1,
                "fk2": rng.integers(0, 40, _ROWS),
                "fk3": rng.integers(0, 30, _ROWS),
                "pa": rng.integers(0, 10, _ROWS),
                "pb": rng.integers(0, 5, _ROWS),
                "fx": rng.integers(0, 20, _ROWS).astype(np.float64),
                "m": np.round(rng.normal(size=_ROWS), 6),
                "q": rng.integers(-5, 50, _ROWS),
            },
        )
    )
    for index, (name, _, _) in enumerate(_DIMS, start=1):
        database.add_foreign_key(
            ForeignKey("fact", (f"fk{index}",), name, ("id",))
        )
    database.add_foreign_key(ForeignKey("fact", ("pa", "pb"), "pair", ("a", "b")))
    database.add_foreign_key(ForeignKey("fact", ("fx",), "fdim", ("x",)))
    return database


def _stack_sql(depth: int, extra: str = "") -> str:
    aliases = ["a", "b", "c"][:depth]
    tables = ", ".join(
        f"{name} {alias}" for (name, _, _), alias in zip(_DIMS, aliases)
    )
    where = [
        f"f.fk{index} = {alias}.id AND {alias}.v < {bound}"
        for index, ((_, _, bound), alias) in enumerate(
            zip(_DIMS, aliases), start=1
        )
    ]
    return (
        "SELECT COUNT(*) AS cnt, SUM(f.m) AS total, SUM(f.q) AS qs "
        f"FROM fact f, {tables} WHERE " + " AND ".join(where + ([extra] if extra else []))
    )


def _plan(database: Database, sql: str):
    """The right-deep plan with the fact scan deepest: every dimension's
    filter stacks on the fact scan (the paper's Theorem 4.1 shape)."""
    spec = parse_query(database, sql, "q")
    order = ["f"] + [r.alias for r in spec.relations if r.alias != "f"]
    plan = build_right_deep(JoinGraph(spec, database.catalog), order)
    return spec, attach_aggregate(push_down_bitvectors(plan), spec)


def _fact_scan(plan) -> ScanNode:
    (scan,) = [
        node for node in plan.walk()
        if isinstance(node, ScanNode) and node.alias == "f"
    ]
    return scan


def _run(executor: Executor, plan):
    tracer = Tracer()
    result = executor.execute(plan, tracer=tracer)
    (span,) = [
        span for span in tracer.spans("node")
        if span.attributes["label"].startswith("Scan(f:fact)")
    ]
    return result, span.attributes.get("bitmaps")


def _same(left, right) -> bool:
    return left.aggregates.keys() == right.aggregates.keys() and all(
        left.aggregates[label].tobytes() == right.aggregates[label].tobytes()
        for label in left.aggregates
    )


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_stack_matches_sqlite_and_meters_diminishing_rows(depth):
    database = _database()
    sql = _stack_sql(depth)
    spec, plan = _plan(database, sql)
    scan = _fact_scan(plan)
    assert len(scan.applied_bitvectors) == depth
    result, bitmaps = _run(Executor(database), plan)
    assert bitmaps == "built"
    assert_matches_sqlite(database, sql, result, spec)

    # The same stack applied one filter at a time, by value probes.
    fact = database.table("fact")
    rows = np.arange(fact.num_rows)
    checked = 0
    for definition in scan.applied_bitvectors:
        ((_, probe_column),) = definition.probe_keys
        index = int(probe_column[-1]) - 1
        name, _, bound = _DIMS[index]
        dim = database.table(name)
        keys = dim.column("id")[dim.column("v") < bound]
        checked += len(rows)
        rows = rows[ExactFilter([keys]).contains([fact.column(probe_column)[rows]])]
    record = next(
        node for node in result.metrics.nodes if node.node_id == scan.node_id
    )
    assert record.components["filter_check"] == checked
    assert record.rows_out == len(rows)


def test_warm_stack_hits_the_memo_byte_identically():
    database = _database()
    _, plan = _plan(database, _stack_sql(3))
    executor = Executor(database, filter_cache=BitvectorFilterCache())
    first, first_bitmaps = _run(executor, plan)
    second, second_bitmaps = _run(executor, plan)
    assert (first_bitmaps, second_bitmaps) == ("built", "hit")
    assert _same(first, second)
    # Cached filters are not rebuilt, but the stack meters the same.
    checks = [
        [node.components["filter_check"] for node in result.metrics.nodes]
        for result in (first, second)
    ]
    assert checks[0] == checks[1]


def test_invalidated_dictionaries_rebuild_the_memo():
    database = _database()
    _, plan = _plan(database, _stack_sql(2))
    cache = BitvectorFilterCache()
    executor = Executor(database, filter_cache=cache)
    first, _ = _run(executor, plan)
    assert _run(executor, plan)[1] == "hit"
    resident = cache.resident_bytes()
    database.invalidate_dictionaries()
    gc.collect()
    # The old fact dictionaries died, and their bitmaps with them.
    assert cache.resident_bytes() < resident
    again, bitmaps = _run(executor, plan)
    assert bitmaps == "built"
    assert _same(first, again)
    assert cache.resident_bytes() == resident


_FALLBACKS = {
    "blocked_bloom": (_stack_sql(2), {"filter_kind": "blocked_bloom"}, False),
    "two_column_key": (
        "SELECT COUNT(*) AS cnt, SUM(f.m) AS total FROM fact f, pair p "
        "WHERE f.pa = p.a AND f.pb = p.b AND p.v < 4",
        {}, False,
    ),
    "float_key": (
        "SELECT COUNT(*) AS cnt, SUM(f.m) AS total FROM fact f, fdim x "
        "WHERE f.fx = x.x AND x.v < 4",
        {}, False,
    ),
    "fact_predicate": (_stack_sql(3, "f.q > 20"), {}, False),
}


@pytest.mark.parametrize("case", sorted(_FALLBACKS))
def test_unaligned_or_unkept_bitmaps_take_the_probe_path(case):
    sql, options, clustered = _FALLBACKS[case]
    database = _database(clustered=clustered)
    spec, plan = _plan(database, sql)
    assert _fact_scan(plan).applied_bitvectors
    executor = Executor(
        database, filter_cache=BitvectorFilterCache(), **options
    )
    result, bitmaps = _run(executor, plan)
    assert bitmaps is None
    assert_matches_sqlite(database, sql, result, spec)
    again, bitmaps = _run(executor, plan)
    assert bitmaps is None
    assert _same(result, again)


def test_clustered_stack_takes_the_member_bits_path():
    """A key band on a clustered fact key: the first filter's keys cover
    a few leading morsels of ``fk1``.  Nothing prunes those morsels, so
    the whole fact scan ANDs both filters' bitmaps, cold and warm."""
    sql = (
        "SELECT COUNT(*) AS cnt, SUM(f.m) AS total FROM fact f, d1 a, d2 b "
        "WHERE f.fk1 = a.id AND a.id < 12 AND f.fk2 = b.id AND b.v < 6"
    )
    database = _database(clustered=True)
    spec, plan = _plan(database, sql)
    assert len(_fact_scan(plan).applied_bitvectors) == 2
    executor = Executor(
        database, filter_cache=BitvectorFilterCache(), morsel_rows=1_000
    )
    result, bitmaps = _run(executor, plan)
    assert bitmaps == "built"
    # Only d1's own band search (sorted ids, ``a.id < 12``) skips rows.
    assert result.metrics.rows_skipped == 50 - 12
    assert result.metrics.morsels_pruned == 0
    assert_matches_sqlite(database, sql, result, spec)
    again, bitmaps = _run(executor, plan)
    assert bitmaps == "hit"
    assert _same(result, again)


def test_resident_bytes_grow_by_one_bitmap_per_probed_column():
    database = _database()
    exact = ExactFilter([np.arange(0, 50, 3)])
    for column in ("fk1", "fk2"):
        dictionary = database.dictionary("fact", column)
        # Warm the member table first: only the bitmap is measured.
        exact.contains_dictionary_codes([dictionary], [dictionary.codes])
        before = exact.resident_bytes
        assert not exact.holds_member_bits(dictionary)
        bits = exact.member_bits(dictionary)
        assert exact.holds_member_bits(dictionary)
        assert exact.resident_bytes - before == -(-_ROWS // 8) == bits.nbytes
        assert exact.member_bits(dictionary) is bits
        assert exact.resident_bytes - before == bits.nbytes
        assert not bits.flags.writeable
        values = database.table("fact").column(column)
        assert np.array_equal(
            np.unpackbits(bits, count=_ROWS).view(bool),
            exact.contains([values]),
        )


def test_only_single_column_indexed_filters_keep_bitmaps():
    database = _database()
    dictionary = database.dictionary("fact", "fk1")
    keys = np.arange(10)
    assert BlockedBloomFilter.build([keys]).member_bits(dictionary) is None
    assert ExactFilter([keys, keys]).member_bits(dictionary) is None
    assert ExactFilter([keys.astype(np.float64)]).member_bits(dictionary) is None
    assert not BlockedBloomFilter.supports_member_bits
    assert ExactFilter.supports_member_bits
