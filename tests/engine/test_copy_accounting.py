"""Exact copy and dictionary counters of the zero-copy engine.

Relations carry selection vectors and gather a column only when
something reads it; join keys and exact-filter builds run on the
table-resident dictionary codes.  ``ExecutionMetrics`` counts both —
``rows_copied`` / ``bytes_gathered`` for gathers, ``dictionary_hits`` /
``dictionary_misses`` for join-key encodings — so the claims are
asserted as exact counts, and every answer is held to stdlib
``sqlite3`` (``tests/sqlite_reference.py``).
"""

from __future__ import annotations

import pytest

from repro.engine.executor import Executor
from repro.filters.cache import BitvectorFilterCache
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.workloads import star
from sqlite_reference import assert_matches_sqlite
from star_statements import star_statements


@pytest.fixture(scope="module")
def star_database():
    return star.build_database(scale=0.1)


def test_star_workload_join_keys_hit_the_dictionaries(star_database):
    """The 20-query star workload, run twice through one filter cache:
    every join key is encoded through a dictionary index (fallbacks
    happen only on empty inputs, which encode nothing), and the warm
    pass answers as the cold one and as sqlite does."""
    specs = [
        parse_query(star_database, sql, f"star_{index}")
        for index, sql in enumerate(star_statements())
    ]
    plans = [optimize_query(star_database, spec, "bqo").plan for spec in specs]
    executor = Executor(star_database, filter_cache=BitvectorFilterCache(64))
    cold = [executor.execute(plan) for plan in plans]
    warm = [executor.execute(plan) for plan in plans]

    for results in (cold, warm):
        assert sum(result.metrics.dictionary_hits for result in results) > 0
        assert sum(r.metrics.dictionary_misses for r in results) == 0
        assert sum(result.metrics.rows_copied for result in results) > 0
    for sql, spec, first, second in zip(
        star_statements(), specs, cold, warm
    ):
        for label in first.aggregates:
            assert (
                first.aggregates[label].tobytes()
                == second.aggregates[label].tobytes()
            ), (sql, label)
        assert_matches_sqlite(star_database, sql, second, spec)


def test_filter_application_gathers_only_touched_columns(star_database):
    """Exact copy-counter accounting on one two-table probe.

    For ``SUM(lo_revenue)`` joined against ASIA customers, the engine
    materializes exactly one column: ``lo.lo_revenue``, once, at joined
    cardinality (the aggregate).

    Everything else runs on views and stored dictionary codes: the
    predicate column ``c_region`` and the probe key are read from
    identity scan views (zero-copy), the filter is built from the
    surviving customers' ``c_custkey`` *codes*, the surviving fact rows
    become a selection vector, and the join — here absorbed by its own
    exact filter — reads no key values at all.
    """
    sql = (
        "SELECT SUM(lo.lo_revenue) AS rev FROM lineorder lo, customer c "
        "WHERE lo.lo_custkey = c.c_custkey AND c.c_region = 'ASIA'"
    )
    spec = parse_query(star_database, sql, "probe")
    plan = optimize_query(star_database, spec, "bqo").plan

    result = Executor(star_database).execute(plan)
    metrics = result.metrics

    asia_customers = next(
        metrics.rows_out(node.node_id)
        for node in plan.walk()
        if "customer" in node.label
    )
    joined_rows = next(
        node.rows_out for node in metrics.nodes if node.kind == "join"
    )
    assert asia_customers > 0 and joined_rows > 0

    assert metrics.rows_copied == joined_rows, (
        f"copied {metrics.rows_copied} rows, expected exactly "
        f"{joined_rows} (lo_revenue@{joined_rows}; {asia_customers} "
        "customers' keys are read as codes); untouched columns were gathered"
    )
    assert metrics.dictionary_hits == 1  # one single-column join key
    assert_matches_sqlite(star_database, sql, result, spec)
