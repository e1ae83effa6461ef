"""The scan band search: a value band on a sorted column is two binary
searches, answered exactly as row-wise evaluation would answer it.

The executor answers a scan predicate that is one value band on one
column (:func:`repro.storage.zonemaps.predicate_band`) by binary search
when the column's zone map proves it ascending with no NaN.  These tests
hold it to sqlite's answers on every column layout (clustered,
shuffled, constant, all-NaN measure) at ``parallelism`` 1 and 4, and
pin its counters: ``rows_skipped`` is the rows outside the band,
``morsels_pruned`` the morsels holding no band row, both zero wherever
the search stands aside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.obs.trace import Tracer
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.table import Table
from sqlite_reference import assert_matches_sqlite

_ROWS = 20_000
_MORSEL_ROWS = 2_048
_DOMAIN = 1_000


def _build_database(layout: str) -> Database:
    """One fact + one dimension; the fact key layout varies by case."""
    rng = np.random.default_rng(11)
    keys = rng.integers(0, _DOMAIN, _ROWS)
    if layout == "clustered":
        keys = np.sort(keys)
    elif layout == "constant":
        keys = np.full(_ROWS, 42)
    measures = rng.random(_ROWS) * 100.0
    if layout == "all_null":
        measures = np.full(_ROWS, np.nan)
    tags = np.array(
        [f"tag{int(value) % 7}" for value in keys], dtype=object
    )
    database = Database(f"band_{layout}")
    database.add_table(
        Table.from_arrays(
            "fact",
            {"k": keys, "v": measures, "tag": tags},
        ),
        validate_key=False,
    )
    database.add_table(
        Table.from_arrays("dim", {"d": np.arange(_DOMAIN)}, key=("d",))
    )
    return database


_QUERIES = [
    # Bands on the fact key.
    "SELECT COUNT(*) AS c, SUM(f.v) AS s FROM fact f "
    "WHERE f.k BETWEEN 100 AND 149",
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k = 42",
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k > 5000",
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k >= 10 AND f.k < 900",
    # Not bands: evaluated row by row on every layout.
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k IN (5, 300, 999)",
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k = 42 OR f.k = 43",
    "SELECT COUNT(*) AS c FROM fact f "
    "WHERE f.k < 200 AND f.tag LIKE 'tag1%'",
    # A band on the float measure (NaN rules the search out).
    "SELECT COUNT(*) AS c FROM fact f WHERE f.v < 1.5",
    # A band on the sorted dimension, below a join.
    "SELECT COUNT(*) AS c, SUM(f.v) AS s FROM fact f, dim d "
    "WHERE f.k = d.d AND d.d BETWEEN 100 AND 149",
]


def _run(database, sql, **executor_kwargs):
    spec = parse_query(database, sql, "q")
    plan = optimize_query(database, spec, "bqo").plan
    tracer = Tracer()
    result = Executor(database, **executor_kwargs).execute(plan, tracer=tracer)
    answered = {
        span.attributes["label"].split()[0]: span.attributes["predicate"]
        for span in tracer.spans("node")
        if "predicate" in span.attributes
    }
    return spec, result, answered


def _morsels(database):
    return [
        (morsel.start, morsel.stop)
        for morsel in database.table("fact").morsels(_MORSEL_ROWS)
    ]


@pytest.fixture(scope="module")
def databases():
    """One database per layout, shared by this module's read-only
    statements (and their sqlite copies)."""
    built: dict[str, Database] = {}

    def get(layout: str) -> Database:
        if layout not in built:
            built[layout] = _build_database(layout)
        return built[layout]

    return get


@pytest.mark.parametrize(
    "layout, query",
    [
        (layout, query)
        for layout in ("clustered", "shuffled", "constant", "all_null")
        for query in range(len(_QUERIES))
    ],
)
@pytest.mark.parametrize("parallelism", [1, 4])
def test_answers_match_sqlite_on_every_layout(
    databases, layout, query, parallelism
):
    database = databases(layout)
    sql = _QUERIES[query]
    spec, result, _ = _run(
        database, sql, parallelism=parallelism, morsel_rows=_MORSEL_ROWS
    )
    assert_matches_sqlite(database, sql, result, spec)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_clustered_band_skips_the_rows_outside_it(parallelism):
    database = _build_database("clustered")
    _, result, answered = _run(
        database, _QUERIES[0], parallelism=parallelism,
        morsel_rows=_MORSEL_ROWS,
    )
    assert answered == {"Scan(f:fact)": "band"}
    keys = database.table("fact").column("k")
    lo, hi = np.searchsorted(keys, 100), np.searchsorted(keys, 149, "right")
    assert result.scalar("c") == hi - lo
    assert result.metrics.rows_skipped == _ROWS - (hi - lo) > _ROWS // 2
    morsels = database.table("fact").morsels(
        _MORSEL_ROWS, min_morsels=parallelism
    )
    assert result.metrics.morsels_pruned == sum(
        morsel.stop <= lo or morsel.start >= hi for morsel in morsels
    ) > 0


def test_band_equals_row_wise_evaluation_byte_for_byte():
    """The same rows, in the same order, as the predicate evaluated row
    by row (a negated form is not a band, so it is evaluated)."""
    database = _build_database("clustered")
    _, banded, answered = _run(database, _QUERIES[0])
    assert answered == {"Scan(f:fact)": "band"}
    _, plain, answered = _run(
        database,
        "SELECT COUNT(*) AS c, SUM(f.v) AS s FROM fact f "
        "WHERE NOT (f.k < 100 OR f.k > 149)",
    )
    assert answered == {"Scan(f:fact)": "rows"}
    assert plain.metrics.rows_skipped == plain.metrics.morsels_pruned == 0
    for label in plain.aggregates:
        assert banded.aggregates[label].tobytes() == (
            plain.aggregates[label].tobytes()
        )
        assert banded.aggregates[label].dtype == plain.aggregates[label].dtype


def test_empty_band_skips_every_row_and_morsel():
    database = _build_database("clustered")
    _, result, _ = _run(database, _QUERIES[2], morsel_rows=_MORSEL_ROWS)
    assert result.scalar("c") == 0
    assert result.metrics.rows_skipped == _ROWS
    assert result.metrics.morsels_pruned == len(_morsels(database))


def test_constant_column_is_searched_all_or_nothing():
    database = _build_database("constant")
    _, hit, answered = _run(
        database, "SELECT COUNT(*) AS c FROM fact f WHERE f.k = 42",
        morsel_rows=_MORSEL_ROWS,
    )
    assert answered == {"Scan(f:fact)": "band"}
    assert hit.scalar("c") == _ROWS
    assert hit.metrics.rows_skipped == hit.metrics.morsels_pruned == 0
    _, miss, _ = _run(
        database, "SELECT COUNT(*) AS c FROM fact f WHERE f.k = 43",
        morsel_rows=_MORSEL_ROWS,
    )
    assert miss.scalar("c") == 0
    assert miss.metrics.rows_skipped == _ROWS
    assert miss.metrics.morsels_pruned == len(_morsels(database))


@pytest.mark.parametrize(
    "layout, sql",
    [
        ("shuffled", _QUERIES[0]),  # not sorted
        ("all_null", _QUERIES[7]),  # NaN rules sortedness out
        ("clustered", _QUERIES[5]),  # an OR of bands is not one band
    ],
    ids=["shuffled", "nan", "disjunction"],
)
def test_search_stands_aside_without_a_sorted_band(layout, sql):
    database = _build_database(layout)
    _, result, answered = _run(database, sql, morsel_rows=_MORSEL_ROWS)
    assert answered["Scan(f:fact)"] == "rows"
    assert result.metrics.rows_skipped == result.metrics.morsels_pruned == 0


_KIND_ROWS = 12_000


def _kinds_database() -> Database:
    """Three ascending columns of different kinds: an integer key with
    runs of duplicates spanning 0..499, a float with both infinities at
    its ends, and text."""
    rng = np.random.default_rng(5)
    keys = np.sort(rng.integers(0, 500, _KIND_ROWS))
    keys[0], keys[-1] = 0, 499
    floats = np.sort(rng.random(_KIND_ROWS) * 10.0 - 5.0)
    floats[0], floats[-1] = -np.inf, np.inf
    words = np.array(
        sorted(f"w{int(value):03d}" for value in rng.integers(0, 200, _KIND_ROWS)),
        dtype=object,
    )
    database = Database("band_kinds")
    database.add_table(
        Table.from_arrays("fact", {"k": keys, "x": floats, "s": words}),
        validate_key=False,
    )
    return database


# Each band beside the same predicate evaluated in numpy over the
# stored columns, so the counters are checked against rows, not against
# the search's own interval arithmetic.
_BOUND_CASES = {
    "int_below_min": ("f.k < 0", lambda c: c["k"] < 0),
    "int_from_min": ("f.k >= 0", lambda c: c["k"] >= 0),
    "int_to_max": ("f.k <= 499", lambda c: c["k"] <= 499),
    "int_above_max": ("f.k > 499", lambda c: c["k"] > 499),
    "int_duplicate_run": ("f.k = 250", lambda c: c["k"] == 250),
    "int_point_between": (
        "f.k BETWEEN 250 AND 250", lambda c: (c["k"] >= 250) & (c["k"] <= 250)
    ),
    "int_above_fraction": ("f.k > 4.5", lambda c: c["k"] > 4.5),
    "int_to_fraction": ("f.k <= 4.5", lambda c: c["k"] <= 4.5),
    "int_equals_fraction": ("f.k = 4.5", lambda c: c["k"] == 4.5),
    "int_reversed_between": (
        "f.k BETWEEN 300 AND 100", lambda c: (c["k"] >= 300) & (c["k"] <= 100)
    ),
    "int_tied_bounds": (
        "f.k >= 10 AND f.k <= 10", lambda c: c["k"] == 10
    ),
    "int_literal_first": (
        "400 > f.k AND 100 <= f.k", lambda c: (c["k"] < 400) & (c["k"] >= 100)
    ),
    "int_negative_literal": ("f.k > -3", lambda c: c["k"] > -3),
    "float_below_zero": ("f.x < 0.0", lambda c: c["x"] < 0.0),
    "float_half_open": (
        "f.x >= 0.0 AND f.x < 2.5", lambda c: (c["x"] >= 0.0) & (c["x"] < 2.5)
    ),
    "float_takes_inf": ("f.x > 4.999", lambda c: c["x"] > 4.999),
    "float_takes_minus_inf": ("f.x <= -4.999", lambda c: c["x"] <= -4.999),
    "text_ray": ("f.s >= 'w100'", lambda c: c["s"] >= "w100"),
    "text_between": (
        "f.s BETWEEN 'w010' AND 'w020'",
        lambda c: (c["s"] >= "w010") & (c["s"] <= "w020"),
    ),
    "text_below_every_value": ("f.s < 'a'", lambda c: c["s"] < "a"),
    "text_equality": ("f.s = 'w150'", lambda c: c["s"] == "w150"),
}


@pytest.fixture(scope="module")
def kinds_database():
    return _kinds_database()


@pytest.mark.parametrize("case", list(_BOUND_CASES))
@pytest.mark.parametrize("parallelism", [1, 4])
def test_band_bounds_on_every_column_kind(kinds_database, case, parallelism):
    """Bounds below, on and above the stored values, on duplicate runs,
    between integers and at the infinities: the search answers each as
    sqlite does, and its counters equal the rows and morsels the
    predicate rejects."""
    condition, reference = _BOUND_CASES[case]
    sql = f"SELECT COUNT(*) AS c FROM fact f WHERE {condition}"
    spec, result, answered = _run(
        kinds_database, sql, parallelism=parallelism, morsel_rows=_MORSEL_ROWS
    )
    assert answered == {"Scan(f:fact)": "band"}
    assert_matches_sqlite(kinds_database, sql, result, spec)
    table = kinds_database.table("fact")
    mask = np.asarray(
        reference({name: table.column(name) for name in ("k", "x", "s")}),
        dtype=bool,
    )
    assert result.scalar("c") == int(mask.sum())
    assert result.metrics.rows_skipped == _KIND_ROWS - int(mask.sum())
    assert result.metrics.morsels_pruned == sum(
        not mask[morsel.start:morsel.stop].any()
        for morsel in table.morsels(_MORSEL_ROWS, min_morsels=parallelism)
    )
