"""Zone-map morsel pruning: byte-identity with the unpruned engine.

The correctness contract of the pruning subsystem
(:mod:`repro.storage.zonemaps`): the executor may skip a morsel only
when zone-map bounds *prove* it contributes nothing, so execution with
``zone_maps=True`` must be byte-identical to ``zone_maps=False`` — for
every filter kind, every column layout (clustered, shuffled, constant,
all-NaN), and at ``parallelism`` 1 and 4.  The tests sweep exactly that
grid and additionally pin down the pruning counters: positive where
skipping is provable, zero where it is not (and always zero with the
flag off).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.table import Table

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
    database = Database(f"zp_{layout}")
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
    # Range predicate on the fact key (prunable when clustered).
    "SELECT COUNT(*) AS c, SUM(f.v) AS s FROM fact f "
    "WHERE f.k BETWEEN 100 AND 149",
    # Equality + IN on the key; impossible band (prunes everything).
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k = 42",
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k IN (5, 300, 999)",
    "SELECT COUNT(*) AS c FROM fact f WHERE f.k > 5000",
    # Predicates over the float measure (NaN semantics; <> is TRUE for
    # NaN rows, so all-NaN morsels must never be pruned for it).
    "SELECT COUNT(*) AS c FROM fact f WHERE f.v < 1.5",
    "SELECT COUNT(*) AS c FROM fact f WHERE f.v <> 1.5",
    # Equality on the text column (string-interval pruning; the
    # unorderable "no information" state is unit-tested in
    # tests/storage/test_zonemaps.py — the stats layer predates support
    # for None-bearing text columns, so it cannot flow through plans).
    "SELECT COUNT(*) AS c FROM fact f WHERE f.tag = 'tag3'",
    # Text predicate rides along (LIKE itself never prunes).
    "SELECT COUNT(*) AS c FROM fact f "
    "WHERE f.k < 200 AND f.tag LIKE 'tag1%'",
    # Selective join: the dimension induces a bitvector on the fact
    # scan whose key bounds cover only a band.
    "SELECT COUNT(*) AS c, SUM(f.v) AS s FROM fact f, dim d "
    "WHERE f.k = d.d AND d.d BETWEEN 100 AND 149",
    # Unselective join (no filter below the threshold): join-level
    # pruning path.
    "SELECT COUNT(*) AS c FROM fact f, dim d WHERE f.k = d.d",
]


def _run_all(database, queries, **executor_kwargs):
    executor = Executor(database, **executor_kwargs)
    results = []
    for index, sql in enumerate(queries):
        plan = optimize_query(
            database, parse_query(database, sql, f"q{index}"), "bqo"
        ).plan
        results.append(executor.execute(plan))
    return results


@pytest.mark.parametrize(
    "layout", ["clustered", "shuffled", "constant", "all_null"]
)
@pytest.mark.parametrize("filter_kind", ["exact", "bloom", "blocked_bloom"])
@pytest.mark.parametrize("parallelism", [1, 4])
def test_pruned_equals_unpruned(layout, filter_kind, parallelism):
    database = _build_database(layout)
    baseline = _run_all(
        database, _QUERIES,
        filter_kind=filter_kind, zone_maps=False,
        parallelism=parallelism, morsel_rows=_MORSEL_ROWS,
    )
    pruned = _run_all(
        database, _QUERIES,
        filter_kind=filter_kind, zone_maps=True,
        parallelism=parallelism, morsel_rows=_MORSEL_ROWS,
    )
    for index, (want, got) in enumerate(zip(baseline, pruned)):
        assert want.aggregates.keys() == got.aggregates.keys()
        for label in want.aggregates:
            expected = want.aggregates[label]
            actual = got.aggregates[label]
            assert actual.dtype == expected.dtype
            assert np.array_equal(
                actual, expected, equal_nan=True
            ), (
                f"{layout}/{filter_kind}/p{parallelism} drift on query "
                f"{index} ({label}): {expected} vs {actual}"
            )
        assert want.metrics.morsels_pruned == 0
        assert want.metrics.rows_skipped == 0


def test_counters_fire_on_clustered_layout():
    database = _build_database("clustered")
    results = _run_all(
        database, _QUERIES, zone_maps=True, morsel_rows=_MORSEL_ROWS
    )
    pruned = sum(result.metrics.morsels_pruned for result in results)
    skipped = sum(result.metrics.rows_skipped for result in results)
    assert pruned > 0
    assert skipped > 0
    # The impossible band (k > 5000 over a [0, 1000) domain) prunes the
    # entire table without evaluating the predicate once.
    impossible = results[3]
    assert impossible.metrics.rows_skipped == _ROWS
    assert impossible.scalar("c") == 0


@pytest.mark.parametrize("query", [0, 8], ids=["scan_band", "join_band"])
@pytest.mark.parametrize("parallelism", [1, 4])
def test_clustered_key_band_skips_more_than_half_the_fact(query, parallelism):
    """The 5 % key band, as a scan predicate and as a join-induced
    filter, skips more than half of the clustered fact table by itself
    (a sum over several statements would hide a join that never
    prunes: the dimension's own band search adds skipped rows)."""
    database = _build_database("clustered")
    (result,) = _run_all(
        database, [_QUERIES[query]],
        zone_maps=True, parallelism=parallelism, morsel_rows=_MORSEL_ROWS,
    )
    assert result.metrics.rows_skipped > _ROWS // 2


def test_all_null_measure_prunes_everything():
    database = _build_database("all_null")
    results = _run_all(
        database, ["SELECT COUNT(*) AS c FROM fact f WHERE f.v < 1.5"],
        zone_maps=True, morsel_rows=_MORSEL_ROWS,
    )
    assert results[0].scalar("c") == 0
    assert results[0].metrics.rows_skipped == _ROWS


def test_shuffled_layout_prunes_nothing_on_fact():
    database = _build_database("shuffled")
    results = _run_all(
        database,
        ["SELECT COUNT(*) AS c FROM fact f WHERE f.k BETWEEN 100 AND 149"],
        zone_maps=True, morsel_rows=_MORSEL_ROWS,
    )
    # Every shuffled morsel spans (almost) the whole domain; nothing is
    # provably empty, and the unpruned path runs unchanged.
    assert results[0].metrics.morsels_pruned == 0
    assert results[0].scalar("c") > 0


def test_constant_column_prunes_all_or_nothing():
    database = _build_database("constant")
    hit, miss = _run_all(
        database,
        [
            "SELECT COUNT(*) AS c FROM fact f WHERE f.k = 42",
            "SELECT COUNT(*) AS c FROM fact f WHERE f.k = 43",
        ],
        zone_maps=True, morsel_rows=_MORSEL_ROWS,
    )
    # A constant column is trivially sorted, so both equality queries
    # are answered by the clustered band search — two binary searches,
    # zero row-wise evaluations (all rows count as skipped *work*,
    # whether kept or not).
    assert hit.scalar("c") == _ROWS
    assert hit.metrics.morsels_pruned == 0
    assert hit.metrics.morsels_band_searched > 0
    assert hit.metrics.rows_skipped == _ROWS
    assert miss.scalar("c") == 0
    assert miss.metrics.morsels_band_searched > 0
    assert miss.metrics.rows_skipped == _ROWS


def test_constant_morsel_short_circuit_without_band():
    """An OR of bands is not one band, so the band search stands aside
    and the constant-morsel short-circuit keeps morsels whole."""
    database = _build_database("constant")
    (hit,) = _run_all(
        database,
        ["SELECT COUNT(*) AS c FROM fact f WHERE f.k = 42 OR f.k = 43"],
        zone_maps=True, morsel_rows=_MORSEL_ROWS,
    )
    assert hit.scalar("c") == _ROWS
    assert hit.metrics.morsels_band_searched == 0
    assert hit.metrics.morsels_short_circuited > 0
    assert hit.metrics.rows_skipped == _ROWS


def test_clustered_band_search_replaces_morsel_checks():
    """On the clustered layout a BETWEEN band is answered entirely by
    binary search: byte-identical rows, no per-morsel prune flags."""
    database = _build_database("clustered")
    (banded,) = _run_all(
        database,
        ["SELECT COUNT(*) AS c, SUM(f.v) AS s FROM fact f "
         "WHERE f.k BETWEEN 100 AND 149"],
        zone_maps=True, morsel_rows=_MORSEL_ROWS,
    )
    (plain,) = _run_all(
        database,
        ["SELECT COUNT(*) AS c, SUM(f.v) AS s FROM fact f "
         "WHERE f.k BETWEEN 100 AND 149"],
        zone_maps=False, morsel_rows=_MORSEL_ROWS,
    )
    assert banded.metrics.morsels_band_searched > 0
    assert banded.metrics.rows_skipped == _ROWS
    for label in plain.aggregates:
        assert np.array_equal(
            banded.aggregates[label], plain.aggregates[label]
        )
        assert banded.aggregates[label].dtype == plain.aggregates[label].dtype


_TOPK_QUERIES = [
    "SELECT f.k, f.v FROM fact f ORDER BY f.k DESC LIMIT 50",
    "SELECT f.k, f.v FROM fact f ORDER BY f.k ASC LIMIT 80",
    "SELECT f.k, f.v FROM fact f ORDER BY f.k DESC, f.v ASC LIMIT 30",
]


@pytest.mark.parametrize(
    "sql", _TOPK_QUERIES, ids=["desc", "asc", "desc_then_asc"]
)
def test_topk_early_exit_prunes_and_equals_the_full_sort(sql):
    """A clustered ``ORDER BY ... LIMIT`` scan skips morsels whose key
    bounds cannot reach the top k, and returns the full sort's rows."""
    database = _build_database("clustered")
    (got,) = _run_all(
        database, [sql], zone_maps=True, morsel_rows=_MORSEL_ROWS
    )
    (want,) = _run_all(
        database, [sql], zone_maps=False, morsel_rows=_MORSEL_ROWS
    )
    assert got.metrics.morsels_pruned > 0
    assert got.relation.num_rows > 0
    for column in ("k", "v"):
        assert np.array_equal(
            got.relation.column("f", column),
            want.relation.column("f", column),
        ), column
