"""``SUM`` and ``AVG`` skip NaN the way SQL skips NULL.

sqlite stores a NaN as NULL: ``TOTAL`` (the engine's ``SUM``) adds the
other values, 0.0 over none, and ``AVG`` averages the other values,
NULL over none.  The engine recomputes only a group whose float sum
came out NaN; every other group keeps its ``np.bincount`` sum bit for
bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.table import Table
from sqlite_reference import assert_matches_sqlite

_ROWS = 400


def _database() -> Database:
    rng = np.random.default_rng(8)
    groups = np.arange(_ROWS) % 4
    values = np.round(rng.normal(size=_ROWS) * 100.0, 3)
    values[(groups == 1) & (np.arange(_ROWS) % 3 == 0)] = np.nan  # some
    values[groups == 2] = np.nan  # all
    # Group 3: no NaN, but infinities of both signs (NaN by arithmetic).
    values[[3, 7]] = np.inf, -np.inf
    database = Database("nan_aggregates")
    database.add_table(
        Table.from_arrays("t", {"g": groups, "v": values, "w": values * 0.5})
    )
    return database


def _run(database, sql):
    spec = parse_query(database, sql, "q")
    plan = optimize_query(database, spec, "bqo").plan
    return spec, Executor(database).execute(plan)


_QUERIES = [
    "SELECT t.g, COUNT(*) AS c, SUM(t.v) AS s, AVG(t.v) AS a FROM t GROUP BY t.g",
    "SELECT COUNT(*) AS c, SUM(t.v) AS s, AVG(t.w) AS a FROM t WHERE t.g = 2",
    "SELECT COUNT(*) AS c, SUM(t.v) AS s, AVG(t.v) AS a FROM t WHERE t.g = 1",
    "SELECT COUNT(*) AS c, SUM(t.v) AS s FROM t WHERE t.g <> 3",
]


@pytest.mark.parametrize("query", range(len(_QUERIES)))
def test_answers_match_sqlite(query):
    database = _database()
    spec, result = _run(database, _QUERIES[query])
    assert_matches_sqlite(database, _QUERIES[query], result, spec)


def test_groups_without_nan_keep_their_bincount_sums():
    database = _database()
    _, result = _run(database, _QUERIES[0])
    values = database.table("t").column("v")
    groups = database.table("t").column("g")
    reference = np.bincount(groups, weights=values, minlength=4)
    aggregates = result.aggregates
    assert aggregates["c"].tolist() == [100, 100, 100, 100]
    assert aggregates["s"][0] == reference[0]  # bit for bit
    assert np.isnan(reference[3]) and np.isnan(aggregates["s"][3])
    kept = values[groups == 1]
    kept = kept[~np.isnan(kept)]
    assert aggregates["s"][1] == pytest.approx(kept.sum())
    assert aggregates["a"][1] == pytest.approx(kept.mean())
    assert aggregates["s"][2] == 0.0
    assert np.isnan(aggregates["a"][2])
