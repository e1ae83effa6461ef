"""An aggregate without ``GROUP BY`` answers ``COUNT(*)`` from the row
count and an integer ``SUM`` / ``AVG`` from one exact int64 sum, and
both are bit-identical to the sequential float ``np.bincount`` over an
all-zeros group index that they replace.

The int64 sum is taken only while ``max|v| * n < 2**53``: every partial
sum of the float accumulation is then an exactly representable integer.
Past that bound the float accumulation rounds, so the sum stays on the
``bincount`` — the fallback case below is chosen so that the exact sum
and the float one differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import Executor, _exact_total
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.table import Table

_BIG = 2 ** 52

_COLUMNS = {
    "ints": np.arange(1, 1_001, dtype=np.int64) * 7_919,
    "negatives": np.arange(-600, 400, dtype=np.int64) * 104_729,
    "floats": np.round(np.random.default_rng(3).normal(size=1_000), 6),
    # max|v| * n == 2**53 - 1000: the widest still summed in int64.
    "edge": np.full(1_000, (2 ** 53 - 1_000) // 1_000, dtype=np.int64),
    # 2**52 + 2**52 + 1 + 1: the float accumulation stalls at 2**53.
    "overflow": np.array([_BIG, _BIG] + [1] * 998, dtype=np.int64),
}


def _reference(values: np.ndarray) -> np.ndarray:
    return np.bincount(
        np.zeros(len(values), dtype=np.int64),
        weights=values.astype(np.float64),
        minlength=1,
    )


def _database() -> Database:
    database = Database("one_group")
    database.add_table(
        Table.from_arrays("t", {"k": np.arange(1_000), **_COLUMNS})
    )
    return database


@pytest.mark.parametrize("column", sorted(_COLUMNS))
@pytest.mark.parametrize("where", ["", " WHERE t.k < 0"])
def test_sum_avg_count_bit_identical_to_bincount(column, where):
    database = _database()
    sql = (
        f"SELECT COUNT(*) AS c, SUM(t.{column}) AS s, AVG(t.{column}) AS a "
        f"FROM t{where}"
    )
    plan = optimize_query(database, parse_query(database, sql, "q"), "bqo").plan
    aggregates = Executor(database).execute(plan).aggregates
    values = _COLUMNS[column][:0] if where else _COLUMNS[column]
    sums = _reference(values)
    counts = np.bincount(
        np.zeros(len(values), dtype=np.int64), minlength=1
    ).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        averages = np.where(counts > 0, sums / counts, np.nan)
    assert aggregates["c"].tobytes() == counts.tobytes()
    assert aggregates["s"].tobytes() == sums.tobytes()
    assert aggregates["a"].tobytes() == averages.tobytes()


def test_int64_sum_only_below_two_to_the_53():
    assert _exact_total(_COLUMNS["floats"]) is None
    assert _exact_total(_COLUMNS["edge"]) is not None
    overflow = _COLUMNS["overflow"]
    assert _exact_total(overflow) is None
    # Why: the exact sum is not what the float accumulation gives.
    assert int(overflow.sum()) != int(_reference(overflow)[0])
    assert _exact_total(np.array([], dtype=np.int64)).tobytes() == (
        _reference(np.array([], dtype=np.int64)).tobytes()
    )
