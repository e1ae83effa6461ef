"""Stdlib ``sqlite3`` as the engine's reference oracle.

Every other identity check in the suite compares the engine with
itself: configurations that share one join kernel, one dictionary layer
and one aggregate loop cannot see a bug they all share.  This module
answers the same SQL with an engine the repository did not write.

:func:`connect` loads a :class:`~repro.storage.database.Database` into
an in-memory connection (one per database object and schema version)
with ``PRAGMA case_sensitive_like = ON``, because the engine's ``LIKE``
is case-sensitive.  One dialect mapping is applied to the statement:
``SUM`` runs as sqlite's ``TOTAL``, which is what the engine's ``SUM``
is — always a float, and ``0.0`` over no rows.  On the engine side a
non-finite float becomes NULL: ``MIN`` / ``MAX`` / ``AVG`` over no rows
(the engine's ``inf`` / ``-inf`` / ``NaN``, sqlite's NULL) and NaN data
(which sqlite stores as NULL).

:func:`assert_matches_sqlite` is the comparator:

* rows compare as multisets, in the engine's column order; float
  columns compare with ``math.isclose(rel_tol=1e-9, abs_tol=1e-9)``,
  everything else exactly (an integer column and a float column compare
  as floats: the engine's ``MIN`` / ``MAX`` are float);
* with ``ORDER BY``, the engine's sequence of sort keys must equal the
  first rows of sqlite's ordered result, and every returned row must
  be in sqlite's result *without* the ``LIMIT``, so rows tied on the
  sort keys at the limit cannot make the check flaky.
"""

from __future__ import annotations

import math
import re
import sqlite3
import weakref
from collections import defaultdict

import numpy as np

_REL_TOL = 1e-9
_ABS_TOL = 1e-9

# Database -> (schema_version, connection); dies with the database.
_CONNECTIONS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def connect(database) -> sqlite3.Connection:
    """An in-memory sqlite copy of every table of ``database``."""
    cached = _CONNECTIONS.get(database)
    if cached is not None and cached[0] == database.schema_version:
        return cached[1]
    connection = sqlite3.connect(":memory:")
    connection.execute("PRAGMA case_sensitive_like = ON")
    for name in database.table_names:
        table = database.table(name)
        columns = table.column_names
        quoted = ", ".join(f'"{column}"' for column in columns)
        connection.execute(f'CREATE TABLE "{name}" ({quoted})')
        connection.executemany(
            f'INSERT INTO "{name}" VALUES ({", ".join("?" * len(columns))})',
            zip(*(table.column(column).tolist() for column in columns)),
        )
    _CONNECTIONS[database] = (database.schema_version, connection)
    return connection


def sqlite_rows(database, sql: str, labels: list[str]) -> list[tuple]:
    """sqlite's answer to ``sql``, columns in the order of ``labels``
    (the engine's output labels: ``alias.column`` or an ``AS`` name)."""
    cursor = connect(database).execute(
        re.sub(r"\bSUM\s*\(", "TOTAL(", sql, flags=re.IGNORECASE)
    )
    names = [_name_key(description[0]) for description in cursor.description]
    order = []
    for label in labels:
        matches = [i for i, name in enumerate(names) if name == _name_key(label)]
        if len(matches) != 1:
            raise AssertionError(
                f"output {label!r} matches {len(matches)} sqlite columns "
                f"of {[d[0] for d in cursor.description]}"
            )
        order.append(matches[0])
    return [tuple(row[i] for i in order) for row in cursor.fetchall()]


def engine_rows(result, spec) -> tuple[list[str], list[tuple]]:
    """``(labels, rows)`` of one :class:`ExecutionResult`."""
    if result.aggregates is not None:
        labels = list(result.aggregates)
        columns = [np.asarray(result.aggregates[label]) for label in labels]
    else:
        labels = [str(ref) for ref in spec.select_columns]
        columns = [
            np.asarray(result.relation.column(ref.alias, ref.column))
            for ref in spec.select_columns
        ]
    rows = zip(*(column.tolist() for column in columns))
    return labels, [tuple(_engine_value(value) for value in row) for row in rows]


def assert_matches_sqlite(database, sql: str, result, spec) -> None:
    """The comparator of the module docstring; raises AssertionError."""
    labels, got = engine_rows(result, spec)
    want = sqlite_rows(database, _without_limit(sql), labels)
    got, want = _unify_numeric_columns(got, want)
    expected_rows = len(want) if spec.limit is None else min(spec.limit, len(want))
    assert len(got) == expected_rows, (
        f"{len(got)} rows, sqlite has {expected_rows}: {sql}"
    )
    missing = _first_unmatched(got, want)
    assert missing is None, f"row {missing} not in sqlite's answer: {sql}"
    positions = _sort_key_positions(spec, labels)
    if positions:
        got_keys = [tuple(row[i] for i in positions) for row in got]
        want_keys = [tuple(row[i] for i in positions) for row in want]
        for index, (have, expect) in enumerate(zip(got_keys, want_keys)):
            assert _rows_close(have, expect), (
                f"sort key {index}: {have} vs sqlite {expect}: {sql}"
            )


def _without_limit(sql: str) -> str:
    return re.sub(r"\s+LIMIT\s+\d+\s*;?\s*$", "", sql, flags=re.IGNORECASE)


def _name_key(name: str) -> str:
    """Engine label / sqlite column name, compared: no alias qualifier,
    no case or whitespace, ``TOTAL`` read back as ``SUM``."""
    key = re.sub(r"\s+", "", name).lower()
    if re.fullmatch(r"\w+\.\w+", key):
        key = key.split(".", 1)[1]
    return re.sub(r"^total\(", "sum(", key)


def _engine_value(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _unify_numeric_columns(got, want):
    """A column holding a float on either side compares as floats."""
    rows = got + want
    if not rows:
        return got, want
    floats = [
        any(isinstance(row[i], float) for row in rows)
        for i in range(len(rows[0]))
    ]

    def convert(row):
        return tuple(
            float(value) if is_float and value is not None else value
            for value, is_float in zip(row, floats)
        )

    return [convert(row) for row in got], [convert(row) for row in want]


def _value_key(value):
    if value is None:
        return (0, 0)
    if isinstance(value, str):
        return (2, value)
    return (1, value)


def _split(row) -> tuple[tuple, tuple]:
    """(exact part, float part) of one row, each sortable."""
    exact = tuple(_value_key(v) for v in row if not isinstance(v, float))
    approx = tuple(_value_key(v) for v in row if isinstance(v, float))
    return exact, approx


def _values_close(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    return left == right


def _rows_close(left, right) -> bool:
    return len(left) == len(right) and all(
        _values_close(a, b) for a, b in zip(left, right)
    )


def _first_unmatched(got, want):
    """The first row of ``got`` with no distinct partner in ``want``
    (exact on non-float values, tolerant on floats), or None.

    Rows are bucketed by their exact part; inside a bucket both sides
    are sorted on the float part and matched by one forward walk."""
    pool: dict[tuple, list] = defaultdict(list)
    for row in want:
        pool[_split(row)[0]].append(row)
    asked: dict[tuple, list] = defaultdict(list)
    for row in got:
        asked[_split(row)[0]].append(row)
    for exact, rows in asked.items():
        candidates = sorted(pool.get(exact, []), key=lambda r: _split(r)[1])
        position = 0
        for row in sorted(rows, key=lambda r: _split(r)[1]):
            while position < len(candidates) and not _rows_close(
                row, candidates[position]
            ) and _split(candidates[position])[1] < _split(row)[1]:
                position += 1
            if position == len(candidates) or not _rows_close(
                row, candidates[position]
            ):
                return row
            position += 1
    return None


def _sort_key_positions(spec, labels: list[str]) -> list[int]:
    """Output positions of the ORDER BY keys, up to the first one the
    output does not carry (a hidden aggregate)."""
    positions = []
    for key in spec.order_by:
        label = key.target if isinstance(key.target, str) else str(key.target)
        if label not in labels:
            break
        positions.append(labels.index(label))
    return positions
