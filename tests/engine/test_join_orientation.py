"""The run-time side choice, seen from the executor.

``T(c, s)`` puts the fact table ``sales`` on the *build* side of its
PK-FK join with ``customer`` — the shape the paper's plan space produces
whenever a snowflake branch is joined first.  The build side is larger
and repeats keys, so the kernel indexes the customers and streams the
sales through them.  Whatever the configuration — serial or
morsel-parallel, filter pushed down or not — the join must orient the
same way and emit the same rows in the
same order: the double loop's pairs, build-row major.  The answers are
also held to stdlib ``sqlite3`` (``tests/sqlite_reference.py``).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.obs import Tracer
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.nodes import HashJoinNode
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.service import QueryService
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from sqlite_reference import assert_matches_sqlite

_CUSTOMERS, _SALES = 30_000, 40_000
_MORSEL_ROWS = 2_048

_CONFIGS = [dict(parallelism=1), dict(parallelism=4)]


@pytest.fixture(scope="module")
def database() -> Database:
    """Customers clustered on their key; every sale by a customer of one
    narrow key band, so most customers match no sale."""
    rng = np.random.default_rng(22)
    database = Database("fact_on_build")
    database.add_table(
        Table.from_arrays(
            "customer",
            {"id": np.arange(_CUSTOMERS), "seg": rng.integers(0, 5, _CUSTOMERS)},
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "sales",
            {
                "cust": rng.integers(5_000, 9_000, _SALES),
                "paid": np.round(rng.random(_SALES) * 100.0, 2),
            },
        )
    )
    database.add_foreign_key(
        ForeignKey("sales", ("cust",), "customer", ("id",))
    )
    return database


def _plan(database: Database, sql: str, filters: bool):
    spec = parse_query(database, sql, "fact_on_build")
    plan = build_right_deep(JoinGraph(spec, database.catalog), ["c", "s"])
    (join,) = [n for n in plan.walk() if isinstance(n, HashJoinNode)]
    assert join.build.output_aliases == {"s"}
    join.creates_bitvector = filters
    return attach_aggregate(push_down_bitvectors(plan), spec)


def _run(database: Database, plan, **config):
    tracer = Tracer()
    result = Executor(database, morsel_rows=_MORSEL_ROWS, **config).execute(
        plan, tracer=tracer
    )
    (join,) = [
        span for span in tracer.spans("node") if "indexed" in span.attributes
    ]
    return result, join.attributes


@pytest.mark.parametrize("filters", [False, True], ids=["nofilter", "filter"])
def test_rows_come_out_build_major_under_every_configuration(database, filters):
    sql = (
        "SELECT s.paid, c.seg FROM customer c, sales s "
        "WHERE s.cust = c.id AND c.seg < 4"
    )
    plan = _plan(database, sql, filters)
    sales, customer = database.table("sales"), database.table("customer")
    # Each sale matches its one customer: build-row major is sale order.
    keep = customer.column("seg")[sales.column("cust")] < 4
    want_paid = sales.column("paid")[keep]
    want_seg = customer.column("seg")[sales.column("cust")[keep]]
    for config in _CONFIGS:
        result, join = _run(database, plan, **config)
        assert join["indexed"] == "probe", config
        relation = result.relation
        assert relation.column("s", "paid").tobytes() == want_paid.tobytes()
        assert relation.column("c", "seg").tobytes() == want_seg.tobytes()
    assert_matches_sqlite(
        database, sql, result, parse_query(database, sql, "fact_on_build")
    )


def test_unfiltered_join_indexes_the_whole_probe(database):
    """No filter, both inputs whole tables: the whole customer table is
    indexed, most of it matchless, and the answer does not notice."""
    sql = (
        "SELECT COUNT(*) AS cnt, SUM(s.paid) AS paid, SUM(c.seg) AS segs "
        "FROM customer c, sales s WHERE s.cust = c.id"
    )
    plan = _plan(database, sql, filters=False)
    answers = set()
    for config in _CONFIGS:
        result, join = _run(database, plan, **config)
        assert join["indexed"] == "probe", config
        answers.add(
            tuple(
                (label, np.asarray(values).tobytes())
                for label, values in sorted(result.aggregates.items())
            )
        )
        # Every sale found its customer, in order: the build side is
        # merged as it is; nothing above reads a join key's alias only.
        assert join["identity"] == "build" and join["dropped"] == "-"
    assert len(answers) == 1
    (answer,) = answers
    assert dict(answer)["cnt"] == np.int64(_SALES).tobytes()
    assert_matches_sqlite(
        database, sql, result, parse_query(database, sql, "fact_on_build")
    )


def test_explain_analyze_says_how_each_join_ran(database):
    """Which side was indexed, which sides were merged as they were and
    which aliases stopped being carried — on the join's line."""
    rendered = QueryService(database).explain_analyze(
        "SELECT COUNT(*) AS cnt, SUM(s.paid) AS paid "
        "FROM customer c, sales s WHERE s.cust = c.id"
    )
    (join_line,) = [
        line for line in rendered.splitlines() if "HashJoin" in line
    ]
    assert re.search(
        r"\[indexed=(build|probe), identity=(build|probe|both|none), "
        r"dropped=c\]",
        join_line,
    ), join_line
