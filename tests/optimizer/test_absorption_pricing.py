"""Absorption priced at plan time matches what the engine elides.

Plan search prices a PK-FK join whose own exact filter will stand in
for it as that filter alone (``repro.cost.physical.Absorption``).  That
is only honest if the executor then does elide it: every join a BQO
plan is priced with as absorbed must be elided when the plan runs with
exact filters.  The converse need not hold, and each join elided but
not priced as absorbed is named by its cause.  With the pricing in
place, Theorem 4.1's plan is the one BQO picks for a star whose
dimensions all reduce the fact and are never read.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.obs import Tracer
from repro.optimizer.pipelines import optimize_query
from repro.plan.builder import output_reads
from repro.plan.nodes import AggregateNode, HashJoinNode, ScanNode
from repro.service import QueryService
from repro.sql.binder import parse_query
from repro.stats.estimator import CardinalityEstimator
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from repro.workloads import star
from star_statements import COLD_CONSTANTS, WARM_CONSTANTS, star_statements
from test_plan_stability import WORKLOADS


def _elided(executor: Executor, plan) -> set[int]:
    tracer = Tracer()
    executor.execute(plan, tracer=tracer)
    return {
        span.attributes["node_id"]
        for span in tracer.spans("node")
        if span.attributes.get("elided")
    }


def _unpriced_cause(join: HashJoinNode) -> str | None:
    """Why the model could not name an elided join ahead of execution."""
    if not isinstance(join.build, ScanNode):
        # Its build keys came out distinct at run time; the model only
        # knows a scan's declared key.
        return "collapsed composite build side"
    return None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_join_priced_as_absorbed_is_elided(workload):
    module, scale = WORKLOADS[workload]
    database, specs = module.build(scale=scale)
    executor = Executor(database)
    priced = 0
    for spec in specs:
        optimized = optimize_query(database, spec, "bqo")
        elided = _elided(executor, optimized.plan)
        assert optimized.absorbed <= elided, spec.name
        priced += len(optimized.absorbed)
        joins = {node.node_id: node for node in optimized.plan.walk()}
        for node_id in elided - optimized.absorbed:
            assert _unpriced_cause(joins[node_id]) is not None, (
                spec.name, joins[node_id].label
            )
    assert priced > 0


def test_a_float_key_join_is_priced_as_executed():
    """A float key has no stored dictionary: the executor compares its
    values and elides nothing, so the model must not price it absorbed."""
    rng = np.random.default_rng(5)
    database = Database("float_probe")
    database.add_table(
        Table.from_arrays(
            "dim1", {"id": np.arange(40), "v": np.arange(40) % 7}, key=("id",)
        )
    )
    database.add_table(
        Table.from_arrays(
            "fact", {"fk1": rng.integers(0, 60, 2_000).astype(np.float64)}
        )
    )
    database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
    integral = Database("integer_probe")
    for name in ("dim1", "fact"):
        columns = {
            column: database.table(name).column(column).astype(np.int64)
            for column in database.table(name).column_names
        }
        key = ("id",) if name == "dim1" else ()
        integral.add_table(Table.from_arrays(name, columns, key=key))
    integral.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
    sql = (
        "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
        "WHERE f.fk1 = d1.id AND d1.v < 3"
    )
    absorbed = {}
    for db in (database, integral):
        optimized = optimize_query(db, parse_query(db, sql, "q"), "bqo")
        assert optimized.absorbed == _elided(Executor(db), optimized.plan)
        absorbed[db.name] = len(optimized.absorbed)
    assert absorbed == {"float_probe": 0, "integer_probe": 1}


def _reduces_every_dimension(database, spec, fact: str) -> bool:
    """Every dimension is filtered to less than half its rows and the
    output reads the fact alone."""
    read = output_reads(spec)
    if read is None or read - {fact}:
        return False
    estimator = CardinalityEstimator(database, spec.alias_tables)
    for alias in spec.aliases:
        if alias == fact:
            continue
        predicate = spec.local_predicate(alias)
        if predicate is None:
            return False
        kept = estimator.base_cardinality(alias, predicate)
        if kept >= 0.5 * estimator.table_rows(alias):
            return False
    return True


def test_theorem_4_1_star_plan_stacks_every_filter_on_the_fact_scan():
    """The fact scan at the bottom, each dimension built on top of it,
    every dimension's filter checked at that scan, every join absorbed."""
    database, specs = star.build(scale=0.05)
    corpus = list(specs) + [
        parse_query(database, sql, f"star_{index}")
        for constants in (COLD_CONSTANTS, WARM_CONSTANTS)
        for index, sql in enumerate(star_statements(constants))
    ]
    checked = 0
    for spec in corpus:
        if not _reduces_every_dimension(database, spec, "lo"):
            continue
        optimized = optimize_query(database, spec, "bqo")
        assert isinstance(optimized.plan, AggregateNode)
        node, joins = optimized.plan.child, []
        while isinstance(node, HashJoinNode):
            assert isinstance(node.build, ScanNode), spec.name
            joins.append(node)
            node = node.probe
        assert isinstance(node, ScanNode) and node.alias == "lo", spec.name
        assert len(joins) == len(spec.aliases) - 1
        assert {bv.filter_id for bv in node.applied_bitvectors} == {
            join.created_bitvector.filter_id for join in joins
        }, spec.name
        assert optimized.absorbed == {join.node_id for join in joins}, spec.name
        checked += 1
    assert checked >= 20


_STAR_DB_STATEMENTS = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < 4",
    "SELECT COUNT(*) AS cnt, SUM(f.m) AS total FROM fact f, dim1 d1, "
    "dim2 d2 WHERE f.fk1 = d1.id AND f.fk2 = d2.id AND d1.v < 5 "
    "AND d2.w < 6",
    "SELECT d1.v, COUNT(*) AS cnt FROM fact f, dim1 d1, dim2 d2 "
    "WHERE f.fk1 = d1.id AND f.fk2 = d2.id AND d1.v < 5 AND d2.w < 3 "
    "GROUP BY d1.v",
    "SELECT f.m FROM fact f, dim1 d1 WHERE f.fk1 = d1.id AND d1.v < 2 "
    "ORDER BY f.m LIMIT 5",
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 WHERE f.fk1 = d1.id",
)


def _marked_joins(rendered: str, marker: str) -> list[str]:
    """The join lines carrying ``marker``, without their annotations."""
    return [
        re.sub(r"\s+--.*", "", line).strip()
        for line in rendered.splitlines()
        if "HashJoin" in line and marker in line
    ]


@pytest.mark.parametrize("sql", _STAR_DB_STATEMENTS)
def test_explain_marks_exactly_the_joins_execution_elides(star_db, sql):
    service = QueryService(star_db)
    absorbed = _marked_joins(service.explain(sql), "[absorbed]")
    elided = _marked_joins(service.explain_analyze(sql), "[elided")
    assert absorbed == elided


def test_explain_marks_nothing_under_bloom_filters(star_db):
    sql = _STAR_DB_STATEMENTS[1]
    assert _marked_joins(QueryService(star_db).explain(sql), "[absorbed]")
    service = QueryService(star_db, filter_kind="blocked_bloom")
    assert _marked_joins(service.explain(sql), "[absorbed]") == []
    assert _marked_joins(service.explain_analyze(sql), "[elided") == []
