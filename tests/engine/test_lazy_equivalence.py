"""Engine equivalence: every filter kind, on randomized star and
snowflake workloads and under several join orders, must answer as
stdlib ``sqlite3`` does (``tests/sqlite_reference.py``).  The specs are
built programmatically, so the test renders each one to SQL for sqlite.
"""

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.expr.expressions import Comparison, col, lit
from repro.filters import FILTER_KINDS
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.query.spec import Aggregate, JoinPredicate, QuerySpec, RelationRef
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from sqlite_reference import assert_matches_sqlite


def _random_star(seed: int, snowflake: bool) -> tuple[Database, QuerySpec, list[list[str]]]:
    """A randomized star (or snowflake: dim2 -> subdim chain) workload."""
    rng = np.random.default_rng(seed)
    n_dim1 = int(rng.integers(20, 120))
    n_dim2 = int(rng.integers(20, 120))
    n_sub = int(rng.integers(5, 30))
    n_fact = int(rng.integers(500, 4000))

    database = Database(f"rand_{seed}")
    database.add_table(
        Table.from_arrays(
            "dim1",
            {
                "id": np.arange(n_dim1),
                "v": rng.integers(0, 10, n_dim1),
                "tag": rng.choice(
                    np.array(["x", "y", "z"], dtype=object), n_dim1
                ),
            },
            key=("id",),
        )
    )
    dim2_columns = {
        "id": np.arange(n_dim2),
        "w": rng.integers(0, 8, n_dim2),
    }
    if snowflake:
        dim2_columns["sub_fk"] = rng.integers(0, n_sub, n_dim2)
    database.add_table(Table.from_arrays("dim2", dim2_columns, key=("id",)))
    if snowflake:
        database.add_table(
            Table.from_arrays(
                "subdim",
                {"id": np.arange(n_sub), "u": rng.integers(0, 5, n_sub)},
                key=("id",),
            )
        )
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk1": rng.integers(0, n_dim1, n_fact),
                "fk2": rng.integers(0, n_dim2, n_fact),
                "m": np.round(rng.normal(size=n_fact), 6),
            },
        )
    )
    database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
    database.add_foreign_key(ForeignKey("fact", ("fk2",), "dim2", ("id",)))
    if snowflake:
        database.add_foreign_key(ForeignKey("dim2", ("sub_fk",), "subdim", ("id",)))

    relations = [
        RelationRef("f", "fact"),
        RelationRef("a", "dim1"),
        RelationRef("b", "dim2"),
    ]
    joins = [
        JoinPredicate("f", ("fk1",), "a", ("id",)),
        JoinPredicate("f", ("fk2",), "b", ("id",)),
    ]
    orders = [["f", "a", "b"], ["a", "f", "b"], ["b", "f", "a"]]
    if snowflake:
        relations.append(RelationRef("sd", "subdim"))
        joins.append(JoinPredicate("b", ("sub_fk",), "sd", ("id",)))
        orders = [["f", "a", "b", "sd"], ["sd", "b", "f", "a"]]

    spec = QuerySpec(
        name=f"q_{seed}",
        relations=tuple(relations),
        join_predicates=tuple(joins),
        local_predicates={
            "a": Comparison("<", col("a", "v"), lit(int(rng.integers(2, 9)))),
            "b": Comparison("<", col("b", "w"), lit(int(rng.integers(2, 7)))),
        },
        aggregates=(
            Aggregate("count", label="cnt"),
            Aggregate("sum", col("f", "m"), label="total"),
            Aggregate("min", col("f", "m"), label="lo"),
        ),
        group_by=(col("a", "tag"),),
    )
    return database, spec, orders


def _plans(database: Database, spec: QuerySpec, orders):
    graph = JoinGraph(spec, database.catalog)
    return [
        attach_aggregate(
            push_down_bitvectors(build_right_deep(graph, order)), spec
        )
        for order in orders
    ]


def _sql(spec: QuerySpec) -> str:
    """The SQL text of one generated spec (joins, local predicates,
    aggregates and GROUP BY — all the generator produces)."""
    group_by = ", ".join(str(ref) for ref in spec.group_by)
    select = [str(ref) for ref in spec.group_by] + [
        f"{aggregate} AS {aggregate.label}" for aggregate in spec.aggregates
    ]
    where = [str(join) for join in spec.join_predicates] + [
        str(predicate) for predicate in spec.local_predicates.values()
    ]
    return (
        f"SELECT {', '.join(select)}"
        f" FROM {', '.join(f'{r.table} {r.alias}' for r in spec.relations)}"
        f" WHERE {' AND '.join(where)} GROUP BY {group_by}"
    )


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("snowflake", [False, True])
def test_every_filter_kind_matches_sqlite(filter_kind, seed, snowflake):
    database, spec, orders = _random_star(seed, snowflake)
    executor = Executor(database, filter_kind=filter_kind)
    sql = _sql(spec)
    for plan in _plans(database, spec, orders):
        assert_matches_sqlite(database, sql, executor.execute(plan), spec)
