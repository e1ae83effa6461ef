"""Shared fixtures: small databases and query specs used across suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.expr.expressions import Comparison, col, lit
from repro.query.spec import Aggregate, JoinPredicate, QuerySpec, RelationRef
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table


@pytest.fixture(scope="session")
def star_db() -> Database:
    """A small 2-dimension star database with skew-free FKs."""
    rng = np.random.default_rng(42)
    n_dim, n_fact = 100, 5000
    database = Database("star_test")
    database.add_table(
        Table.from_arrays(
            "dim1",
            {"id": np.arange(n_dim), "v": rng.integers(0, 10, n_dim)},
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "dim2",
            {"id": np.arange(n_dim), "w": rng.integers(0, 10, n_dim)},
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk1": rng.integers(0, n_dim, n_fact),
                "fk2": rng.integers(0, n_dim, n_fact),
                "m": rng.normal(size=n_fact),
            },
        )
    )
    database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
    database.add_foreign_key(ForeignKey("fact", ("fk2",), "dim2", ("id",)))
    return database


@pytest.fixture(scope="session")
def star_spec() -> QuerySpec:
    """COUNT(*) star query over ``star_db`` with one dim predicate."""
    return QuerySpec(
        name="star_q",
        relations=(
            RelationRef("f", "fact"),
            RelationRef("d1", "dim1"),
            RelationRef("d2", "dim2"),
        ),
        join_predicates=(
            JoinPredicate("f", ("fk1",), "d1", ("id",)),
            JoinPredicate("f", ("fk2",), "d2", ("id",)),
        ),
        local_predicates={"d1": Comparison("<", col("d1", "v"), lit(3))},
        aggregates=(Aggregate("count", label="cnt"),),
    )


@pytest.fixture(scope="session")
def residual_spec() -> QuerySpec:
    """Three relations over ``star_db`` where ``c`` joins both ``a`` and
    ``b``: in ``T(a, b, c)`` c's filter references two aliases, cannot
    descend past the join that combines them, and stays above it as a
    residual ``FilterNode``."""
    return QuerySpec(
        name="residual_q",
        relations=(
            RelationRef("a", "fact"),
            RelationRef("b", "dim1"),
            RelationRef("c", "fact"),
        ),
        join_predicates=(
            JoinPredicate("a", ("fk1",), "b", ("id",)),
            JoinPredicate("c", ("fk1",), "a", ("fk2",)),
            JoinPredicate("c", ("fk2",), "b", ("id",)),
        ),
    )


@pytest.fixture(scope="session")
def star_expected_count(star_db: Database) -> int:
    """Reference answer for ``star_spec`` computed without the engine."""
    dim1 = star_db.table("dim1")
    fact = star_db.table("fact")
    selected = dim1.column("id")[dim1.column("v") < 3]
    return int(np.isin(fact.column("fk1"), selected).sum())


@pytest.fixture(scope="session")
def tpcds_tiny():
    from repro.workloads import tpcds_lite

    return tpcds_lite.build(scale=0.02)


@pytest.fixture(scope="session")
def job_tiny():
    from repro.workloads import job_lite

    return job_lite.build(scale=0.02)


@pytest.fixture(scope="session")
def customer_tiny():
    from repro.workloads import customer_lite

    return customer_lite.build(scale=0.05)
