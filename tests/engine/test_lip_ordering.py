"""Tests for LIP-style adaptive filter ordering."""

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.engine.lip import order_filters_adaptively
from repro.expr.expressions import Comparison, col, lit
from repro.filters.exact import ExactFilter
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.nodes import BitvectorDef
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.query.spec import Aggregate, JoinPredicate, QuerySpec, RelationRef
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table


class _FakeJoin:
    """Stands in for the source join a BitvectorDef references."""

    def __init__(self):
        self.build_keys = (("d", "id"),)
        self.probe_keys = (("f", "fk"),)


def make_definition(probe_keys):
    definition = BitvectorDef.__new__(BitvectorDef)
    definition.filter_id = id(definition) % 10_000_000
    definition.source_join = _FakeJoin()
    definition.build_keys = (("d", "id"),)
    definition.probe_keys = probe_keys
    return definition


class TestOrdering:
    def test_most_selective_first(self):
        values = np.arange(100)
        selective = ExactFilter.build([np.array([1, 2])])        # ~2% pass
        loose = ExactFilter.build([np.arange(90)])               # ~90% pass
        def_a = make_definition((("f", "x"),))
        def_b = make_definition((("f", "x"),))
        filters = {def_a.filter_id: loose, def_b.filter_id: selective}

        ordered = order_filters_adaptively(
            [def_a, def_b], filters, lambda a, c, n: values[:n], 100
        )
        assert ordered[0] is def_b  # selective filter first

    def test_single_filter_untouched(self):
        definition = make_definition((("f", "x"),))
        out = order_filters_adaptively(
            [definition], {}, lambda a, c, n: np.arange(5)[:n], 5
        )
        assert out == [definition]

    def test_empty_relation_untouched(self):
        defs = [make_definition((("f", "x"),)) for _ in range(2)]
        out = order_filters_adaptively(
            defs, {}, lambda a, c, n: np.array([]), 0
        )
        assert out == defs


class TestExecutorIntegration:
    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(5)
        database = Database("lip")
        database.add_table(
            Table.from_arrays(
                "d1", {"id": np.arange(100), "v": np.arange(100)}, key=("id",)
            )
        )
        database.add_table(
            Table.from_arrays(
                "d2", {"id": np.arange(100), "w": np.arange(100)}, key=("id",)
            )
        )
        database.add_table(
            Table.from_arrays(
                "fact",
                {
                    "fk1": rng.integers(0, 100, 20_000),
                    "fk2": rng.integers(0, 100, 20_000),
                },
            )
        )
        database.add_foreign_key(ForeignKey("fact", ("fk1",), "d1", ("id",)))
        database.add_foreign_key(ForeignKey("fact", ("fk2",), "d2", ("id",)))
        return database

    def make_plan(self, db):
        spec = QuerySpec(
            name="q",
            relations=(
                RelationRef("f", "fact"),
                RelationRef("a", "d1"),
                RelationRef("b", "d2"),
            ),
            join_predicates=(
                JoinPredicate("f", ("fk1",), "a", ("id",)),
                JoinPredicate("f", ("fk2",), "b", ("id",)),
            ),
            local_predicates={
                # a is very selective, b barely filters
                "a": Comparison("<", col("a", "v"), lit(3)),
                "b": Comparison("<", col("b", "w"), lit(95)),
            },
            aggregates=(Aggregate("count", label="cnt"),),
        )
        graph = JoinGraph(spec, db.catalog)
        # order b before a so the default filter order is the BAD one
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "b", "a"]))
        return attach_aggregate(plan, spec)

    def test_answers_identical(self, db):
        default = Executor(db).execute(self.make_plan(db)).scalar("cnt")
        adaptive = Executor(db, adaptive_filter_order=True).execute(
            self.make_plan(db)
        ).scalar("cnt")
        assert default == adaptive

    def test_adaptive_reduces_filter_checks(self, db):
        default = Executor(db).execute(self.make_plan(db))
        adaptive = Executor(db, adaptive_filter_order=True).execute(
            self.make_plan(db)
        )
        checks_default = default.metrics.component_totals()["filter_check"]
        checks_adaptive = adaptive.metrics.component_totals()["filter_check"]
        # selective-first ordering strictly reduces checked tuples
        assert checks_adaptive < checks_default
