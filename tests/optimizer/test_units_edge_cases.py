"""Unit-graph edge cases: composites, non-key joins, Algorithm 3 loops."""

import pytest

from repro.errors import OptimizerError
from repro.optimizer.multifact import _extract_snowflake, optimize_join_graph
from repro.optimizer.snowflake import optimize_snowflake
from repro.optimizer.units import UnitGraph
from repro.plan.properties import base_aliases
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator
from repro.workloads.synthetic import random_snowflake


def setup(db, spec):
    graph = JoinGraph(spec, db.catalog)
    estimator = CardinalityEstimator(db, spec.alias_tables)
    return graph, estimator


class TestCompositeKeySemantics:
    def test_composite_preserves_fact_key_member(self):
        db, spec = random_snowflake(5, branch_lengths=(1, 1))
        graph, estimator = setup(db, spec)
        ugraph = UnitGraph(graph, estimator)
        # collapse fact + one dimension around the *dimension* as fact —
        # key member must follow the declared fact of the collapse
        scope = {"b0_0", "b1_0", "f"}
        plan = optimize_snowflake(ugraph, "f", scope)
        ugraph.collapse(scope, plan, rows=42.0, fact_id="f")
        unit = ugraph.unit("f")
        assert unit.key_member == "f"
        assert unit.rows == 42.0

    def test_collapse_requires_fact_in_set(self):
        db, spec = random_snowflake(5, branch_lengths=(1, 1))
        graph, estimator = setup(db, spec)
        ugraph = UnitGraph(graph, estimator)
        with pytest.raises(OptimizerError):
            ugraph.collapse({"b0_0"}, ugraph.unit_plan("b0_0"), 1.0, "f")

    def test_unknown_unit_rejected(self):
        db, spec = random_snowflake(5, branch_lengths=(1,))
        graph, estimator = setup(db, spec)
        ugraph = UnitGraph(graph, estimator)
        with pytest.raises(OptimizerError):
            ugraph.unit("nope")


class TestExtractSnowflake:
    def test_single_fact_takes_whole_graph(self, tpcds_tiny):
        db, queries = tpcds_tiny
        spec = next(q for q in queries if q.name == "ds_q11")
        graph, estimator = setup(db, spec)
        ugraph = UnitGraph(graph, estimator)
        fact, scope = _extract_snowflake(ugraph, set(ugraph.unit_ids))
        assert fact == "ss"
        assert scope == set(ugraph.unit_ids)

    def test_two_facts_extracts_smaller_first(self, tpcds_tiny):
        db, queries = tpcds_tiny
        spec = next(q for q in queries if q.name == "ds_q17")
        graph, estimator = setup(db, spec)
        ugraph = UnitGraph(graph, estimator)
        fact, scope = _extract_snowflake(ugraph, set(ugraph.unit_ids))
        # cs (catalog_sales) is smaller than ss (store_sales)
        assert fact == "cs"
        assert scope != set(ugraph.unit_ids)
        assert "ss" not in scope  # the other fact is not a dimension

    def test_fact_with_no_dimensions_falls_back_to_whole_graph(self, star_db):
        from repro.query.spec import JoinPredicate, QuerySpec, RelationRef

        # two facts joined by a non-key edge: neither expands
        spec = QuerySpec(
            name="q",
            relations=(RelationRef("p", "fact"), RelationRef("q", "fact")),
            join_predicates=(JoinPredicate("p", ("fk1",), "q", ("fk1",)),),
        )
        graph, estimator = setup(star_db, spec)
        ugraph = UnitGraph(graph, estimator)
        fact, scope = _extract_snowflake(ugraph, set(ugraph.unit_ids))
        assert scope == {"p", "q"}
        plan = optimize_join_graph(graph, estimator)
        assert base_aliases(plan) == frozenset({"p", "q"})


class TestBlindMode:
    def test_blind_and_aware_cover_same_relations(self, tpcds_tiny):
        db, queries = tpcds_tiny
        for spec in queries[:8]:
            graph, estimator = setup(db, spec)
            blind = optimize_join_graph(graph, estimator, bitvector_aware=False)
            aware = optimize_join_graph(graph, estimator, bitvector_aware=True)
            assert base_aliases(blind) == base_aliases(aware) == frozenset(spec.aliases)

    def test_blind_mode_ignores_spine_reduction(self):
        # With an extremely selective branch, aware mode may flip
        # build/probe sides; blind mode must keep raw-size decisions.
        db, spec = random_snowflake(
            9, branch_lengths=(1, 1), fact_rows=3000, dim_rows=100,
            predicate_rate=1.0,
        )
        graph, estimator = setup(db, spec)
        blind = optimize_join_graph(graph, estimator, bitvector_aware=False)
        # every dimension is smaller than the raw fact: pure right-deep
        from repro.plan.properties import is_right_deep

        assert is_right_deep(blind)


class TestMultiRootBranchGroups:
    """Algorithm 2's group P2: fact-adjacent branches that also join
    each other share one component and split it between their roots."""

    @staticmethod
    def spec():
        from repro.query.spec import JoinPredicate, QuerySpec, RelationRef

        # f -> d1, f -> d2 (two roots); d1 - d2 joined to each other;
        # x hangs off d2 only; y hangs off both roots (tie -> d1);
        # z hangs off y, two hops from either root.
        return QuerySpec(
            name="p2",
            relations=(
                RelationRef("f", "fact"),
                RelationRef("d1", "dim1"),
                RelationRef("d2", "dim2"),
                RelationRef("x", "dim1"),
                RelationRef("y", "dim2"),
                RelationRef("z", "dim1"),
            ),
            join_predicates=(
                JoinPredicate("f", ("fk1",), "d1", ("id",)),
                JoinPredicate("f", ("fk2",), "d2", ("id",)),
                JoinPredicate("d1", ("v",), "d2", ("w",)),
                JoinPredicate("d2", ("w",), "x", ("id",)),
                JoinPredicate("d1", ("v",), "y", ("id",)),
                JoinPredicate("d2", ("id",), "y", ("w",)),
                JoinPredicate("y", ("w",), "z", ("id",)),
            ),
        )

    def test_members_partition_the_component(self, star_db):
        from repro.optimizer.snowflake import _assign_members

        graph, estimator = setup(star_db, self.spec())
        ugraph = UnitGraph(graph, estimator)
        component = {"d1", "d2", "x", "y", "z"}
        members = _assign_members(ugraph, component, ["d1", "d2"])
        assert members == {"d1": {"d1", "y", "z"}, "d2": {"d2", "x"}}

    def test_branch_orders_are_prefix_connected(self, star_db):
        from repro.optimizer.snowflake import _assign_members, _bfs_order

        graph, estimator = setup(star_db, self.spec())
        ugraph = UnitGraph(graph, estimator)
        members = _assign_members(
            ugraph, {"d1", "d2", "x", "y", "z"}, ["d1", "d2"]
        )
        for root, owned in members.items():
            order = _bfs_order(ugraph, owned, root)
            assert order[0] == root and set(order) == owned
            for index in range(1, len(order)):
                assert ugraph.neighbors(order[index], set(order[:index]))

    def test_unreachable_members_are_named(self, star_db):
        from repro.optimizer.snowflake import _bfs_order

        graph, estimator = setup(star_db, self.spec())
        ugraph = UnitGraph(graph, estimator)
        # z reaches d2 only through y, which this member set leaves out.
        with pytest.raises(OptimizerError, match=r"\['z'\].*'d2'"):
            _bfs_order(ugraph, {"d2", "x", "z"}, "d2")

    @pytest.mark.parametrize("aware", (True, False))
    def test_plan_covers_every_relation(self, star_db, aware):
        spec = self.spec()
        graph, estimator = setup(star_db, spec)
        plan = optimize_join_graph(graph, estimator, bitvector_aware=aware)
        assert base_aliases(plan) == frozenset(spec.aliases)
