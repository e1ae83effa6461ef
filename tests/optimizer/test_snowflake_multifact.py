"""Tests for Algorithm 2 (OptimizeSnowflake) and Algorithm 3
(OptimizeJoinGraph)."""

from repro.cost.physical import true_cout
from repro.optimizer.enumerate import right_deep_orders
from repro.optimizer.multifact import optimize_join_graph
from repro.optimizer.snowflake import optimize_snowflake
from repro.optimizer.units import UnitGraph
from repro.plan.builder import build_right_deep
from repro.plan.properties import base_aliases, join_count
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator
from repro.workloads.synthetic import random_snowflake


def setup(db, spec):
    graph = JoinGraph(spec, db.catalog)
    estimator = CardinalityEstimator(db, spec.alias_tables)
    return graph, estimator


class TestUnitGraph:
    def test_base_units(self, star_db, star_spec):
        graph, estimator = setup(star_db, star_spec)
        ugraph = UnitGraph(graph, estimator)
        assert set(ugraph.unit_ids) == set(star_spec.aliases)
        assert ugraph.is_fact_unit("f")
        assert not ugraph.is_fact_unit("d1")

    def test_key_join_direction(self, star_db, star_spec):
        graph, estimator = setup(star_db, star_spec)
        ugraph = UnitGraph(graph, estimator)
        assert ugraph.is_key_join_into("f", "d1")
        assert not ugraph.is_key_join_into("d1", "f")

    def test_expand_snowflake_includes_chains(self):
        db, spec = random_snowflake(0, branch_lengths=(2, 1))
        graph, estimator = setup(db, spec)
        ugraph = UnitGraph(graph, estimator)
        assert ugraph.expand_snowflake("f") == set(spec.aliases)

    def test_collapse_merges_members(self, star_db, star_spec):
        graph, estimator = setup(star_db, star_spec)
        ugraph = UnitGraph(graph, estimator)
        plan = optimize_snowflake(ugraph, "f", {"f", "d1"})
        ugraph.collapse({"f", "d1"}, plan, rows=100.0, fact_id="f")
        assert len(ugraph) == 2
        composite = ugraph.unit("f")
        assert composite.optimized
        assert composite.members == frozenset({"f", "d1"})

    def test_neighbors_after_collapse(self, star_db, star_spec):
        graph, estimator = setup(star_db, star_spec)
        ugraph = UnitGraph(graph, estimator)
        plan = optimize_snowflake(ugraph, "f", {"f", "d1"})
        ugraph.collapse({"f", "d1"}, plan, rows=100.0, fact_id="f")
        assert ugraph.neighbors("f") == {"d2"}


class TestOptimizeSnowflake:
    def test_star_plan_covers_all(self, star_db, star_spec):
        graph, estimator = setup(star_db, star_spec)
        ugraph = UnitGraph(graph, estimator)
        plan = optimize_snowflake(ugraph, "f")
        assert base_aliases(plan) == frozenset(star_spec.aliases)

    def test_snowflake_matches_exhaustive_minimum(self):
        """Algorithm 2 should land on (or very near) the true optimum
        for a pure PKFK snowflake — its candidate set provably contains
        it; estimation noise is the only slack."""
        for seed in (0, 1, 2):
            db, spec = random_snowflake(
                seed, branch_lengths=(1, 2), fact_rows=600, dim_rows=50
            )
            graph, estimator = setup(db, spec)
            ugraph = UnitGraph(graph, estimator)
            plan = push_down_bitvectors(optimize_snowflake(ugraph, "f"))
            algo_cost = true_cout(plan, db)
            best = min(
                true_cout(
                    push_down_bitvectors(build_right_deep(graph, order)), db
                )
                for order in right_deep_orders(graph)
            )
            assert algo_cost <= best * 1.35

    def test_single_unit_scope(self, star_db, star_spec):
        graph, estimator = setup(star_db, star_spec)
        ugraph = UnitGraph(graph, estimator)
        plan = optimize_snowflake(ugraph, "f", scope={"f"})
        assert base_aliases(plan) == frozenset({"f"})


class TestOptimizeJoinGraph:
    def test_star_handled(self, star_db, star_spec):
        graph, estimator = setup(star_db, star_spec)
        plan = optimize_join_graph(graph, estimator)
        assert base_aliases(plan) == frozenset(star_spec.aliases)
        assert join_count(plan) == 2

    def test_multifact_query_covered(self, tpcds_tiny):
        db, queries = tpcds_tiny
        multi = next(q for q in queries if q.name == "ds_q17")
        graph, estimator = setup(db, multi)
        plan = optimize_join_graph(graph, estimator)
        assert base_aliases(plan) == frozenset(multi.aliases)
        assert join_count(plan) == len(multi.relations) - 1

    def test_every_tpcds_query_planable(self, tpcds_tiny):
        db, queries = tpcds_tiny
        for spec in queries:
            graph, estimator = setup(db, spec)
            plan = optimize_join_graph(graph, estimator)
            assert base_aliases(plan) == frozenset(spec.aliases)

    def test_every_job_query_planable(self, job_tiny):
        db, queries = job_tiny
        for spec in queries:
            graph, estimator = setup(db, spec)
            plan = optimize_join_graph(graph, estimator)
            assert base_aliases(plan) == frozenset(spec.aliases)

    def test_every_customer_query_planable(self, customer_tiny):
        db, queries = customer_tiny
        for spec in queries:
            graph, estimator = setup(db, spec)
            plan = optimize_join_graph(graph, estimator)
            assert base_aliases(plan) == frozenset(spec.aliases)

    def test_high_join_counts_supported(self, customer_tiny):
        db, queries = customer_tiny
        big = max(queries, key=lambda q: len(q.relations))
        graph, estimator = setup(db, big)
        plan = optimize_join_graph(graph, estimator)
        assert join_count(plan) == len(big.relations) - 1
