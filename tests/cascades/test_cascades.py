"""Tests for the Cascades-lite memo, rules, and integration modes."""

import pytest

from repro.cascades.engine import CascadesOptimizer
from repro.cascades.memo import LogicalGet, LogicalJoin, Memo
from repro.cascades.rules import JoinAssociativity, JoinCommutativity
from repro.engine.executor import Executor
from repro.errors import OptimizerError
from repro.plan.builder import attach_aggregate
from repro.plan.properties import base_aliases
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph


class TestMemo:
    def test_seed_left_deep(self):
        memo = Memo()
        root = memo.seed_left_deep(["a", "b", "c"])
        assert root == frozenset({"a", "b", "c"})
        assert memo.has_group(frozenset({"a"}))
        assert memo.has_group(frozenset({"a", "b"}))

    def test_duplicate_expressions_ignored(self):
        memo = Memo()
        expr = LogicalGet("a")
        assert memo.insert_expression(expr)
        assert not memo.insert_expression(LogicalGet("a"))
        assert memo.num_expressions() == 1

    def test_expression_group_mismatch_rejected(self):
        memo = Memo()
        group = memo.group(frozenset({"a"}))
        with pytest.raises(OptimizerError):
            group.add(LogicalGet("b"))


class TestRules:
    def test_commutativity(self, star_db, star_spec):
        graph = JoinGraph(star_spec, star_db.catalog)
        memo = Memo()
        join = LogicalJoin(frozenset({"f"}), frozenset({"d1"}))
        out = JoinCommutativity().apply(join, memo, graph)
        assert out == [LogicalJoin(frozenset({"d1"}), frozenset({"f"}))]

    def test_associativity_respects_connectivity(self, star_db, star_spec):
        graph = JoinGraph(star_spec, star_db.catalog)
        memo = Memo()
        memo.seed_left_deep(["f", "d1", "d2"])
        top = LogicalJoin(frozenset({"f", "d1"}), frozenset({"d2"}))
        produced = JoinAssociativity().apply(top, memo, graph)
        # Join(Join(f,d1), d2) -> Join(f, Join(d1, d2)) would need a
        # d1-d2 edge, which a star does not have: nothing produced.
        assert produced == []

    def test_exploration_materializes_connected_subsets(self, star_db, star_spec):
        optimizer = CascadesOptimizer(star_db)
        plan = optimizer.optimize(star_spec, "blind")
        assert base_aliases(plan) == frozenset(star_spec.aliases)


class TestIntegrationModes:
    @pytest.mark.parametrize("mode", ("blind", "full", "alternative", "shallow"))
    def test_mode_produces_correct_answer(
        self, mode, star_db, star_spec, star_expected_count
    ):
        optimizer = CascadesOptimizer(star_db)
        plan = optimizer.optimize(star_spec, mode)
        plan = attach_aggregate(push_down_bitvectors(plan), star_spec)
        result = Executor(star_db).execute(plan)
        assert result.scalar("cnt") == star_expected_count

    def test_unknown_mode_rejected(self, star_db, star_spec):
        with pytest.raises(OptimizerError, match="integration mode"):
            CascadesOptimizer(star_db).optimize(star_spec, "deep")

    def test_full_mode_never_estimates_worse_than_blind(self, star_db, star_spec):
        """Full integration scores every plan bitvector-aware, so its
        chosen plan's aware-cost is <= the blind plan's aware-cost."""
        from repro.cost.physical import estimated_cpu
        from repro.stats.estimator import CardinalityEstimator

        optimizer = CascadesOptimizer(star_db)
        estimator = CardinalityEstimator(star_db, star_spec.alias_tables)

        def aware(plan):
            return estimated_cpu(plan, estimator).cout

        full_cost = aware(optimizer.optimize(star_spec, "full"))
        blind_cost = aware(optimizer.optimize(star_spec, "blind"))
        assert full_cost <= blind_cost + 1e-6

    def test_alternative_never_worse_than_blind(self, star_db, star_spec):
        from repro.cost.physical import estimated_cpu
        from repro.stats.estimator import CardinalityEstimator

        optimizer = CascadesOptimizer(star_db)
        estimator = CardinalityEstimator(star_db, star_spec.alias_tables)

        def aware(plan):
            return estimated_cpu(plan, estimator).cout

        alt = aware(optimizer.optimize(star_spec, "alternative"))
        blind = aware(optimizer.optimize(star_spec, "blind"))
        assert alt <= blind + 1e-6

    def test_modes_on_snowflake_query(self, tpcds_tiny):
        db, queries = tpcds_tiny
        spec = next(q for q in queries if q.name == "ds_q10")
        optimizer = CascadesOptimizer(db)
        answers = set()
        for mode in ("blind", "alternative", "shallow"):
            plan = optimizer.optimize(spec, mode)
            plan = attach_aggregate(push_down_bitvectors(plan), spec)
            result = Executor(db).execute(plan)
            answers.add(result.scalar("cnt"))
        assert len(answers) == 1
