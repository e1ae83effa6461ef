"""Tests for Cout, the estimated cardinality model, and the CPU model."""

import pytest

from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.cout import EstimatedCardModel, cout
from repro.cost.physical import estimated_cpu
from repro.cost.truecard import TrueCardModel, true_cout
from repro.engine.executor import Executor
from repro.plan.builder import build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator


@pytest.fixture(scope="module")
def star_setup(star_db, star_spec):
    graph = JoinGraph(star_spec, star_db.catalog)
    estimator = CardinalityEstimator(star_db, star_spec.alias_tables)
    return graph, estimator


class TestCoutDefinition:
    def test_cout_is_sum_of_node_sizes(self, star_db, star_setup):
        graph, _ = star_setup
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        executor = Executor(star_db)
        result = executor.execute(plan)
        model = TrueCardModel(result.metrics)
        total = cout(plan, model)
        by_hand = sum(m.rows_out for m in result.metrics.nodes)
        assert total == by_hand  # no residual filters in a star plan

    def test_bitvectors_reduce_true_cout(self, star_db, star_setup):
        graph, _ = star_setup
        with_bv = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        without = build_right_deep(graph, ["f", "d1", "d2"])
        for node in without.walk():
            if hasattr(node, "creates_bitvector"):
                node.creates_bitvector = False
        without = push_down_bitvectors(without)
        assert true_cout(with_bv, star_db) < true_cout(without, star_db)


class TestEstimatedModel:
    def test_estimate_within_factor_of_truth(self, star_db, star_setup):
        graph, estimator = star_setup
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        estimate = cout(plan, EstimatedCardModel(estimator))
        plan2 = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        truth = true_cout(plan2, star_db)
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_estimates_are_cached_per_node(self, star_setup):
        graph, estimator = star_setup
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        model = EstimatedCardModel(estimator)
        first = model.rows_out(plan)
        assert model.rows_out(plan) == first

    def test_key_join_output_equals_probe_rows(self, star_setup):
        # with this join's own bitvector applied, a PKFK join passes
        # through exactly the surviving probe rows
        graph, estimator = star_setup
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        model = EstimatedCardModel(estimator)
        join = plan  # top join
        assert model.rows_out(join) == pytest.approx(
            model.rows_out(join.probe), rel=1e-6
        )


class TestPhysicalCpu:
    def test_estimated_cpu_positive_and_ordered(self, star_db, star_setup):
        graph, estimator = star_setup
        with_bv = build_right_deep(graph, ["f", "d1", "d2"])
        no_bv = build_right_deep(graph, ["f", "d1", "d2"])
        for node in no_bv.walk():
            if hasattr(node, "creates_bitvector"):
                node.creates_bitvector = False
        cpu_with = estimated_cpu(with_bv, estimator).cpu
        cpu_without = estimated_cpu(no_bv, estimator).cpu
        assert 0 < cpu_with < cpu_without

    def test_metered_cpu_matches_model_semantics(self, star_db, star_setup):
        graph, estimator = star_setup
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        result = Executor(star_db).execute(plan)
        # Recompute by hand from component totals.
        totals = result.metrics.component_totals()
        c = DEFAULT_COSTS
        expected = (
            totals["scan"] * c.scan
            + totals["build"] * c.build
            + totals["probe"] * c.probe
            + totals["output"] * c.output
            + totals["filter_check"] * c.filter_check
            + totals["filter_insert"] * c.filter_insert
            + totals["aggregate"] * c.aggregate
        )
        assert result.metrics.metered_cpu() == pytest.approx(expected)

    def test_constants_break_even_near_ten_percent(self):
        assert CostConstants().break_even_elimination == pytest.approx(0.09, abs=0.03)

    def test_custom_constants_change_cpu(self, star_db, star_setup):
        graph, _ = star_setup
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        result = Executor(star_db).execute(plan)
        doubled = CostConstants(probe=2.0)
        assert result.metrics.metered_cpu(doubled) > result.metrics.metered_cpu()
