"""Tests for Cout and rows under each row source, and the CPU model."""

import pytest

from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.physical import estimated_cpu, true_cout
from repro.engine.executor import Executor
from repro.plan.builder import build_right_deep
from repro.plan.nodes import FilterNode, HashJoinNode, ScanNode
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
        graph, estimator = star_setup
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"]))
        executor = Executor(star_db)
        result = executor.execute(plan)
        total = estimated_cpu(plan, estimator, observed=result.metrics).cout
        by_hand = sum(m.rows_out for m in result.metrics.nodes)
        assert total == by_hand  # no residual filters in a star plan

    def test_observed_cout_counts_residual_filters(
        self, star_db, residual_spec
    ):
        """Observed rows on a plan with a residual FilterNode: each node
        keeps the rows the executor recorded for it, and C_out counts a
        wrapped join once, at its filter's rows."""
        graph = JoinGraph(residual_spec, star_db.catalog)
        estimator = CardinalityEstimator(star_db, residual_spec.alias_tables)
        plan = push_down_bitvectors(build_right_deep(graph, ["a", "b", "c"]))
        metrics = Executor(star_db).execute(plan).metrics
        priced = estimated_cpu(plan, estimator, observed=metrics)
        nodes = list(plan.walk())
        residuals = [node for node in nodes if isinstance(node, FilterNode)]
        wrapped = {node.child for node in residuals}
        assert residuals
        assert priced.node_rows == {
            node.node_id: metrics.rows_out(node.node_id) for node in nodes
        }
        by_hand = sum(
            metrics.rows_out(node.node_id)
            for node in nodes
            if isinstance(node, (ScanNode, FilterNode))
            or (isinstance(node, HashJoinNode) and node not in wrapped)
        )
        assert priced.cout == by_hand
        assert true_cout(plan, star_db) == by_hand

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
        plan = build_right_deep(graph, ["f", "d1", "d2"])
        estimate = estimated_cpu(plan, estimator).cout
        truth = true_cout(push_down_bitvectors(plan), star_db)
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_key_join_output_equals_probe_rows(self, star_setup):
        # with this join's own bitvector applied, a PKFK join passes
        # through exactly the surviving probe rows
        graph, estimator = star_setup
        plan = build_right_deep(graph, ["f", "d1", "d2"])
        rows = estimated_cpu(plan, estimator).node_rows
        join = plan  # top join
        assert rows[join.node_id] == pytest.approx(
            rows[join.probe.node_id], rel=1e-6
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
