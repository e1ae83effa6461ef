"""The read-only pricing passes against push-down plus the model.

``estimated_cpu`` prices a bare plan without placing its filters, and
``OrderPricer`` prices a join order without building its tree.  The
reference both must equal *bit for bit* (``==``, never ``approx``) is
what plan search once did: push Algorithm 1's filters down on a fresh
copy of the tree, cost it with :class:`EstimatedCardModel`, and sum the
CPU terms over ``walk()``.  The corpus is every join order plan search
prices over the plan-stability workloads and random stars, plus every
order of the residual fixture; each is compared in aware and blind mode
as three values: the order's price, ``estimated_cpu`` on the tree the
order builds, and the reference.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

import repro.optimizer.snowflake as snowflake
from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.cout import EstimatedCardModel, cout
from repro.cost.physical import OrderPricer, estimated_cpu
from repro.errors import OptimizerError, PlanError
from repro.optimizer.pipelines import optimize_query
from repro.optimizer.units import UnitGraph
from repro.plan.builder import build_right_deep
from repro.plan.nodes import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
)
from repro.plan.properties import plan_signature
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator
from repro.workloads import star
from repro.workloads.synthetic import random_star


def _walk_cpu(pushed, model, estimator, constants=DEFAULT_COSTS) -> float:
    """The Section 6.3 CPU sum as it was computed over a pushed plan."""
    total = 0.0
    for node in pushed.walk():
        if isinstance(node, ScanNode):
            raw_rows = estimator.table_rows(node.alias)
            after_predicate = estimator.base_cardinality(node.alias, node.predicate)
            total += raw_rows * constants.scan
            total += (
                after_predicate
                * constants.filter_check
                * len(node.applied_bitvectors)
            )
        elif isinstance(node, HashJoinNode):
            build_rows = model.rows_out(node.build)
            probe_rows = model.rows_out(node.probe)
            output_rows = model.rows_out(node)
            total += build_rows * constants.build
            if node.creates_bitvector:
                total += build_rows * constants.filter_insert
            total += probe_rows * constants.probe
            total += output_rows * constants.output
        elif isinstance(node, FilterNode):
            input_rows = model.rows_out(node.child)
            total += (
                input_rows * constants.filter_check * len(node.applied_bitvectors)
            )
        elif isinstance(node, AggregateNode):
            total += model.rows_out(node.child) * constants.aggregate
        else:
            raise PlanError(f"cannot cost node {node.label}")
    return total


def _fresh_copy(plan, joins: dict):
    """The same plan built from new nodes; ``joins`` maps old → new."""
    if isinstance(plan, ScanNode):
        return ScanNode(plan.alias, plan.table_name, plan.predicate)
    copy = HashJoinNode(
        _fresh_copy(plan.build, joins),
        _fresh_copy(plan.probe, joins),
        plan.build_keys,
        plan.probe_keys,
        creates_bitvector=plan.creates_bitvector,
    )
    joins[plan] = copy
    return copy


def _reference(plan, estimator, aware: bool, constants) -> tuple:
    joins: dict = {}
    pushed = push_down_bitvectors(_fresh_copy(plan, joins))
    model = EstimatedCardModel(estimator, aware)
    sides = {
        join: (model.rows_out(copy.build), model.rows_out(copy.probe))
        for join, copy in joins.items()
    }
    return (
        model.rows_out(pushed),
        _walk_cpu(pushed, model, estimator, constants),
        cout(pushed, model),
        sides,
    )


def _mismatches(plan, estimator, constants=DEFAULT_COSTS) -> list:
    return [
        (aware, plan_signature(plan))
        for aware in (True, False)
        if tuple(estimated_cpu(plan, estimator, aware, constants))
        != _reference(plan, estimator, aware, constants)
    ]


_price_order = OrderPricer.cpu  # unpatched by ``priced``


def _order_mismatches(
    graph, estimator, bottom, steps, constants=DEFAULT_COSTS
) -> list:
    """Where an order's price, its tree's and the reference disagree."""
    tree = snowflake._realize(graph, bottom, steps)
    found = _mismatches(tree, estimator, constants)
    for aware in (True, False):
        pricer = OrderPricer(estimator, aware, constants)
        order = _price_order(pricer, bottom, steps)
        if not order == estimated_cpu(tree, estimator, aware, constants).cpu:
            found.append((aware, "order", plan_signature(tree)))
    return found


@pytest.fixture()
def priced(monkeypatch):
    """Check every join order plan search prices, when it prices it
    (filter selection rewrites flags on shared nodes afterwards).
    ``optimize`` runs one search with its join graph known."""
    seen = {"candidates": 0, "mismatches": [], "graph": None}

    def checked(pricer, bottom, steps):
        seen["candidates"] += 1
        seen["mismatches"] += _order_mismatches(
            seen["graph"], pricer.estimator, bottom, steps
        )
        return _price_order(pricer, bottom, steps)

    def optimize(database, spec, pipeline):
        seen["graph"] = JoinGraph(spec, database.catalog)
        return optimize_query(database, spec, pipeline)

    monkeypatch.setattr(OrderPricer, "cpu", checked)
    seen["optimize"] = optimize
    return seen


_WORKLOAD_FIXTURES = {
    "tpcds_lite": "tpcds_tiny",
    "job_lite": "job_tiny",
    "customer_lite": "customer_tiny",
}


@pytest.mark.parametrize(
    "workload", ["tpcds_lite", "job_lite", "customer_lite", "star"]
)
def test_plan_stability_corpus_candidates_price_identically(
    workload, request, priced
):
    if workload == "star":
        database, specs = star.build(scale=0.05)
    else:
        database, specs = request.getfixturevalue(_WORKLOAD_FIXTURES[workload])
    searched = 0
    for spec in specs:
        for pipeline in ("bqo", "original", "bqo_allfilters"):
            searched += priced["optimize"](database, spec, pipeline).candidates
    assert priced["candidates"] == searched > 0
    assert not priced["mismatches"][:5]


@pytest.mark.parametrize("dimensions", [8, 16, 32])
def test_random_star_candidates_price_identically(dimensions, priced):
    database, spec = random_star(7, num_dimensions=dimensions)
    searched = sum(
        priced["optimize"](database, spec, pipeline).candidates
        for pipeline in ("bqo", "original")
    )
    assert priced["candidates"] == searched > 0
    assert not priced["mismatches"]


_UNEVEN_COSTS = [
    CostConstants(
        scan=0.1, build=1 / 3, probe=1 / 7, output=0.3,
        filter_check=check, filter_insert=2 / 9, aggregate=0.11,
    )
    for check in (0.09, 1 / 11, 2 / 29)
]


class TestResidualFilters:
    @pytest.fixture()
    def residual_setup(self, star_db, residual_spec):
        graph = JoinGraph(residual_spec, star_db.catalog)
        estimator = CardinalityEstimator(star_db, residual_spec.alias_tables)
        return graph, estimator

    def _orders(self, graph):
        for order in itertools.permutations(["a", "b", "c"]):
            try:
                yield build_right_deep(graph, list(order))
            except OptimizerError:
                continue  # a cross product

    def test_every_order_prices_identically(self, residual_setup):
        graph, estimator = residual_setup
        residuals = 0
        for plan in self._orders(graph):
            pushed = push_down_bitvectors(_fresh_copy(plan, {}))
            residuals += any(isinstance(n, FilterNode) for n in pushed.walk())
            joins = [j for j in plan.walk() if isinstance(j, HashJoinNode)]
            for flags in itertools.product((True, False), repeat=len(joins)):
                for join, flag in zip(joins, flags):
                    join.creates_bitvector = flag
                # Weights that are not binary fractions make the order of
                # the CPU sum observable, pinning the residual term's place.
                for constants in [DEFAULT_COSTS, *_UNEVEN_COSTS]:
                    assert not _mismatches(plan, estimator, constants)
        assert residuals  # the fixture does exercise residual filters

    def test_every_join_order_prices_identically(self, residual_setup):
        """Every order of the triangle, each step in both orientations:
        a build-side step whose filter spans two units is residual."""
        graph, estimator = residual_setup
        ugraph = UnitGraph(graph, estimator)
        steps = snowflake._Steps(ugraph)
        priced = residuals = 0
        for bottom, *rest in itertools.permutations(["a", "b", "c"]):
            for orientations in itertools.product((True, False), repeat=2):
                placed, order = {bottom}, []
                for unit, unit_builds in zip(rest, orientations):
                    order.append(steps.step(unit, placed, unit_builds))
                    placed.add(unit)
                tree = snowflake._realize(graph, ugraph.unit_plan(bottom), order)
                pushed = push_down_bitvectors(_fresh_copy(tree, {}))
                residuals += any(isinstance(n, FilterNode) for n in pushed.walk())
                for constants in [DEFAULT_COSTS, *_UNEVEN_COSTS]:
                    assert not _order_mismatches(
                        graph, estimator, ugraph.unit_plan(bottom), order,
                        constants,
                    )
                priced += 1
        assert priced == 24
        assert residuals

    def test_pricing_an_order_builds_nothing(self, residual_setup, monkeypatch):
        graph, estimator = residual_setup
        ugraph = UnitGraph(graph, estimator)
        steps = snowflake._Steps(ugraph)
        order = [steps.step("b", {"a"}, True), steps.step("c", {"a", "b"}, True)]
        built = []
        construct = PlanNode.__init__

        def counted(node, *args, **kwargs):
            built.append(node)
            construct(node, *args, **kwargs)

        monkeypatch.setattr(PlanNode, "__init__", counted)
        for aware in (True, False):
            OrderPricer(estimator, aware).cpu(ugraph.unit_plan("a"), order)
        assert built == []
        for unit in "abc":
            assert not ugraph.unit_plan(unit).applied_bitvectors

    def test_pricing_leaves_the_plan_untouched(self, residual_setup):
        graph, estimator = residual_setup
        plan = build_right_deep(graph, ["a", "b", "c"])
        plan.creates_bitvector = False
        nodes, signature = list(plan.walk()), plan_signature(plan)
        for aware in (True, False):
            estimated_cpu(plan, estimator, aware)
        assert list(plan.walk()) == nodes
        assert plan_signature(plan) == signature
        for node in nodes:
            assert not isinstance(node, FilterNode)
            assert not node.applied_bitvectors
            assert getattr(node, "created_bitvector", None) is None
        assert [
            node.creates_bitvector for node in nodes
            if isinstance(node, HashJoinNode)
        ] == [False, True]

    def test_a_priced_plan_is_freed_without_the_cycle_collector(
        self, residual_setup
    ):
        """Search prices hundreds of candidates and keeps one; pricing
        must leave no reference cycle holding the others."""
        graph, estimator = residual_setup
        plan = build_right_deep(graph, ["a", "b", "c"])
        alive = weakref.ref(plan)
        gc.disable()
        try:
            estimated_cpu(plan, estimator)
            del plan
            assert alive() is None
        finally:
            gc.enable()

    def test_a_pushed_plan_with_residuals_is_refused(self, residual_setup):
        graph, estimator = residual_setup
        pushed = push_down_bitvectors(build_right_deep(graph, ["a", "b", "c"]))
        with pytest.raises(PlanError):
            estimated_cpu(pushed, estimator)
