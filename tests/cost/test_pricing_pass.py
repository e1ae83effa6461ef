"""The read-only pricing passes against push-down plus the model.

``estimated_cpu`` prices a plan without placing its filters, and
``OrderPricer`` prices a join order without building its tree.  The
reference both must equal *bit for bit* (``==``, never ``approx``) is
what plan search once did, kept here as test-only helpers: push
Algorithm 1's filters down on a fresh copy of the tree, estimate every
node's rows from the filters placed on it (:func:`_reference_rows`),
sum the CPU terms over ``walk()`` and ``Cout`` over the pushed tree.
The corpus is every join order plan search prices over the
plan-stability workloads and random stars, plus every order of the
residual fixture; each is compared in aware and blind mode as three
values: the order's price, ``estimated_cpu`` on the tree the order
builds, and the reference.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import weakref

import pytest

import repro.engine.executor as executor_module
import repro.optimizer.filter_selection as filter_selection
import repro.optimizer.snowflake as snowflake
from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.physical import (
    OrderPricer,
    estimated_cpu,
    filter_survival,
    join_rows,
    key_ndvs,
)
from repro.errors import OptimizerError, PlanError
from repro.expr.expressions import Comparison, col, lit
from repro.optimizer.pipelines import optimize_query
from repro.optimizer.units import UnitGraph
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.nodes import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    TopKNode,
)
from repro.plan.properties import plan_signature
from repro.query.spec import Aggregate
from repro.plan.pushdown import push_down_bitvectors, strip_bitvectors
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator
from repro.storage.types import ColumnType
from repro.workloads import star
from repro.workloads.synthetic import random_star


def _reference_rows(pushed, estimator, aware: bool) -> dict[int, float]:
    """Every node's estimated rows in a pushed plan, read off the
    filters push-down placed on it: a scan's or residual filter's rows
    shrink by each filter's survival in turn, a join's follow
    :func:`join_rows`."""
    rows: dict[int, float] = {}

    def survival(bitvector, probe_rows: float) -> float:
        ndvs = key_ndvs(estimator, bitvector.build_keys, bitvector.probe_keys)
        build_rows = rows[bitvector.source_join.build.node_id]
        return filter_survival(ndvs, build_rows, probe_rows)

    def visit(node) -> float:
        if isinstance(node, HashJoinNode):
            # The build side first: filters landing in the probe side
            # read its rows.
            build_rows, probe_rows = visit(node.build), visit(node.probe)
            out = join_rows(
                key_ndvs(estimator, node.build_keys, node.probe_keys),
                build_rows, probe_rows, aware and node.creates_bitvector,
            )
        elif isinstance(node, (ScanNode, FilterNode)):
            if isinstance(node, ScanNode):
                out = estimator.base_cardinality(node.alias, node.predicate)
            else:
                out = visit(node.child)
            if aware:
                for bitvector in node.applied_bitvectors:
                    out *= survival(bitvector, out)
            out = max(1.0, out)
        elif isinstance(node, AggregateNode):
            out = visit(node.child)
        elif isinstance(node, TopKNode):
            out = visit(node.child)
            if node.limit is not None:
                out = max(1.0, min(out, float(node.limit)))
        else:
            raise PlanError(f"cannot estimate node {node.label}")
        rows[node.node_id] = out
        return out

    visit(pushed)
    return rows


def _reference_cout(node, rows: dict[int, float]) -> float:
    """C_out: a residual filter and the join it wraps count once, at the
    filter's rows; the aggregate is not an intermediate result."""
    if isinstance(node, (AggregateNode, TopKNode)):
        return _reference_cout(node.child, rows)
    if isinstance(node, FilterNode):
        join = node.child
        return (
            rows[node.node_id]
            + _reference_cout(join.build, rows)
            + _reference_cout(join.probe, rows)
        )
    if isinstance(node, HashJoinNode):
        return (
            rows[node.node_id]
            + _reference_cout(node.build, rows)
            + _reference_cout(node.probe, rows)
        )
    return rows[node.node_id]


def _checks(node, input_rows: float, rows, estimator, aware, constants) -> float:
    """What checking ``node``'s filters costs: in the order push-down
    placed them, each on the rows the ones before it left."""
    if not aware:
        return input_rows * constants.filter_check * len(node.applied_bitvectors)
    total = 0.0
    for bitvector in node.applied_bitvectors:
        total += input_rows * constants.filter_check
        ndvs = key_ndvs(estimator, bitvector.build_keys, bitvector.probe_keys)
        build_rows = rows[bitvector.source_join.build.node_id]
        input_rows *= filter_survival(ndvs, build_rows, input_rows)
    return total


def _reference_absorbed(pushed, rows, estimator, absorption) -> set:
    """The joins the executor's plan sweep finds absorbable under the
    query's output operators, narrowed to what the model can name: a
    scan build on its declared key, no float key, the filter kept.  A
    search tree may be part of the plan (Algorithm 3 joins the rest in
    later rounds): an alias joined to one outside it is read above."""
    if absorption is None:
        return set()
    graph = absorption.graph
    catalog = graph.catalog
    shaped = executor_module._plan_facts(
        attach_aggregate(pushed, graph.spec), {}
    ).absorbable
    inside = pushed.output_aliases
    absorbed = set()
    for node in pushed.walk():
        if node.node_id not in shaped or not isinstance(node.build, ScanNode):
            continue
        if not graph.neighbors(node.build.alias) <= inside:
            continue
        keys = node.build_keys + node.probe_keys
        if any(
            catalog.schema(graph.table_of(alias)).column_type(column)
            is ColumnType.FLOAT64
            for alias, column in keys
        ):
            continue
        if not catalog.is_key_join(
            node.build.table_name, tuple(column for _, column in node.build_keys)
        ):
            continue
        ndvs = key_ndvs(estimator, node.build_keys, node.probe_keys)
        if absorption.keeps(ndvs, rows[node.build.node_id]):
            absorbed.add(node.node_id)
    return absorbed


def _walk_cpu(
    pushed, rows, estimator, aware, constants=DEFAULT_COSTS, absorbed=()
) -> float:
    """The Section 6.3 CPU sum over a pushed plan, each filter checked
    on the rows the ones before it left and an absorbed join priced as
    its filter's build."""
    total = 0.0
    for node in pushed.walk():
        if isinstance(node, ScanNode):
            raw_rows = estimator.table_rows(node.alias)
            after_predicate = estimator.base_cardinality(node.alias, node.predicate)
            total += raw_rows * constants.scan
            total += _checks(node, after_predicate, rows, estimator, aware, constants)
        elif isinstance(node, HashJoinNode):
            build_rows = rows[node.build.node_id]
            probe_rows = rows[node.probe.node_id]
            output_rows = rows[node.node_id]
            if node.node_id in absorbed:
                total += build_rows * constants.filter_insert
                continue
            total += build_rows * constants.build
            if node.creates_bitvector:
                total += build_rows * constants.filter_insert
            total += probe_rows * constants.probe
            total += output_rows * constants.output
        elif isinstance(node, FilterNode):
            input_rows = rows[node.child.node_id]
            total += _checks(node, input_rows, rows, estimator, aware, constants)
        elif isinstance(node, AggregateNode):
            total += rows[node.child.node_id] * constants.aggregate
        else:
            raise PlanError(f"cannot cost node {node.label}")
    return total


def _fresh_copy(plan, copies: dict):
    """The same plan built from new nodes; ``copies`` maps old → new."""
    if isinstance(plan, ScanNode):
        copy = ScanNode(plan.alias, plan.table_name, plan.predicate)
    else:
        copy = HashJoinNode(
            _fresh_copy(plan.build, copies),
            _fresh_copy(plan.probe, copies),
            plan.build_keys,
            plan.probe_keys,
            creates_bitvector=plan.creates_bitvector,
        )
    copies[plan] = copy
    return copy


def _reference(plan, estimator, aware: bool, constants, absorption=None) -> tuple:
    copies: dict = {}
    pushed = push_down_bitvectors(_fresh_copy(plan, copies))
    rows = _reference_rows(pushed, estimator, aware)
    absorbed = _reference_absorbed(
        pushed, rows, estimator, absorption if aware else None
    )
    sides = {
        join: (rows[copy.build.node_id], rows[copy.probe.node_id])
        for join, copy in copies.items()
        if isinstance(join, HashJoinNode)
    }
    return (
        rows[pushed.node_id],
        _walk_cpu(pushed, rows, estimator, aware, constants, absorbed),
        _reference_cout(pushed, rows),
        sides,
        {node.node_id: rows[copy.node_id] for node, copy in copies.items()},
        frozenset(
            node.node_id for node, copy in copies.items()
            if copy.node_id in absorbed
        ),
    )


def _mismatches(plan, estimator, constants=DEFAULT_COSTS, absorption=None) -> list:
    return [
        (aware, plan_signature(plan))
        for aware in (True, False)
        if tuple(estimated_cpu(
            plan, estimator, aware, constants, absorption=absorption
        ))
        != _reference(plan, estimator, aware, constants, absorption)
    ]


_price_order = OrderPricer.cpu  # unpatched by ``priced``


def _order_mismatches(
    graph, estimator, bottom, steps, constants=DEFAULT_COSTS, absorption=None
) -> list:
    """Where an order's price, its tree's and the reference disagree."""
    tree = snowflake._realize(graph, bottom, steps)
    found = _mismatches(tree, estimator, constants, absorption)
    for aware in (True, False):
        pricer = OrderPricer(estimator, aware, constants, absorption)
        order = _price_order(pricer, bottom, steps)
        tree_cpu = estimated_cpu(
            tree, estimator, aware, constants, absorption=absorption
        ).cpu
        if not order == tree_cpu:
            found.append((aware, "order", plan_signature(tree)))
    return found


@pytest.fixture()
def priced(monkeypatch):
    """Check every join order plan search prices, when it prices it
    (filter selection rewrites flags on shared nodes afterwards).
    ``optimize`` runs one search with its join graph known."""
    seen = {"candidates": 0, "absorbed": 0, "mismatches": [], "graph": None}

    def checked(pricer, bottom, steps):
        seen["candidates"] += 1
        if pricer.absorption is not None:
            tree = snowflake._realize(seen["graph"], bottom, steps)
            seen["absorbed"] += len(estimated_cpu(
                tree, pricer.estimator, absorption=pricer.absorption
            ).absorbed)
        seen["mismatches"] += _order_mismatches(
            seen["graph"], pricer.estimator, bottom, steps,
            absorption=pricer.absorption,
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
    assert priced["absorbed"] > 0  # joins priced as absorbed were compared
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


def _counting(graph):
    """Absorption for ``COUNT(*)`` over ``graph``'s joins, every filter
    kept: the output reads no alias, so any scan build on its key that
    joins all its neighbours is absorbed."""
    spec = dataclasses.replace(graph.spec, aggregates=(Aggregate("count"),))
    return filter_selection.absorption_for(
        JoinGraph(spec, graph.catalog), 0.0
    )


class TestResidualFilters:
    @pytest.fixture()
    def residual_setup(self, star_db, residual_spec):
        graph = JoinGraph(residual_spec, star_db.catalog)
        estimator = CardinalityEstimator(star_db, residual_spec.alias_tables)
        return graph, estimator

    @pytest.fixture()
    def shrinking_setup(self, star_db, residual_spec):
        """``residual_spec`` with ``c`` cut below its keys' distinct
        counts, so c's residual filter shrinks the rows it checks."""
        spec = dataclasses.replace(
            residual_spec,
            local_predicates={"c": Comparison("<", col("c", "m"), lit(-3.0))},
        )
        graph = JoinGraph(spec, star_db.catalog)
        return graph, CardinalityEstimator(star_db, spec.alias_tables)

    def _orders(self, graph):
        for order in itertools.permutations(["a", "b", "c"]):
            try:
                yield build_right_deep(graph, list(order))
            except OptimizerError:
                continue  # a cross product

    def _check_every_order(self, graph, estimator):
        residuals = absorbed = 0
        absorption = _counting(graph)
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
                    assert not _mismatches(plan, estimator, constants, absorption)
                absorbed += bool(
                    estimated_cpu(plan, estimator, absorption=absorption).absorbed
                )
        assert residuals  # the fixture does exercise residual filters
        assert absorbed  # and absorbed joins

    def test_every_order_prices_identically(self, residual_setup):
        self._check_every_order(*residual_setup)

    def test_every_order_with_a_shrinking_residual_prices_identically(
        self, shrinking_setup
    ):
        self._check_every_order(*shrinking_setup)

    def test_every_join_order_prices_identically(self, residual_setup):
        """Every order of the triangle, each step in both orientations:
        a build-side step whose filter spans two units is residual."""
        self._check_every_join_order(*residual_setup)

    def test_every_join_order_with_a_shrinking_residual_prices_identically(
        self, shrinking_setup
    ):
        self._check_every_join_order(*shrinking_setup)

    def _check_every_join_order(self, graph, estimator):
        ugraph = UnitGraph(graph, estimator)
        absorption = _counting(graph)
        priced = residuals = absorbed = 0
        for absorbing in (None, absorption):
            steps = snowflake._Steps(ugraph, absorbing)
            for bottom, *rest in itertools.permutations(["a", "b", "c"]):
                for orientations in itertools.product((True, False), repeat=2):
                    placed, order = {bottom}, []
                    for unit, unit_builds in zip(rest, orientations):
                        order.append(steps.step(unit, placed, unit_builds))
                        placed.add(unit)
                    tree = snowflake._realize(graph, ugraph.unit_plan(bottom), order)
                    pushed = push_down_bitvectors(_fresh_copy(tree, {}))
                    residuals += any(
                        isinstance(n, FilterNode) for n in pushed.walk()
                    )
                    absorbed += bool(
                        estimated_cpu(tree, estimator, absorption=absorbing).absorbed
                    )
                    for constants in [DEFAULT_COSTS, *_UNEVEN_COSTS]:
                        assert not _order_mismatches(
                            graph, estimator, ugraph.unit_plan(bottom), order,
                            constants, absorbing,
                        )
                    priced += 1
        assert priced == 48
        assert residuals
        assert absorbed

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

    def test_a_pushed_plan_prices_as_its_bare_plan(self, shrinking_setup):
        """The pass sees through a residual FilterNode: the join keeps its
        rows before the residual filters, the FilterNode gets them after."""
        graph, estimator = shrinking_setup
        plan = build_right_deep(graph, ["a", "b", "c"])
        for aware in (True, False):
            bare = estimated_cpu(plan, estimator, aware)
            pushed = push_down_bitvectors(plan)
            (residual,) = [n for n in pushed.walk() if isinstance(n, FilterNode)]
            priced = estimated_cpu(pushed, estimator, aware)
            assert priced[:4] == bare[:4]
            assert priced.node_rows == _reference_rows(pushed, estimator, aware)
            join = residual.child
            assert priced.node_rows[join.node_id] == bare.node_rows[join.node_id]
            assert priced.node_rows[residual.node_id] == bare.join_rows[plan][1]
            assert priced.node_rows.keys() - bare.node_rows.keys() == {
                residual.node_id
            }
            # Only the aware model shrinks rows at the residual filter.
            assert (
                priced.node_rows[residual.node_id] < priced.node_rows[join.node_id]
            ) == aware
            plan = strip_bitvectors(pushed)
