"""Tests for plan construction and Algorithm 1 (bitvector push-down)."""

import pytest

from repro.errors import OptimizerError, PlanError
from repro.plan.builder import build_right_deep, join_nodes, scan_for
from repro.plan.nodes import FilterNode, HashJoinNode, ScanNode
from repro.plan.properties import (
    is_right_deep,
    join_count,
    plan_signature,
    right_deep_order,
)
from repro.plan.pushdown import push_down_bitvectors, strip_bitvectors
from repro.query.joingraph import JoinGraph
from repro.query.spec import JoinPredicate, QuerySpec, RelationRef
from repro.workloads.synthetic import random_snowflake


@pytest.fixture(scope="module")
def star_graph(star_db, star_spec):
    return JoinGraph(star_spec, star_db.catalog)


class TestBuilder:
    def test_right_deep_shape(self, star_graph):
        plan = build_right_deep(star_graph, ["f", "d1", "d2"])
        assert is_right_deep(plan)
        assert join_count(plan) == 2
        assert right_deep_order(plan) == ["f", "d1", "d2"]

    def test_cross_product_prefix_rejected(self, star_graph):
        with pytest.raises(OptimizerError, match="cross product"):
            build_right_deep(star_graph, ["d1", "d2", "f"])

    def test_dim_leading_order_allowed(self, star_graph):
        plan = build_right_deep(star_graph, ["d1", "f", "d2"])
        assert right_deep_order(plan) == ["d1", "f", "d2"]

    def test_empty_order_rejected(self, star_graph):
        with pytest.raises(OptimizerError):
            build_right_deep(star_graph, [])

    def test_join_nodes_collects_all_edges(self, star_db):
        spec = QuerySpec(
            name="q",
            relations=(RelationRef("a", "fact"), RelationRef("b", "fact")),
            join_predicates=(
                JoinPredicate("a", ("fk1",), "b", ("fk1",)),
                JoinPredicate("a", ("fk2",), "b", ("fk2",)),
            ),
        )
        graph = JoinGraph(spec, star_db.catalog)
        join = join_nodes(graph, scan_for(spec, "a"), scan_for(spec, "b"))
        assert len(join.build_keys) == 2

    def test_join_children_must_not_overlap(self, star_graph, star_spec):
        scan = scan_for(star_spec, "f")
        with pytest.raises(PlanError):
            HashJoinNode(scan, scan, (("f", "fk1"),), (("f", "fk1"),))


class TestPushdown:
    def test_star_filters_land_on_fact_scan(self, star_graph):
        plan = push_down_bitvectors(build_right_deep(star_graph, ["f", "d1", "d2"]))
        fact_scan = next(
            node for node in plan.walk()
            if isinstance(node, ScanNode) and node.alias == "f"
        )
        assert len(fact_scan.applied_bitvectors) == 2
        assert not any(isinstance(node, FilterNode) for node in plan.walk())

    def test_every_join_creates_one_filter(self, star_graph):
        plan = push_down_bitvectors(build_right_deep(star_graph, ["f", "d1", "d2"]))
        joins = [n for n in plan.walk() if isinstance(n, HashJoinNode)]
        assert all(join.created_bitvector is not None for join in joins)

    def test_disabled_joins_create_nothing(self, star_graph):
        plan = build_right_deep(star_graph, ["f", "d1", "d2"])
        for node in plan.walk():
            if isinstance(node, HashJoinNode):
                node.creates_bitvector = False
        plan = push_down_bitvectors(plan)
        assert all(
            not node.applied_bitvectors for node in plan.walk()
        )

    def test_snowflake_filters_follow_chain(self):
        db, spec = random_snowflake(1, branch_lengths=(2,))
        graph = JoinGraph(spec, db.catalog)
        # T(f, b0_0, b0_1): filter from b0_1 must land on b0_0's scan,
        # filter from b0_0 on the fact scan (paper Lemma 7).
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "b0_0", "b0_1"]))
        scans = {n.alias: n for n in plan.walk() if isinstance(n, ScanNode)}
        fact_filters = scans["f"].applied_bitvectors
        chain_filters = scans["b0_0"].applied_bitvectors
        assert len(fact_filters) == 1
        assert fact_filters[0].probe_keys[0][0] == "f"
        assert len(chain_filters) == 1
        assert chain_filters[0].probe_keys[0][0] == "b0_0"

    def test_residual_filter_for_multi_alias_keys(self, star_db, residual_spec):
        # build side joins BOTH probe relations => its filter references
        # two aliases and cannot descend past the join that combines them
        graph = JoinGraph(residual_spec, star_db.catalog)
        plan = push_down_bitvectors(build_right_deep(graph, ["a", "b", "c"]))
        assert any(isinstance(node, FilterNode) for node in plan.walk())

    def test_pushdown_rejects_existing_filters(self, star_graph):
        plan = push_down_bitvectors(build_right_deep(star_graph, ["f", "d1", "d2"]))
        # wrap with a residual filter manually and re-run: must fail
        wrapped = FilterNode(plan)
        with pytest.raises(PlanError):
            push_down_bitvectors(wrapped)

    def test_strip_bitvectors(self, star_graph):
        plan = push_down_bitvectors(build_right_deep(star_graph, ["f", "d1", "d2"]))
        stripped = strip_bitvectors(plan)
        assert all(not node.applied_bitvectors for node in stripped.walk())
        assert all(
            node.created_bitvector is None
            for node in stripped.walk()
            if isinstance(node, HashJoinNode)
        )

    def test_signature_distinguishes_orders(self, star_graph):
        a = plan_signature(build_right_deep(star_graph, ["f", "d1", "d2"]))
        b = plan_signature(build_right_deep(star_graph, ["f", "d2", "d1"]))
        assert a != b


def _recursive_walk(node):
    """Pre-order by definition: the node, then each child's subtree."""
    yield node
    for child in node.children():
        yield from _recursive_walk(child)


def _recomputed_aliases(node):
    if isinstance(node, ScanNode):
        return frozenset({node.alias})
    return frozenset().union(
        *(_recomputed_aliases(child) for child in node.children())
    )


def _assert_alias_sets_hold(plan):
    for node in plan.walk():
        assert node.output_aliases == _recomputed_aliases(node), node.label


class TestAliasSetInvariant:
    """A join fixes its alias set at construction; push-down and strip
    only wrap / unwrap children, so it must still equal the union
    recomputed from whatever the children are now."""

    @pytest.fixture()
    def residual_graph(self, star_db, residual_spec):
        return JoinGraph(residual_spec, star_db.catalog)

    @pytest.fixture()
    def residual_plan(self, residual_graph):
        return build_right_deep(residual_graph, ["a", "b", "c"])

    @staticmethod
    def bushy_plan():
        db, spec = random_snowflake(3, branch_lengths=(2, 2))
        graph = JoinGraph(spec, db.catalog)
        left = build_right_deep(graph, ["b0_0", "b0_1"])
        right = build_right_deep(graph, ["f", "b1_0", "b1_1"])
        return join_nodes(graph, build=left, probe=right)

    def test_holds_through_pushdown_with_residuals_and_strip(self, residual_plan):
        plan = residual_plan
        _assert_alias_sets_hold(plan)
        pushed = push_down_bitvectors(plan)
        assert any(isinstance(node, FilterNode) for node in pushed.walk())
        _assert_alias_sets_hold(pushed)
        stripped = strip_bitvectors(pushed)
        assert not any(isinstance(node, FilterNode) for node in stripped.walk())
        _assert_alias_sets_hold(stripped)

    def test_holds_on_a_bushy_tree(self):
        plan = self.bushy_plan()
        assert not is_right_deep(plan)
        _assert_alias_sets_hold(push_down_bitvectors(plan))
        _assert_alias_sets_hold(strip_bitvectors(plan))

    def test_walk_order_is_the_recursive_preorder(self, residual_plan):
        deep_db, deep_spec = random_snowflake(4, branch_lengths=(3, 2, 1))
        deep_graph = JoinGraph(deep_spec, deep_db.catalog)
        right_deep = build_right_deep(
            deep_graph, ["f", "b0_0", "b0_1", "b0_2", "b1_0", "b1_1", "b2_0"]
        )
        for plan in (right_deep, self.bushy_plan(), residual_plan):
            assert list(plan.walk()) == list(_recursive_walk(plan))
            pushed = push_down_bitvectors(plan)
            assert list(pushed.walk()) == list(_recursive_walk(pushed))

    def test_join_keys_keep_build_then_probe_alias_order(
        self, residual_graph, residual_plan
    ):
        # c joins both a and b: keys come out sorted by (build alias,
        # probe alias) whichever side the adjacency is read from.
        assert residual_plan.build_keys == (("c", "fk1"), ("c", "fk2"))
        assert residual_plan.probe_keys == (("a", "fk2"), ("b", "id"))
        flipped = join_nodes(
            residual_graph,
            build=build_right_deep(residual_graph, ["a", "b"]),
            probe=scan_for(residual_graph.spec, "c"),
        )
        assert flipped.build_keys == (("a", "fk2"), ("b", "id"))
        assert flipped.probe_keys == (("c", "fk1"), ("c", "fk2"))
