"""Empirical validation of the paper's theorems (Sections 4 and 5).

For random star/snowflake instances with PKFK joins and exact
(no-false-positive) bitvector filters, the *true* ``Cout`` minimum over
ALL right-deep trees without cross products must be attained inside the
linear candidate set — Theorems 4.1/4.2 (star), 5.1/5.2 (snowflake),
5.3/5.4 (branch).  The equal-cost lemmas (4, 5, 8) are checked directly
on permutations.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.physical import true_cout
from repro.optimizer.candidates import (
    branch_candidate_orders,
    snowflake_candidate_orders,
    star_candidate_orders,
)
from repro.optimizer.enumerate import right_deep_orders
from repro.plan.builder import build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.workloads.synthetic import random_snowflake, random_star


def cout_of_order(db, graph, order) -> float:
    plan = push_down_bitvectors(build_right_deep(graph, list(order)))
    return true_cout(plan, db)


def min_cout(db, graph, orders) -> float:
    return min(cout_of_order(db, graph, order) for order in orders)


class TestTheorem41Star:
    """Star: min over all right-deep orders == min over n+1 candidates."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_candidates_contain_minimum(self, seed):
        db, spec = random_star(seed, num_dimensions=3, fact_rows=800, dim_rows=60)
        graph = JoinGraph(spec, db.catalog)
        full = min_cout(db, graph, right_deep_orders(graph))
        candidates = min_cout(db, graph, star_candidate_orders(graph, "f"))
        assert candidates == pytest.approx(full, rel=1e-9)

    def test_larger_star(self):
        db, spec = random_star(77, num_dimensions=5, fact_rows=600, dim_rows=40)
        graph = JoinGraph(spec, db.catalog)
        full = min_cout(db, graph, right_deep_orders(graph))
        candidates = min_cout(db, graph, star_candidate_orders(graph, "f"))
        assert candidates == pytest.approx(full, rel=1e-9)


class TestLemma4EqualCostFactFirst:
    """All dimension permutations behind the fact cost the same."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_permutation_invariance(self, seed):
        db, spec = random_star(seed, num_dimensions=3, fact_rows=500, dim_rows=50)
        graph = JoinGraph(spec, db.catalog)
        dims = [a for a in spec.aliases if a != "f"]
        costs = {
            cout_of_order(db, graph, ["f"] + list(perm))
            for perm in itertools.permutations(dims)
        }
        assert len(costs) == 1


class TestLemma5EqualCostDimLeading:
    """With Rk leading, remaining dimension permutations cost the same."""

    def test_permutation_invariance(self):
        db, spec = random_star(5, num_dimensions=4, fact_rows=500, dim_rows=50)
        graph = JoinGraph(spec, db.catalog)
        dims = [a for a in spec.aliases if a != "f"]
        leader = dims[0]
        rest = dims[1:]
        costs = {
            round(cout_of_order(db, graph, [leader, "f"] + list(perm)), 6)
            for perm in itertools.permutations(rest)
        }
        assert len(costs) == 1


class TestTheorem51Snowflake:
    """Snowflake: min over all orders == min over n+1 candidates."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_candidates_contain_minimum(self, seed):
        db, spec = random_snowflake(
            seed, branch_lengths=(1, 2), fact_rows=600, dim_rows=50
        )
        graph = JoinGraph(spec, db.catalog)
        full = min_cout(db, graph, right_deep_orders(graph))
        candidates = min_cout(db, graph, snowflake_candidate_orders(graph, "f"))
        assert candidates == pytest.approx(full, rel=1e-9)

    def test_three_branch_snowflake(self):
        db, spec = random_snowflake(
            11, branch_lengths=(1, 2, 2), fact_rows=600, dim_rows=50
        )
        graph = JoinGraph(spec, db.catalog)
        full = min_cout(db, graph, right_deep_orders(graph))
        candidates = min_cout(db, graph, snowflake_candidate_orders(graph, "f"))
        assert candidates == pytest.approx(full, rel=1e-9)


class TestLemma8EqualCostPartialOrders:
    """All partially-ordered fact-first snowflake plans cost the same."""

    def test_branch_interleavings_equal(self):
        db, spec = random_snowflake(3, branch_lengths=(2, 2), fact_rows=500)
        graph = JoinGraph(spec, db.catalog)
        costs = set()
        for order in right_deep_orders(graph):
            if order[0] != "f":
                continue
            costs.add(round(cout_of_order(db, graph, order), 6))
        assert len(costs) == 1


class TestTheorem53Branch:
    """Chain: min over all orders == min over the n+1 chain candidates."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_candidates_contain_minimum(self, seed):
        db, spec = random_snowflake(
            seed, branch_lengths=(3,), fact_rows=600, dim_rows=60
        )
        graph = JoinGraph(spec, db.catalog)
        chain = ["f"] + graph.chain_order("f", graph.branch_components("f")[0])
        full = min_cout(db, graph, right_deep_orders(graph))
        candidates = min_cout(db, graph, branch_candidate_orders(chain))
        assert candidates == pytest.approx(full, rel=1e-9)


class TestComplexityCounts:
    """Table 2: full space grows super-linearly, candidates stay n+1."""

    def test_star_growth(self):
        from repro.optimizer.enumerate import count_right_deep_orders

        counts = []
        for n in (2, 3, 4, 5):
            db, spec = random_star(0, num_dimensions=n, fact_rows=50, dim_rows=10)
            graph = JoinGraph(spec, db.catalog)
            full = count_right_deep_orders(graph)
            candidates = len(list(star_candidate_orders(graph, "f")))
            counts.append((full, candidates))
            assert candidates == n + 1
        fulls = [c[0] for c in counts]
        assert fulls == sorted(fulls)
        assert fulls[-1] / fulls[0] > 10  # exponential-style growth
