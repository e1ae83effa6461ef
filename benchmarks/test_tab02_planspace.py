"""Table 2 — plan space complexity: exponential vs linear.

For star and snowflake queries with PKFK joins, the number of
cross-product-free right-deep orders grows super-linearly with the
relation count while the candidate set of Theorems 4.1/5.1 stays at
``n + 1`` — and the candidate set always contains a plan with the
minimal true ``Cout``.

The pytest-benchmark measurement is the *candidate* search (evaluate
n+1 plans); exhaustive search times are printed alongside so the
complexity gap is visible in wall-clock too.
"""

from __future__ import annotations

import time

from repro.bench.reporting import render_table
from repro.cost.physical import true_cout
from repro.optimizer.candidates import (
    snowflake_candidate_orders,
    star_candidate_orders,
)
from repro.optimizer.enumerate import right_deep_orders
from repro.plan.builder import build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.workloads.synthetic import random_snowflake, random_star


def _min_cout(db, graph, orders) -> tuple[float, int]:
    best = float("inf")
    count = 0
    for order in orders:
        plan = push_down_bitvectors(build_right_deep(graph, list(order)))
        best = min(best, true_cout(plan, db))
        count += 1
    return best, count


def _candidate_search(db, graph, fact, kind):
    orders = (
        star_candidate_orders(graph, fact)
        if kind == "star"
        else snowflake_candidate_orders(graph, fact)
    )
    return _min_cout(db, graph, orders)


def test_tab02_star_plan_space(benchmark):
    rows = []
    for n_dims in (3, 4, 5):
        db, spec = random_star(
            n_dims, num_dimensions=n_dims, fact_rows=800, dim_rows=60
        )
        graph = JoinGraph(spec, db.catalog)
        started = time.perf_counter()
        full_min, full_count = _min_cout(db, graph, right_deep_orders(graph))
        full_seconds = time.perf_counter() - started
        started = time.perf_counter()
        cand_min, cand_count = _candidate_search(db, graph, "f", "star")
        cand_seconds = time.perf_counter() - started
        rows.append(
            {
                "relations": n_dims + 1,
                "full_plans": full_count,
                "candidates": cand_count,
                "full_min": round(full_min),
                "cand_min": round(cand_min),
                "full_s": round(full_seconds, 3),
                "cand_s": round(cand_seconds, 3),
            }
        )
        assert cand_count == n_dims + 1
        assert abs(full_min - cand_min) < 1e-6 * max(1.0, full_min)
    print()
    print(render_table(rows, "Table 2 (star): full space vs n+1 candidates"))
    # exponential vs linear growth
    assert rows[-1]["full_plans"] > 10 * rows[-1]["candidates"]

    db, spec = random_star(99, num_dimensions=4, fact_rows=800, dim_rows=60)
    graph = JoinGraph(spec, db.catalog)
    benchmark.pedantic(
        _candidate_search, args=(db, graph, "f", "star"), rounds=3, iterations=1
    )


def test_tab02_snowflake_plan_space(benchmark):
    rows = []
    for branches in ((1, 2), (2, 2), (1, 2, 2)):
        n = sum(branches)
        db, spec = random_snowflake(
            n, branch_lengths=branches, fact_rows=700, dim_rows=50
        )
        graph = JoinGraph(spec, db.catalog)
        full_min, full_count = _min_cout(db, graph, right_deep_orders(graph))
        cand_min, cand_count = _candidate_search(db, graph, "f", "snowflake")
        rows.append(
            {
                "relations": n + 1,
                "branches": str(branches),
                "full_plans": full_count,
                "candidates": cand_count,
                "full_min": round(full_min),
                "cand_min": round(cand_min),
            }
        )
        assert cand_count == n + 1
        assert abs(full_min - cand_min) < 1e-6 * max(1.0, full_min)
    print()
    print(render_table(rows, "Table 2 (snowflake): full space vs n+1 candidates"))
    assert rows[-1]["full_plans"] > 10 * rows[-1]["candidates"]

    db, spec = random_snowflake(7, branch_lengths=(2, 2), fact_rows=700)
    graph = JoinGraph(spec, db.catalog)
    benchmark.pedantic(
        _candidate_search,
        args=(db, graph, "f", "snowflake"),
        rounds=3,
        iterations=1,
    )
