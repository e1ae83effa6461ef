"""Ablation 5 — optimization time.

The paper notes its transformation rule cuts query optimization time to
about one third of the original optimizer's (join reordering is disabled
on the transformed subplan, and only a linear number of candidates is
costed).

We time the three planners on the same query set:

* ``bqo``     — linear candidate families (Algorithms 2+3),
* ``dp``      — exact bushy DP over connected subsets,
* ``cascades-full`` — full bitvector-aware integration (plan-space
  enumeration), the expensive road the analysis avoids.

Expected shape: BQO's planning time is far below full integration and
at or below exact DP on multi-relation queries, and it scales to the
20+-join CUSTOMER queries where exact DP cannot run at all (the DP
pipeline silently degrades to greedy there).

Seconds are printed, never asserted.  What is asserted is *counted*
work, which repeats exactly: a linear number of candidates (Table 2),
each built and costed with a linear number of plan nodes and join-edge
lookups, and each predicate's selectivity derived once per
``optimize_query`` call.
"""

from __future__ import annotations

import sys
import time

from repro.bench.reporting import render_table
from repro.cascades.engine import CascadesOptimizer
from repro.optimizer import pipelines
from repro.optimizer.baseline import optimize_baseline
from repro.optimizer.multifact import optimize_join_graph
from repro.optimizer.pipelines import optimize_query
from repro.plan.nodes import BitvectorDef, FilterNode, PlanNode
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator
from repro.workloads.synthetic import random_star

_QUERY_NAMES = ("ds_q08", "ds_q11", "ds_q14")  # 5-6 relation queries


def _time_planners(db, specs) -> list[dict]:
    cascades = CascadesOptimizer(db)
    timings = {"bqo": 0.0, "dp": 0.0, "cascades_full": 0.0}
    for spec in specs:
        graph = JoinGraph(spec, db.catalog)
        estimator = CardinalityEstimator(db, spec.alias_tables)

        started = time.perf_counter()
        optimize_join_graph(graph, estimator)
        timings["bqo"] += time.perf_counter() - started

        started = time.perf_counter()
        optimize_baseline(graph, estimator)
        timings["dp"] += time.perf_counter() - started

        started = time.perf_counter()
        cascades.optimize(spec, "full")
        timings["cascades_full"] += time.perf_counter() - started
    return [
        {"planner": name, "seconds": round(seconds, 4)}
        for name, seconds in timings.items()
    ]


def _count_work(monkeypatch) -> dict[str, int]:
    """Arm counters on what plan search must not repeat or do at all:
    plan nodes constructed, predicate selectivities derived, join-graph
    edge lookups, push-downs run, and filter records or residual filter
    nodes made while searching (pricing is read-only)."""
    work = {
        "nodes": 0, "selectivities": 0, "edge_lookups": 0, "push_downs": 0,
        "filter_objects": 0, "search_filter_objects": 0,
    }

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            work[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(PlanNode, "__init__", "nodes")
    counting(CardinalityEstimator, "predicate_selectivity", "selectivities")
    counting(JoinGraph, "edge_between", "edge_lookups")
    counting(BitvectorDef, "__init__", "filter_objects")
    counting(FilterNode, "__init__", "filter_objects")
    # Wherever a module imported push-down, count the calls made there.
    for module in list(sys.modules.values()):
        if getattr(module, "push_down_bitvectors", None) is push_down_bitvectors:
            counting(module, "push_down_bitvectors", "push_downs")

    def searching(*args, **kwargs):
        before = work["filter_objects"]
        try:
            return optimize_join_graph(*args, **kwargs)
        finally:
            work["search_filter_objects"] += work["filter_objects"] - before

    monkeypatch.setattr(pipelines, "optimize_join_graph", searching)
    return work


def _assert_linear_per_candidate(work, candidates: int, relations: int) -> None:
    # A candidate adds one join per spine step over scans built once per
    # optimize_query; the final push-down adds at most one residual
    # filter per join.  Fresh scans per candidate measured 2 n per
    # candidate; a clone per candidate and a build x probe alias cross
    # product per join measured 4.0 n and 15 n on the 31-relation spec.
    assert work["nodes"] <= relations * candidates + 2 * relations
    assert work["edge_lookups"] <= 2 * relations * candidates
    assert work["search_filter_objects"] == 0
    assert work["push_downs"] == 1  # the final plan's, in _finalize


def test_abl05_optimization_time(tpcds_workload, customer_workload, benchmark):
    db, queries = tpcds_workload
    specs = [q for q in queries if q.name in _QUERY_NAMES]
    rows = benchmark.pedantic(
        _time_planners, args=(db, specs), rounds=1, iterations=1
    )

    by_planner = {row["planner"]: row["seconds"] for row in rows}
    # Linear candidates beat full integration by a wide margin.
    assert by_planner["bqo"] < by_planner["cascades_full"]

    # BQO handles the 20+-join CUSTOMER queries in reasonable time.
    cdb, cqueries = customer_workload
    big = max(cqueries, key=lambda q: len(q.relations))
    graph = JoinGraph(big, cdb.catalog)
    estimator = CardinalityEstimator(cdb, big.alias_tables)
    started = time.perf_counter()
    optimize_join_graph(graph, estimator)
    big_seconds = time.perf_counter() - started
    rows.append(
        {
            "planner": f"bqo ({len(big.relations)}-relation query)",
            "seconds": round(big_seconds, 4),
        }
    )
    print()
    print(render_table(rows, "Ablation: optimization time "
                             "(paper: rule = 1/3 of original opt time)"))


def test_abl05_counted_work_on_the_widest_customer_spec(
    customer_workload, monkeypatch
):
    cdb, cqueries = customer_workload
    big = max(cqueries, key=lambda q: len(q.relations))
    work = _count_work(monkeypatch)
    optimized = optimize_query(cdb, big, "bqo")
    relations = len(big.relations)
    print(f"\n{relations} relations, {optimized.candidates} candidates in "
          f"{optimized.snowflakes} snowflakes: {work}")
    # Each round costs at most one candidate per unit in its scope and
    # then collapses the scope into one unit.
    assert 1 <= optimized.candidates <= relations - 1 + optimized.snowflakes
    # Once per predicated alias per optimize_query call, not per candidate.
    assert work["selectivities"] <= len(big.local_predicates)
    _assert_linear_per_candidate(work, optimized.candidates, relations)


def test_abl05_star_candidates_and_work_are_linear(monkeypatch):
    work = _count_work(monkeypatch)
    for dimensions in (8, 16, 32):
        sdb, spec = random_star(7, num_dimensions=dimensions)
        for key in work:
            work[key] = 0
        optimized = optimize_query(sdb, spec, "bqo")
        print(f"\nstar n={dimensions}: {optimized.candidates} candidates, {work}")
        assert optimized.candidates == dimensions + 1  # Table 2
        assert optimized.snowflakes == 1
        assert work["selectivities"] <= len(spec.local_predicates)
        _assert_linear_per_candidate(
            work, optimized.candidates, dimensions + 1
        )
