"""Ablation 4 — plan robustness under bitvector filters.

The paper closes by observing (with LIP, its closest prior work) that
bitvector filters make query plans *robust*: with all filters pushed to
the fact table, right-deep plans with different dimension permutations
have nearly identical cost, while without filters the permutation
choice matters enormously.

We quantify this on a random star query: execute every fact-first
right-deep permutation with and without filters and compare the spread
(max/min) of true Cout and metered CPU.  Lemma 4 says the Cout spread
with exact filters is exactly zero.
"""

from __future__ import annotations

import itertools

from repro.bench.reporting import render_table
from repro.cost.physical import estimated_cpu
from repro.engine.executor import Executor
from repro.plan.builder import build_right_deep
from repro.plan.nodes import HashJoinNode
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator
from repro.workloads.synthetic import random_star


def _permutation_costs(db, graph, dims, with_filters: bool):
    executor = Executor(db)
    estimator = CardinalityEstimator(db, graph.spec.alias_tables)
    couts = []
    cpus = []
    for perm in itertools.permutations(dims):
        plan = build_right_deep(graph, ["f", *perm])
        if not with_filters:
            for node in plan.walk():
                if isinstance(node, HashJoinNode):
                    node.creates_bitvector = False
        plan = push_down_bitvectors(plan)
        result = executor.execute(plan)
        couts.append(
            estimated_cpu(plan, estimator, observed=result.metrics).cout
        )
        cpus.append(result.metrics.metered_cpu())
    return couts, cpus


def test_abl04_plan_robustness(benchmark):
    db, spec = random_star(21, num_dimensions=4, fact_rows=3000, dim_rows=100)
    graph = JoinGraph(spec, db.catalog)
    dims = [a for a in spec.aliases if a != "f"]

    couts_bv, cpus_bv = benchmark.pedantic(
        _permutation_costs, args=(db, graph, dims, True), rounds=1, iterations=1
    )
    couts_plain, cpus_plain = _permutation_costs(db, graph, dims, False)

    rows = [
        {
            "filters": "on",
            "plans": len(couts_bv),
            "cout_spread": round(max(couts_bv) / min(couts_bv), 4),
            "cpu_spread": round(max(cpus_bv) / min(cpus_bv), 4),
        },
        {
            "filters": "off",
            "plans": len(couts_plain),
            "cout_spread": round(max(couts_plain) / min(couts_plain), 4),
            "cpu_spread": round(max(cpus_plain) / min(cpus_plain), 4),
        },
    ]
    print()
    print(render_table(
        rows,
        "Ablation: permutation robustness of fact-first right-deep plans "
        "(Lemma 4 / LIP observation)",
    ))

    # Lemma 4: with exact filters, every permutation has the same Cout.
    assert max(couts_bv) - min(couts_bv) < 1e-6 * max(couts_bv)
    # Metered CPU varies only through filter-check ordering (tiny).
    assert max(cpus_bv) / min(cpus_bv) < 1.05
    # Without filters, the permutation choice matters much more.
    assert (max(couts_plain) / min(couts_plain)) > 1.2 * (
        max(couts_bv) / min(couts_bv)
    )
