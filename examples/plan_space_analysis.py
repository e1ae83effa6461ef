"""Theorems 4.1 / 5.1 in action: the linear candidate set.

Enumerates EVERY cross-product-free right-deep plan of a random
snowflake query, computes each plan's exact bitvector-aware Cout by
executing it, and shows that the n+1 candidate plans of the paper's
analysis contain the global minimum — while the full space is orders of
magnitude larger.  (This linear candidate set is what keeps plan-cache
misses cheap in the ``repro.service.QueryService`` serving path.)

Run:  python examples/plan_space_analysis.py
"""

from __future__ import annotations

from collections import Counter

from repro.cost.physical import true_cout
from repro.optimizer.candidates import snowflake_candidate_orders
from repro.optimizer.enumerate import right_deep_orders
from repro.plan.builder import build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.workloads.synthetic import random_snowflake


def cost_of(database, graph, order) -> float:
    plan = push_down_bitvectors(build_right_deep(graph, list(order)))
    return true_cout(plan, database)


def main() -> None:
    database, spec = random_snowflake(
        seed=7, branch_lengths=(1, 2, 2), fact_rows=2000, dim_rows=80
    )
    graph = JoinGraph(spec, database.catalog)
    print(f"Snowflake query: fact + branches of lengths (1, 2, 2)\n{spec}\n")

    print("Enumerating the FULL right-deep plan space ...")
    full_costs = []
    for order in right_deep_orders(graph):
        full_costs.append((cost_of(database, graph, order), tuple(order)))
    full_costs.sort()
    print(f"  {len(full_costs)} plans; Cout range "
          f"[{full_costs[0][0]:.0f} .. {full_costs[-1][0]:.0f}]")

    print("\nCost distribution (text histogram):")
    lows = full_costs[0][0]
    highs = full_costs[-1][0]
    buckets = Counter()
    for cost, _ in full_costs:
        bucket = int(9.999 * (cost - lows) / max(1e-9, highs - lows))
        buckets[bucket] += 1
    for bucket in range(10):
        bar = "#" * buckets.get(bucket, 0)
        lo = lows + bucket * (highs - lows) / 10
        print(f"  {lo:10.0f}+ | {bar}")

    print("\nEvaluating the n+1 candidates of Theorem 5.1 ...")
    candidate_costs = []
    for order in snowflake_candidate_orders(graph, "f"):
        candidate_costs.append((cost_of(database, graph, order), tuple(order)))
    candidate_costs.sort()
    for cost, order in candidate_costs:
        print(f"  Cout {cost:10.0f}   T({', '.join(order)})")

    best_full = full_costs[0][0]
    best_candidate = candidate_costs[0][0]
    print(f"\n  full-space minimum : {best_full:.0f}")
    print(f"  candidate minimum  : {best_candidate:.0f}")
    print(f"  candidates searched: {len(candidate_costs)} "
          f"(vs {len(full_costs)} in the full space)")
    assert abs(best_full - best_candidate) < 1e-6 * max(1.0, best_full)
    print("\nThe linear candidate set contains the optimum — Theorem 5.1 holds.")


if __name__ == "__main__":
    main()
