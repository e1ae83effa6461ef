"""Algorithm 3: join ordering for arbitrary decision-support graphs.

Alternates two stages until the whole graph is one unit:

1. **ExtractSnowflake** — among unoptimized fact units, take the one
   with the smallest cardinality and expand it with every unit
   reachable through key joins (its dimension closure).  If only one
   unoptimized fact remains, the whole remaining graph is the
   snowflake (non-key branches become Algorithm 2's group P0).
2. **OptimizeSnowflake** — Algorithm 2 on the extracted subgraph; the
   result is collapsed into a single *optimized* composite unit that
   later iterations treat as a relation.
"""

from __future__ import annotations

from repro.cost.physical import estimated_cpu
from repro.errors import OptimizerError
from repro.optimizer.snowflake import SearchStats, optimize_snowflake
from repro.optimizer.units import UnitGraph
from repro.plan.nodes import PlanNode
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator


def optimize_join_graph(
    graph: JoinGraph,
    estimator: CardinalityEstimator,
    bitvector_aware: bool = True,
    context=None,
    search: SearchStats | None = None,
) -> PlanNode:
    """Produce a join order for an arbitrary connected join graph.

    ``bitvector_aware=False`` runs the identical extraction loop with
    blind snowflake optimization — the baseline configuration (the host
    optimizer's snowflake heuristics without bitvector awareness).

    ``context`` arms a deadline/cancel check per extraction round (and,
    inside :func:`~repro.optimizer.snowflake.optimize_snowflake`, per
    enumerated candidate), so plan search on a pathological graph stays
    abortable.  ``search``, when given, counts extraction rounds and
    costed candidates.
    """
    if not graph.aliases:
        raise OptimizerError("query has no relations")
    if not graph.is_connected():
        raise OptimizerError("join graph is disconnected (cross product)")

    ugraph = UnitGraph(graph, estimator)
    while True:
        if context is not None:
            context.check()
        unit_ids = set(ugraph.unit_ids)
        if len(unit_ids) == 1:
            only = next(iter(unit_ids))
            return ugraph.unit_plan(only)

        fact_id, scope = _extract_snowflake(ugraph, unit_ids)
        if search is not None:
            search.snowflakes += 1
        plan = optimize_snowflake(
            ugraph, fact_id, scope, bitvector_aware, context=context,
            search=search,
        )
        if scope == unit_ids:
            return plan
        rows = _estimate_plan_rows(plan, estimator)
        ugraph.collapse(scope, plan, rows, fact_id)


def _extract_snowflake(
    ugraph: UnitGraph, unit_ids: set[str]
) -> tuple[str, set[str]]:
    """Pick the next fact unit and its snowflake scope."""
    facts = [uid for uid in sorted(unit_ids) if ugraph.is_fact_unit(uid)]
    unoptimized = [uid for uid in facts if not ugraph.unit(uid).optimized]

    if len(unoptimized) >= 2:
        fact_id = min(unoptimized, key=lambda uid: (ugraph.unit(uid).rows, uid))
        scope = ugraph.expand_snowflake(fact_id, unit_ids)
        if len(scope) > 1:
            return fact_id, scope
        # Nothing hangs off this fact via key joins; optimizing it alone
        # would not shrink the graph — take the whole graph instead.
        return fact_id, set(unit_ids)
    if len(unoptimized) == 1:
        return unoptimized[0], set(unit_ids)
    # No unoptimized fact remains (everything collapsed or cyclic key
    # joins): anchor on the smallest unit and finish in one pass.
    fact_id = min(unit_ids, key=lambda uid: (ugraph.unit(uid).rows, uid))
    return fact_id, set(unit_ids)


def _estimate_plan_rows(plan: PlanNode, estimator: CardinalityEstimator) -> float:
    """Estimated output cardinality of a subplan — bitvector-aware even
    when the search itself is blind."""
    return estimated_cpu(plan, estimator, bitvector_aware=True).rows
