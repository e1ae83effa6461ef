"""Expected CPU, ``Cout`` and rows of a bare plan, in one read-only pass.

CPU is the Section 6.3 model: a weighted sum of per-tuple work —
scanning, hash-table build, probe, output materialization, bitvector
creation and checks, and the final aggregation.  The weights live in
:class:`repro.cost.constants.CostConstants` and are shared with the
executor's metered CPU, so estimated and measured costs are directly
comparable.

:func:`estimated_cpu` prices a plan as Algorithm 1 would leave it,
routing filters with push-down's own step
(:func:`repro.plan.pushdown.route_filters`) and the model's formulas,
and writes nothing to the plan, so candidates may share subplans.  It
equals push-down plus :class:`EstimatedCardModel` bit for bit: CPU terms
are summed in the pushed plan's ``walk()`` pre-order and ``Cout`` keeps
:func:`~repro.cost.cout.cout`'s association.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.cout import filter_survival, join_rows
from repro.errors import PlanError
from repro.plan.nodes import (
    AggregateNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    TopKNode,
)
from repro.plan.pushdown import route_filters
from repro.stats.estimator import CardinalityEstimator


class PlanEstimate(NamedTuple):
    """What one pricing pass learns about a plan."""

    rows: float  # root output rows
    cpu: float   # Section 6.3 CPU
    cout: float  # C_out (Section 3.3)
    # Per join: (build rows, probe rows) as the join sees them, i.e.
    # after any residual filter above each child.
    join_rows: dict[HashJoinNode, tuple[float, float]]


def estimated_cpu(
    plan: PlanNode,
    estimator: CardinalityEstimator,
    bitvector_aware: bool = True,
    constants: CostConstants = DEFAULT_COSTS,
) -> PlanEstimate:
    """Price a bare plan (no ``FilterNode``) with its filters in place.

    ``bitvector_aware=False`` is the blind model's view: filters are
    routed and their checks charged, but rows ignore them.  Scan-level
    checks are charged at the scan's pre-filter cardinality (a slight
    over-estimate when several filters stack; the executor meters the
    exact diminishing sequence).
    """
    terms: list[Sequence[float]] = []  # one group per node, pre-order
    built: dict[HashJoinNode, float] = {}  # build rows of each filter's join
    sides: dict[HashJoinNode, tuple[float, float]] = {}

    def reduced(rows: float, filters: list[HashJoinNode]) -> float:
        if bitvector_aware:
            for source in filters:
                rows *= filter_survival(estimator, source, built[source], rows)
        return max(1.0, rows)

    def visit(node: PlanNode, incoming: list[HashJoinNode]) -> tuple[float, float]:
        """``(rows out, Cout)`` of ``node`` with ``incoming`` landed in it."""
        if isinstance(node, ScanNode):
            after_predicate = estimator.base_cardinality(node.alias, node.predicate)
            terms.append((
                estimator.table_rows(node.alias) * constants.scan,
                after_predicate * constants.filter_check * len(incoming),
            ))
            rows = reduced(after_predicate, incoming)
            return rows, rows
        slot = len(terms)
        terms.append(())
        if isinstance(node, (AggregateNode, TopKNode)):
            rows, cost = visit(node.child, incoming)
            if isinstance(node, AggregateNode):
                terms[slot] = (rows * constants.aggregate,)
            elif node.limit is not None:
                rows = max(1.0, min(rows, float(node.limit)))
            return rows, cost
        if not isinstance(node, HashJoinNode):
            raise PlanError(f"cannot cost node {node.label}")
        to_build, to_probe, residual = route_filters(
            node, node if node.creates_bitvector else None, incoming
        )
        build_rows, build_cost = visit(node.build, to_build)
        built[node] = build_rows
        probe_rows, probe_cost = visit(node.probe, to_probe)
        sides[node] = (build_rows, probe_rows)
        rows = join_rows(estimator, node, build_rows, probe_rows, bitvector_aware)
        # A residual FilterNode precedes its join in pre-order.
        group = [rows * constants.filter_check * len(residual)] if residual else []
        group.append(build_rows * constants.build)
        if node.creates_bitvector:
            group.append(build_rows * constants.filter_insert)
        group += (probe_rows * constants.probe, rows * constants.output)
        terms[slot] = group
        if residual:
            rows = reduced(rows, residual)
        return rows, rows + build_cost + probe_cost

    rows, cost = visit(plan, [])
    # ``visit`` refers to itself; unbinding it breaks that cycle, which
    # would otherwise keep every priced plan alive until a GC pass.
    del visit
    cpu = 0.0
    for group in terms:
        for term in group:
            cpu += term
    return PlanEstimate(rows, cpu, cost, sides)
