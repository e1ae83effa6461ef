"""Bitvector filter creation and push-down — the paper's Algorithm 1.

Starting from the plan root, each hash join creates one bitvector filter
from its build side keyed on the equi-join columns, destined for the
probe side.  Every in-flight filter then descends: if exactly one child
of the current operator carries *all* the columns the filter references,
it continues into that child; otherwise it is applied right here via a
residual :class:`~repro.plan.nodes.FilterNode`.  Filters that reach a
scan are applied at the scan ("pushed down to the lowest possible
level").

The traversal mirrors the paper's pseudo-code: ``PlanPushDown`` seeds an
empty filter set at the root and ``OpPushDown`` recurses pre-order.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.plan.nodes import (
    AggregateNode,
    BitvectorDef,
    FilterNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    TopKNode,
)


def push_down_bitvectors(plan: PlanNode) -> PlanNode:
    """Return a plan with bitvector filters created and pushed down.

    The input plan must not already contain residual filter nodes (the
    algorithm runs once, on a freshly built plan).  Scan-level
    ``applied_bitvectors`` are reset before placement, so the call is
    idempotent in effect.
    """
    for node in plan.walk():
        if isinstance(node, FilterNode):
            raise PlanError("push-down must run on a plan without FilterNodes")
        node.applied_bitvectors = []
        if isinstance(node, HashJoinNode):
            node.created_bitvector = None
    return _op_push_down(plan, [])


def route_filters(join: HashJoinNode, created, incoming: list) -> tuple[list, list, list]:
    """Algorithm 1 lines 8-23 at one join: ``(to_build, to_probe, residual)``.

    ``created`` (the join's own filter, or ``None``) goes first on the
    probe side; each incoming filter goes to the unique child carrying
    all its ``probe_aliases``, or stays as residual.  Arrival order is
    kept: survival applies to a running row count.
    """
    to_build, residual = [], []
    to_probe = [] if created is None else [created]
    build_side = join.build.output_aliases
    probe_side = join.probe.output_aliases
    for bitvector in incoming:
        in_build = bitvector.probe_aliases <= build_side
        if in_build == (bitvector.probe_aliases <= probe_side):
            residual.append(bitvector)  # neither child, or both
        elif in_build:
            to_build.append(bitvector)
        else:
            to_probe.append(bitvector)
    return to_build, to_probe, residual


def _op_push_down(op: PlanNode, incoming: list[BitvectorDef]) -> PlanNode:
    if isinstance(op, (AggregateNode, TopKNode)):
        op.child = _op_push_down(op.child, incoming)
        return op

    if isinstance(op, ScanNode):
        # Lowest possible level: apply every arriving filter at the scan.
        for bitvector in incoming:
            if not bitvector.probe_aliases <= op.output_aliases:
                raise PlanError(
                    f"filter {bitvector!r} cannot apply at scan {op.alias!r}"
                )
        op.applied_bitvectors = list(incoming)
        return op

    if not isinstance(op, HashJoinNode):
        raise PlanError(f"unexpected node in push-down: {op.label}")

    # Lines 8-10: this hash join creates a filter for its probe side.
    created = None
    if op.creates_bitvector:
        created = BitvectorDef(
            source_join=op,
            build_keys=op.build_keys,
            probe_keys=op.probe_keys,
        )
        op.created_bitvector = created
    to_build, to_probe, residual = route_filters(op, created, incoming)

    # Lines 30-33: recurse into children with their routed filters.
    op.build = _op_push_down(op.build, to_build)
    op.probe = _op_push_down(op.probe, to_probe)

    # Lines 24-29: wrap with a residual filter operator if needed.
    if residual:
        filter_node = FilterNode(op)
        filter_node.applied_bitvectors = residual
        return filter_node
    return op


def strip_bitvectors(plan: PlanNode) -> PlanNode:
    """Remove all bitvector filters (creation + application) from a plan.

    Used by the Table 4 experiment, which executes the *same* plan with
    and without bitvector filtering.  Residual filter nodes are spliced
    out of the tree.
    """
    for node in plan.walk():
        node.applied_bitvectors = []
        if isinstance(node, HashJoinNode):
            node.created_bitvector = None
    return _splice_filters(plan)


def _splice_filters(node: PlanNode) -> PlanNode:
    if isinstance(node, FilterNode):
        return _splice_filters(node.child)
    if isinstance(node, HashJoinNode):
        node.build = _splice_filters(node.build)
        node.probe = _splice_filters(node.probe)
        return node
    if isinstance(node, (AggregateNode, TopKNode)):
        node.child = _splice_filters(node.child)
        return node
    return node
