"""Physical plan node classes.

A plan is a tree of :class:`PlanNode`.  Hash joins distinguish a *build*
child (hash table side) from a *probe* child (streaming side); the tree
shape therefore encodes the paper's plan spaces directly — a right-deep
tree is one where every build child is a leaf and the probe spine runs
to the right-most leaf.

Bitvector filters are represented by :class:`BitvectorDef` records.
Push-down (:mod:`repro.plan.pushdown`, the paper's Algorithm 1) creates
one def per hash join and attaches it to the node where it is applied:
a :class:`ScanNode` (fully pushed down) or a residual
:class:`FilterNode` above a join.
"""

from __future__ import annotations

import itertools

from repro.errors import PlanError
from repro.expr.expressions import Expression
from repro.query.spec import Aggregate, OrderKey
from repro.expr.expressions import ColumnRef

_node_counter = itertools.count(1)
_filter_counter = itertools.count(1)


class BitvectorDef:
    """One bitvector filter: created at a join, applied somewhere below.

    Attributes
    ----------
    filter_id:
        Unique id linking the creation site to the application site at
        runtime.
    source_join:
        The :class:`HashJoinNode` whose build side creates the filter.
    build_keys / probe_keys:
        Alias-qualified key columns on the build / probe side.  The
        probe keys determine where the filter may be pushed (paper
        Algorithm 1 line 15: all referenced columns must be available).
    """

    def __init__(
        self,
        source_join: "HashJoinNode",
        build_keys: tuple[tuple[str, str], ...],
        probe_keys: tuple[tuple[str, str], ...],
    ) -> None:
        self.filter_id = next(_filter_counter)
        self.source_join = source_join
        self.build_keys = build_keys
        self.probe_keys = probe_keys
        self.probe_aliases = frozenset(alias for alias, _ in probe_keys)

    def __repr__(self) -> str:
        keys = ", ".join(f"{a}.{c}" for a, c in self.probe_keys)
        return f"BV#{self.filter_id}[{keys}]"


class PlanNode:
    """Base plan node.

    ``applied_bitvectors`` lists the filters applied at this node (set
    by push-down); ``output_aliases`` is the set of base relation
    aliases whose columns the node's output carries.

    Alias-set invariant: a scan and a join fix their alias set at
    construction, and every other node reads its child's.  Nothing may
    re-assign a join's ``build`` / ``probe`` to a subplan with a
    different alias set — push-down and ``strip_bitvectors`` only wrap
    a child in a :class:`FilterNode` or unwrap it, which preserves it.
    """

    def __init__(self) -> None:
        self.node_id = next(_node_counter)
        self.applied_bitvectors: list[BitvectorDef] = []

    @property
    def output_aliases(self) -> frozenset[str]:
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def walk(self):
        """Pre-order traversal (iterative: plans are 30-deep spines)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    @property
    def label(self) -> str:
        return type(self).__name__


class ScanNode(PlanNode):
    """Leaf: scan one base table instance, applying its local predicate
    and any bitvector filters pushed down to it."""

    def __init__(self, alias: str, table_name: str,
                 predicate: Expression | None = None) -> None:
        super().__init__()
        self.alias = alias
        self.table_name = table_name
        self.predicate = predicate
        self._aliases = frozenset({alias})

    @property
    def output_aliases(self) -> frozenset[str]:
        return self._aliases

    @property
    def label(self) -> str:
        suffix = " σ" if self.predicate is not None else ""
        return f"Scan({self.alias}:{self.table_name}){suffix}"


class HashJoinNode(PlanNode):
    """Hash join: builds on ``build``, streams ``probe``.

    ``creates_bitvector`` is the cost-based switch from Section 6.3 —
    when False, push-down does not generate a filter for this join.  Its
    keys and ``probe_aliases`` mirror the :class:`BitvectorDef` it would
    create, so the read-only costing pass routes the join as its filter.
    """

    def __init__(
        self,
        build: PlanNode,
        probe: PlanNode,
        build_keys: tuple[tuple[str, str], ...],
        probe_keys: tuple[tuple[str, str], ...],
        creates_bitvector: bool = True,
    ) -> None:
        super().__init__()
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise PlanError("hash join requires aligned, non-empty key lists")
        build_side = build.output_aliases
        probe_side = probe.output_aliases
        for alias, _ in build_keys:
            if alias not in build_side:
                raise PlanError(f"build key alias {alias!r} not in build side")
        self.probe_aliases = frozenset({alias for alias, _ in probe_keys})
        if not self.probe_aliases <= probe_side:
            raise PlanError(f"probe key aliases {sorted(self.probe_aliases)} not in probe side")
        if build_side & probe_side:
            raise PlanError("join children share relation aliases")
        self.build = build
        self.probe = probe
        self._aliases = build_side | probe_side
        self.build_keys = build_keys
        self.probe_keys = probe_keys
        self.creates_bitvector = creates_bitvector
        # Filled in by push-down when a bitvector is actually created.
        self.created_bitvector: BitvectorDef | None = None

    @property
    def output_aliases(self) -> frozenset[str]:
        return self._aliases

    def children(self) -> tuple[PlanNode, ...]:
        return (self.build, self.probe)

    @property
    def label(self) -> str:
        keys = ", ".join(
            f"{ba}.{bc}={pa}.{pc}"
            for (ba, bc), (pa, pc) in zip(self.build_keys, self.probe_keys)
        )
        return f"HashJoin[{keys}]"


class FilterNode(PlanNode):
    """Residual bitvector application site (Algorithm 1 lines 24-29).

    Created when a bitvector's probe columns span both children of a
    join below, so the filter cannot descend further.
    """

    def __init__(self, child: PlanNode) -> None:
        super().__init__()
        self.child = child

    @property
    def output_aliases(self) -> frozenset[str]:
        return self.child.output_aliases

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def label(self) -> str:
        filters = ", ".join(repr(f) for f in self.applied_bitvectors)
        return f"Filter[{filters}]"


class AggregateNode(PlanNode):
    """Final aggregation over the join result.

    ``having`` is an optional post-grouping predicate over the
    aggregate-output domain (:data:`repro.query.spec.OUTPUT_ALIAS`
    column references).
    """

    def __init__(
        self,
        child: PlanNode,
        aggregates: tuple[Aggregate, ...],
        group_by: tuple[ColumnRef, ...] = (),
        having: Expression | None = None,
    ) -> None:
        super().__init__()
        self.child = child
        self.aggregates = aggregates
        self.group_by = group_by
        self.having = having

    @property
    def output_aliases(self) -> frozenset[str]:
        return self.child.output_aliases

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def label(self) -> str:
        items = ", ".join(str(a) for a in self.aggregates)
        if self.group_by:
            items += " GROUP BY " + ", ".join(str(g) for g in self.group_by)
        if self.having is not None:
            items += f" HAVING {self.having}"
        return f"Aggregate[{items}]"


class TopKNode(PlanNode):
    """Top-k / projection operator at the plan root.

    Sorts its input by ``order_by`` and keeps the first ``limit`` rows
    (all rows when ``limit`` is ``None``).  ``columns`` lists the
    projection output columns for pure projection queries.
    """

    def __init__(
        self,
        child: PlanNode,
        order_by: tuple[OrderKey, ...] = (),
        limit: int | None = None,
        columns: tuple[ColumnRef, ...] = (),
    ) -> None:
        super().__init__()
        if limit is not None and limit < 0:
            raise PlanError("top-k limit must be non-negative")
        self.child = child
        self.order_by = order_by
        self.limit = limit
        self.columns = columns

    @property
    def output_aliases(self) -> frozenset[str]:
        return self.child.output_aliases

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def label(self) -> str:
        parts = []
        if self.order_by:
            parts.append(", ".join(str(key) for key in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return f"TopK[{'; '.join(parts)}]" if parts else "TopK[]"
