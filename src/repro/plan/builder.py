"""Plan construction helpers.

``build_right_deep`` turns a join order ``[X0, X1, ..., Xn]`` (the
paper's ``T(X0, X1, ..., Xn)``: X0 the right-most leaf, Xn the left-most)
into a physical tree: X0 is the bottom of the probe spine and each Xk
joins in as the build side of the k-th join.

``join_nodes`` is the general composition primitive — both children can
be arbitrary subplans, which Algorithm 3 uses when it stitches optimized
snowflake subplans together.
"""

from __future__ import annotations

from repro.errors import OptimizerError, PlanError
from repro.plan.nodes import AggregateNode, HashJoinNode, PlanNode, ScanNode, TopKNode
from repro.query.joingraph import JoinGraph
from repro.query.spec import QuerySpec


def scan_for(spec: QuerySpec, alias: str) -> ScanNode:
    """Create the scan leaf for one relation instance of ``spec``."""
    return ScanNode(
        alias=alias,
        table_name=spec.table_of(alias),
        predicate=spec.local_predicate(alias),
    )


def join_keys(
    graph: JoinGraph,
    build_aliases: frozenset[str],
    probe_aliases: frozenset[str],
) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """``(build_keys, probe_keys)`` of a join between two alias sets.

    The equi-join key is the concatenation of all join-column pairs
    between any build-side alias and any probe-side alias (a join such
    as HJ1 in the paper's Figure 1, where the build relation joins two
    probe-side relations, yields a composite key spanning both), in
    (build alias, probe alias) order.  Both are empty for a cross
    product.
    """
    # Connecting alias pairs, found from the adjacency of the smaller
    # side (one side of a spine join is a single unit).
    near, far = sorted((build_aliases, probe_aliases), key=len)
    pairs = [(a, b) for a in near for b in graph.neighbors(a) if b in far]
    if near is not build_aliases:
        pairs = [(build_alias, probe_alias) for probe_alias, build_alias in pairs]
    build_keys: list[tuple[str, str]] = []
    probe_keys: list[tuple[str, str]] = []
    for build_alias, probe_alias in sorted(pairs):
        edge = graph.edge_between(build_alias, probe_alias)
        for build_col, probe_col in zip(
            edge.columns_of(build_alias), edge.columns_of(probe_alias)
        ):
            build_keys.append((build_alias, build_col))
            probe_keys.append((probe_alias, probe_col))
    return tuple(build_keys), tuple(probe_keys)


def join_nodes(
    graph: JoinGraph,
    build: PlanNode,
    probe: PlanNode,
    creates_bitvector: bool = True,
    allow_cross_product: bool = False,
) -> HashJoinNode:
    """Join two subplans on every graph edge connecting them
    (:func:`join_keys`)."""
    build_keys, probe_keys = join_keys(
        graph, build.output_aliases, probe.output_aliases
    )
    if not build_keys:
        if not allow_cross_product:
            raise OptimizerError(
                f"cross product between {sorted(build.output_aliases)} and "
                f"{sorted(probe.output_aliases)}"
            )
        raise PlanError("cross products are not executable by hash join")
    return HashJoinNode(
        build=build,
        probe=probe,
        build_keys=build_keys,
        probe_keys=probe_keys,
    )


def build_right_deep(
    graph: JoinGraph,
    order: list[str],
    leaf_plans: dict[str, PlanNode] | None = None,
) -> PlanNode:
    """Build the right-deep tree ``T(order[0], order[1], ..., order[n])``.

    ``leaf_plans`` optionally substitutes a subplan for an alias (used
    by Algorithm 3 to embed already-optimized snowflakes).  Raises
    :class:`OptimizerError` if any prefix is disconnected (cross
    product), matching the paper's plan space.
    """
    if not order:
        raise OptimizerError("empty join order")
    spec = graph.spec
    leaf_plans = leaf_plans or {}

    def leaf(alias: str) -> PlanNode:
        return leaf_plans.get(alias) or scan_for(spec, alias)

    plan = leaf(order[0])
    for alias in order[1:]:
        plan = join_nodes(graph, build=leaf(alias), probe=plan)
    return plan


def attach_aggregate(plan: PlanNode, spec: QuerySpec) -> PlanNode:
    """Wrap the plan with the query's output operators.

    Aggregation (with HAVING) goes first; a :class:`TopKNode` wraps the
    result whenever the query has ORDER BY / LIMIT or needs projection
    columns materialized.
    """
    if spec.aggregates:
        plan = AggregateNode(
            plan, spec.aggregates, spec.group_by, having=spec.having
        )
    if spec.order_by or spec.limit is not None or spec.select_columns:
        plan = TopKNode(
            plan,
            order_by=spec.order_by,
            limit=spec.limit,
            columns=spec.select_columns,
        )
    return plan
