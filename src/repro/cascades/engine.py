"""The Cascades-lite search engine and the BQO integration modes.

Exploration seeds the memo with one cross-product-free left-deep tree
and applies the rule set to fixpoint; for a connected graph this
materializes every connected subset as a group with all its valid
partitions — the classic Volcano/Cascades search space.

Extraction then depends on the integration mode (paper Section 6.4):

``blind``
    Bitvector-unaware recursive best-cost over the memo (substructure
    optimality holds, so it is plain DP).  This is the baseline host
    optimizer.
``full``
    Bitvector-aware costing.  Because filter placement breaks
    substructure optimality, complete plans must be costed as wholes;
    extraction enumerates plans from the memo (capped) and scores each
    with bitvector-aware ``Cout`` under Algorithm 1's filter placement
    (one read-only pass; the plans share subplans).  The cap is the
    honest price of full integration — exactly the blow-up the paper's
    analysis avoids.
``alternative``
    The blind winner and the BQO rule's plan are both scored
    bitvector-aware; the cheaper is returned.
``shallow``
    The BQO rule fires on the root group and its plan is pinned (join
    reordering disabled on it) — the paper's deployed configuration.
"""

from __future__ import annotations

from repro.cascades.memo import LogicalGet, Memo
from repro.cascades.rules import DEFAULT_RULES, Rule
from repro.cost.physical import estimated_cpu
from repro.errors import OptimizerError
from repro.optimizer.blindcard import BlindCardModel
from repro.optimizer.multifact import optimize_join_graph
from repro.plan.builder import join_nodes, scan_for
from repro.plan.nodes import PlanNode
from repro.query.joingraph import JoinGraph
from repro.query.spec import QuerySpec
from repro.stats.estimator import CardinalityEstimator
from repro.storage.database import Database

INTEGRATION_MODES = ("blind", "full", "alternative", "shallow")


class CascadesOptimizer:
    """Memo-based optimizer with pluggable BQO integration."""

    def __init__(
        self,
        database: Database,
        rules: tuple[Rule, ...] = DEFAULT_RULES,
        max_extracted_plans: int = 4000,
    ) -> None:
        self._database = database
        self._rules = rules
        self._max_extracted_plans = max_extracted_plans

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def optimize(self, spec: QuerySpec, mode: str = "shallow") -> PlanNode:
        """Return a physical plan (no push-down applied yet)."""
        if mode not in INTEGRATION_MODES:
            raise OptimizerError(
                f"unknown integration mode {mode!r}; "
                f"expected one of {INTEGRATION_MODES}"
            )
        spec.validate_against(self._database)
        graph = JoinGraph(spec, self._database.catalog)
        estimator = CardinalityEstimator(self._database, spec.alias_tables)

        if mode == "shallow":
            # The BQO rule fires on the snowflake (sub)graph and its
            # result is pinned: no further reordering.
            return optimize_join_graph(graph, estimator)

        memo = Memo()
        root = memo.seed_left_deep(_connected_order(graph))
        self._explore(memo, graph)

        if mode == "blind":
            plan, _ = self._best_blind(memo, root, graph, estimator)
            return plan
        if mode == "alternative":
            blind_plan, _ = self._best_blind(memo, root, graph, estimator)
            bqo_plan = optimize_join_graph(graph, estimator)
            scored = [
                (self._aware_cost(plan, estimator), index, plan)
                for index, plan in enumerate((blind_plan, bqo_plan))
            ]
            return min(scored)[2]
        # mode == "full"
        return self._best_full(memo, root, graph, estimator)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------

    def _explore(self, memo: Memo, graph: JoinGraph) -> None:
        changed = True
        while changed:
            changed = False
            for group in memo.groups:
                for expression in list(group.expressions):
                    for rule in self._rules:
                        for produced in rule.apply(expression, memo, graph):
                            if memo.insert_expression(produced):
                                changed = True

    # ------------------------------------------------------------------
    # Blind (DP) extraction
    # ------------------------------------------------------------------

    def _best_blind(
        self,
        memo: Memo,
        root: frozenset[str],
        graph: JoinGraph,
        estimator: CardinalityEstimator,
    ) -> tuple[PlanNode, float]:
        model = BlindCardModel(graph, estimator)
        cache: dict[frozenset[str], tuple[PlanNode, float]] = {}

        def best(relations: frozenset[str]) -> tuple[PlanNode, float]:
            cached = cache.get(relations)
            if cached is not None:
                return cached
            group = memo.group(relations)
            best_entry: tuple[PlanNode, float] | None = None
            for expression in group.expressions:
                if isinstance(expression, LogicalGet):
                    plan: PlanNode = scan_for(graph.spec, expression.alias)
                    cost = model.base_rows(expression.alias)
                else:
                    left_plan, left_cost = best(expression.left)
                    right_plan, right_cost = best(expression.right)
                    rows = model.subset_rows(relations)
                    cost = left_cost + right_cost + rows
                    build, probe = left_plan, right_plan
                    if model.subset_rows(expression.left) > model.subset_rows(
                        expression.right
                    ):
                        build, probe = right_plan, left_plan
                    plan = join_nodes(graph, build=build, probe=probe)
                if best_entry is None or cost < best_entry[1]:
                    best_entry = (plan, cost)
            if best_entry is None:
                raise OptimizerError(
                    f"no expression for group {sorted(relations)}"
                )
            cache[relations] = best_entry
            return best_entry

        return best(root)

    # ------------------------------------------------------------------
    # Full bitvector-aware extraction
    # ------------------------------------------------------------------

    def _best_full(
        self,
        memo: Memo,
        root: frozenset[str],
        graph: JoinGraph,
        estimator: CardinalityEstimator,
    ) -> PlanNode:
        plans = self._enumerate_plans(memo, root, graph)
        best_plan: PlanNode | None = None
        best_cost = float("inf")
        for plan in plans:
            cost = self._aware_cost(plan, estimator)
            if cost < best_cost:
                best_cost = cost
                best_plan = plan
        if best_plan is None:
            raise OptimizerError("no complete plan could be extracted")
        return best_plan

    def _enumerate_plans(
        self, memo: Memo, root: frozenset[str], graph: JoinGraph
    ) -> list[PlanNode]:
        budget = self._max_extracted_plans
        cache: dict[frozenset[str], list[PlanNode]] = {}

        def plans_of(relations: frozenset[str]) -> list[PlanNode]:
            cached = cache.get(relations)
            if cached is not None:
                return cached
            group = memo.group(relations)
            out: list[PlanNode] = []
            for expression in group.expressions:
                if isinstance(expression, LogicalGet):
                    out.append(scan_for(graph.spec, expression.alias))
                    continue
                for left in plans_of(expression.left):
                    for right in plans_of(expression.right):
                        if len(out) >= budget:
                            break
                        out.append(join_nodes(graph, build=left, probe=right))
                    if len(out) >= budget:
                        break
                if len(out) >= budget:
                    break
            cache[relations] = out
            return out

        return plans_of(root)

    # ------------------------------------------------------------------
    # Shared scoring
    # ------------------------------------------------------------------

    @staticmethod
    def _aware_cost(plan: PlanNode, estimator: CardinalityEstimator) -> float:
        return estimated_cpu(plan, estimator).cout


def _connected_order(graph: JoinGraph) -> list[str]:
    """A cross-product-free seeding order (BFS from the first alias)."""
    if not graph.aliases:
        raise OptimizerError("query has no relations")
    start = graph.aliases[0]
    order = [start]
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for alias in frontier:
            for neighbor in sorted(graph.neighbors(alias)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if len(order) != len(graph.aliases):
        raise OptimizerError("join graph is disconnected (cross product)")
    return order
