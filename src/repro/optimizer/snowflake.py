"""Algorithm 2: join-order construction for a single-fact snowflake.

Branches (connected components of the graph minus the fact table) are
assigned priorities following Section 6.1:

* **P3** (joined earliest): branches larger than the fact table — they
  should be probed, not built, and joining them early lets the fact
  table's bitvector prune them.
* **P2**: sets of branches that join each other — kept consecutive so
  their mutual bitvector filters can push down; bigger sets first.
* **P1**: ordinary dimension branches smaller than the fact table.
* **P0** (joined last): branches whose join with the fact is not a key
  join (e.g. other collapsed fact tables) — their filters cannot
  semi-join-reduce the fact, so they go on top.

Within a priority group, branches go most-fact-reducing first ("by
descending selectivity on the fact table").

Two candidate families are then costed with bitvector-aware estimated
``Cout`` (paper Section 5's linear candidate result): the fact-first
plan, and for each single-root branch, one plan per starting relation
in which that branch leads (Theorem 5.3 orders).  The cheapest wins.
A candidate is a join order — a bottom unit and one
:class:`~repro.cost.physical.JoinStep` per spine join, saying which unit
joins and which side builds — and is priced by
:class:`~repro.cost.physical.OrderPricer` without building a plan node.
Step constants (keys, filter routing, distinct counts) are made once per
search; only the winning order is turned into a tree.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

from repro.cost.cout import key_ndvs
from repro.cost.physical import JoinStep, OrderPricer
from repro.errors import OptimizerError
from repro.optimizer.candidates import leading_order
from repro.optimizer.units import UnitGraph
from repro.plan.builder import join_keys, join_nodes
from repro.plan.nodes import PlanNode
from repro.query.joingraph import JoinGraph

#: A candidate: the bottom unit of the spine and the joins above it.
Order = tuple[str, list[JoinStep]]


@dataclasses.dataclass
class SearchStats:
    """What one plan search did; reported on the ``optimize`` span."""

    candidates: int = 0   # join orders priced (one tree is built per round)
    snowflakes: int = 0   # Algorithm 3 extraction rounds


@dataclasses.dataclass
class _Branch:
    """One branch: a root unit adjacent to the fact plus its subtree."""

    root: str
    units: list[str]          # root-first, prefix-connected order
    survival: float           # est. fraction of fact rows surviving
    group_size: int           # #branches in its connected component
    reduces: bool             # a key-join branch whose filter pays (builds)
    priority: float = 0.0

    @property
    def unit_set(self) -> set[str]:
        return set(self.units)


def optimize_snowflake(
    ugraph: UnitGraph,
    fact_id: str,
    scope: set[str] | None = None,
    bitvector_aware: bool = True,
    context=None,
    search: SearchStats | None = None,
) -> PlanNode:
    """Construct the join order for a single-fact (general) snowflake.

    ``scope`` restricts the optimization to a subset of units
    (Algorithm 3 passes extracted subgraphs); default is every unit.
    Returns a plan *without* bitvector push-down applied — the caller
    runs filter selection and push-down on the final assembled plan.

    With ``bitvector_aware=False`` the same plan space is searched with
    a *blind* cost model and raw-cardinality build/probe decisions —
    this reproduces the paper's baseline: the host optimizer's
    snowflake heuristics, which "neglect the impact of bitvector
    filters" (Section 7.2).

    ``search``, when given, is told how many candidates were costed.
    """
    scope = set(ugraph.unit_ids) if scope is None else set(scope)
    if fact_id not in scope:
        raise OptimizerError(f"fact {fact_id!r} not in scope")
    if len(scope) == 1:
        return ugraph.unit_plan(fact_id)

    branches = _sorted_branches(ugraph, fact_id, scope)
    if bitvector_aware:
        spine_rows = _reduced_spine_estimate(ugraph, fact_id, branches)
    else:
        # A blind optimizer sees the raw (predicate-filtered) fact size.
        spine_rows = ugraph.unit(fact_id).rows
    steps = _Steps(ugraph)
    candidates = _candidates(
        ugraph, steps, fact_id, scope, branches, spine_rows, context
    )
    return _cheapest(candidates, ugraph, bitvector_aware, search)


def _candidates(
    ugraph: UnitGraph,
    steps: _Steps,
    fact_id: str,
    scope: set[str],
    branches: list[_Branch],
    spine_rows: float,
    context,
) -> Iterator[Order]:
    """The fact-first order, then one order per (single-root branch,
    starting unit) — made lazily, one at a time."""
    stacked = _join_branches(ugraph, steps, {fact_id}, branches, spine_rows)
    yield fact_id, [step for branch_steps in stacked for step in branch_steps]
    dimensions = scope - {fact_id}
    for index, branch in enumerate(branches):
        if branch.group_size != 1:
            continue  # interconnected branches cannot cleanly lead
        # A leading branch is a whole component: no other branch's unit
        # neighbours it, so the others keep their fact-first steps.
        rest = [
            step for branch_steps in stacked[:index] + stacked[index + 1:]
            for step in branch_steps
        ]
        for start in branch.units:
            if context is not None:
                # Candidate enumeration is the optimizer's only
                # superlinear loop; checking per candidate keeps plan
                # search abortable under a deadline.
                context.check()
            order = leading_order(
                branch.unit_set,
                start,
                roots=[branch.root],
                neighbors=lambda uid: ugraph.neighbors(uid, dimensions),
            )
            placed = {order[0]}
            prefix = []
            for unit_id in order[1:] + [fact_id]:
                prefix.append(steps.step(unit_id, placed, unit_builds=True))
                placed.add(unit_id)
            yield order[0], prefix + rest


# ----------------------------------------------------------------------
# Branch discovery, classification, ordering (SortBranches)
# ----------------------------------------------------------------------


def _sorted_branches(
    ugraph: UnitGraph, fact_id: str, scope: set[str]
) -> list[_Branch]:
    others = scope - {fact_id}
    fact_rows = ugraph.unit(fact_id).rows
    total_units = len(scope)

    groups: list[list[_Branch]] = []
    for component in ugraph.connected_components(others):
        roots = sorted(
            uid for uid in component if fact_id in ugraph.neighbors(uid, scope)
        )
        if not roots:
            raise OptimizerError(
                f"units {sorted(component)} do not join the fact table "
                "(cross product)"
            )
        members = _assign_members(ugraph, component, roots)
        group = []
        for root in roots:
            units = _bfs_order(ugraph, members[root], root)
            survival = _branch_survival(ugraph, fact_id, root, members[root])
            group.append(
                _Branch(
                    root=root,
                    units=units,
                    survival=survival,
                    group_size=len(roots),
                    reduces=survival < _REDUCER_SURVIVAL
                    and ugraph.is_key_join_into(fact_id, root),
                )
            )
        groups.append(group)

    # Priorities (Algorithm 2, SortBranches lines 20-27).
    for group in groups:
        for branch in group:
            if branch.group_size > 1:
                branch.priority = float(branch.group_size)          # P2
            elif not ugraph.is_key_join_into(fact_id, branch.root):
                branch.priority = 0.0                               # P0
            elif ugraph.unit(branch.root).rows < fact_rows:
                branch.priority = 1.0                               # P1
            else:
                branch.priority = float(total_units + 1)            # P3

    # Sort groups by (priority desc, most-reducing first); flatten with
    # branches inside a group ordered most-reducing first.
    def group_key(group: list[_Branch]) -> tuple:
        best_priority = max(branch.priority for branch in group)
        best_survival = min(branch.survival for branch in group)
        return (-best_priority, best_survival, group[0].root)

    ordered: list[_Branch] = []
    for group in sorted(groups, key=group_key):
        ordered.extend(
            sorted(group, key=lambda b: (b.survival, b.root))
        )
    return ordered


def _assign_members(
    ugraph: UnitGraph, component: set[str], roots: list[str]
) -> dict[str, set[str]]:
    """Partition a (possibly multi-root) component among its roots via
    simultaneous BFS; ties go to the lexicographically first root."""
    owner: dict[str, str] = {root: root for root in roots}
    frontier = list(roots)
    while frontier:
        next_frontier: list[str] = []
        for node in sorted(frontier):
            for neighbor in sorted(ugraph.neighbors(node, component)):
                if neighbor not in owner:
                    owner[neighbor] = owner[node]
                    next_frontier.append(neighbor)
        frontier = next_frontier
    members: dict[str, set[str]] = {root: set() for root in roots}
    for node, root in owner.items():
        members[root].add(node)
    return members


def _bfs_order(ugraph: UnitGraph, members: set[str], root: str) -> list[str]:
    """Prefix-connected order of a branch, root first."""
    order = [root]
    seen = {root}
    frontier = [root]
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            for neighbor in sorted(ugraph.neighbors(node, members)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if len(order) != len(members):
        # _assign_members hands a unit to a root only through a neighbour
        # that root already owns, so this means the partition is broken.
        raise OptimizerError(
            f"units {sorted(members - seen)} of branch {root!r} are not "
            "connected to it"
        )
    return order


def _branch_survival(
    ugraph: UnitGraph, fact_id: str, root: str, members: set[str]
) -> float:
    """Estimated fraction of fact rows surviving this branch's filters.

    The branch is reduced bottom-up: each unit keeps the fraction of
    its rows implied by its own predicates and its children's key
    containment, then the root's remaining distinct keys bound the fact
    survival ("selectivity on the fact table").
    """
    def effective_rows(unit_id: str, parent: str | None) -> float:
        unit = ugraph.unit(unit_id)
        rows = unit.rows
        for child in sorted(ugraph.neighbors(unit_id, members)):
            if child == parent:
                continue
            child_rows = effective_rows(child, unit_id)
            rows *= _containment(ugraph, unit_id, child, child_rows)
        return max(1.0, rows)

    root_rows = effective_rows(root, None)
    return _containment(ugraph, fact_id, root, root_rows)


def _containment(
    ugraph: UnitGraph, probe_id: str, build_id: str, build_rows: float
) -> float:
    """Survival fraction of ``probe`` rows against ``build``'s keys."""
    estimator = ugraph.estimator
    survival = 1.0
    for (probe_alias, probe_col), (build_alias, build_col) in ugraph.join_column_pairs(
        probe_id, build_id
    ):
        ndv_build = min(
            estimator.column_distinct(build_alias, build_col), max(build_rows, 1.0)
        )
        ndv_probe = estimator.column_distinct(probe_alias, probe_col)
        survival *= min(1.0, ndv_build / max(ndv_probe, 1.0))
    return max(1e-9, survival)


# ----------------------------------------------------------------------
# Plan assembly (JoinBranches)
# ----------------------------------------------------------------------


_REDUCER_SURVIVAL = 0.5


def _reduced_spine_estimate(
    ugraph: UnitGraph, fact_id: str, branches: list[_Branch]
) -> float:
    """Estimated fact-spine cardinality after bitvector reduction.

    With Algorithm 1, every *build-side* key-join branch's filter lands
    on the fact scan, so at execution time the spine carries the
    reduced fact cardinality from the very first join.  Only branches
    that stay builds contribute (a probed branch creates no fact-side
    filter); we count the branches whose estimated semi-join survival
    is below :data:`_REDUCER_SURVIVAL` — those are kept as builds by
    :func:`_join_branches` precisely because their reduction pays for
    the hash table.
    """
    rows = ugraph.unit(fact_id).rows
    for branch in branches:
        if branch.reduces:
            rows *= branch.survival
    return max(1.0, rows)


def _join_branches(
    ugraph: UnitGraph,
    steps: _Steps,
    placed: set[str],
    branches: list[_Branch],
    spine_rows: float,
) -> list[list[JoinStep]]:
    """Algorithm 2's JoinBranches: stack branches onto the spine.

    ``placed`` holds the units already in the spine and gains each unit
    stacked; the result is each branch's steps.

    The build/probe decision is the paper's group-P3 rule ("branches
    larger than the fact table ... reorder the build and probe sides")
    evaluated against the bitvector-reduced spine estimate:

    * branches that meaningfully semi-join-reduce the fact
      (survival < 0.5) always build — their filter shrinks every
      operator above;
    * any other unit larger than the reduced spine is probed instead:
      the spine becomes the build and its bitvector prunes the unit's
      scan, which is how a 600-row unfiltered dimension avoids a full
      hash-table build against a 30-row spine.
    """
    stacked = []
    for branch in branches:
        branch_steps = []
        for unit_id in branch.units:
            spine_builds = (
                not branch.reduces and ugraph.unit(unit_id).rows > spine_rows
            )
            branch_steps.append(steps.step(unit_id, placed, not spine_builds))
            placed.add(unit_id)
        stacked.append(branch_steps)
    return stacked


class _Steps:
    """The :class:`JoinStep` of each (unit, its neighbours already in the
    spine, orientation) a search meets, made once per search."""

    def __init__(self, ugraph: UnitGraph) -> None:
        self._ugraph = ugraph
        self._made: dict[tuple[str, frozenset[str], bool], JoinStep] = {}

    def step(self, unit_id: str, placed: set[str], unit_builds: bool) -> JoinStep:
        """The step joining ``unit_id`` onto a spine of ``placed`` units."""
        ugraph = self._ugraph
        neighbors = ugraph.neighbors(unit_id, placed)
        key = (unit_id, neighbors, unit_builds)
        step = self._made.get(key)
        if step is not None:
            return step
        members = ugraph.unit(unit_id).members
        spine = frozenset().union(
            *(ugraph.unit(neighbor).members for neighbor in neighbors)
        )
        if unit_builds:
            # Each neighbour joins the unit through an edge: it holds a probe key.
            build_keys, probe_keys = join_keys(ugraph.graph, members, spine)
            holders = neighbors
        else:
            build_keys, probe_keys = join_keys(ugraph.graph, spine, members)
            holders = frozenset((unit_id,))
        if not build_keys:
            raise OptimizerError(
                f"cross product between unit {unit_id!r} and units "
                f"{sorted(placed)}"
            )
        step = self._made[key] = JoinStep(
            unit_id, ugraph.unit_plan(unit_id), unit_builds,
            frozenset(alias for alias, _ in probe_keys), holders,
            key_ndvs(ugraph.estimator, build_keys, probe_keys),
        )
        return step


# ----------------------------------------------------------------------
# Candidate costing
# ----------------------------------------------------------------------


def _cheapest(
    candidates: Iterable[Order],
    ugraph: UnitGraph,
    bitvector_aware: bool,
    search: SearchStats | None,
) -> PlanNode:
    """Build the join order with the cheapest estimated physical cost.

    Candidates are scored with the physical CPU model rather than raw
    ``Cout`` — matching the paper's implementation, which plugs its
    candidates into the host optimizer's "original cost modeling"
    (Section 7.1).  ``Cout`` ignores hash-table build costs, which is
    exactly what distinguishes the candidate families once bitvector
    filters have equalized their intermediate sizes.

    In blind mode the filters' cardinality effects are ignored during
    scoring (the paper's Figure 2: the blind optimizer prefers P1, the
    aware one P2).  Ties keep the earlier candidate.
    """
    pricer = OrderPricer(ugraph.estimator, bitvector_aware)
    best: Order | None = None
    best_cost = float("inf")
    for bottom, steps in candidates:
        cost = pricer.cpu(ugraph.unit_plan(bottom), steps)
        if search is not None:
            search.candidates += 1
        if cost < best_cost:
            best_cost = cost
            best = bottom, steps
    assert best is not None
    return _realize(ugraph.graph, ugraph.unit_plan(best[0]), best[1])


def _realize(graph: JoinGraph, bottom: PlanNode, steps: Iterable[JoinStep]) -> PlanNode:
    """The tree a join order stands for, built with ``join_nodes``."""
    plan = bottom
    for step in steps:
        if step.unit_builds:
            plan = join_nodes(graph, build=step.plan, probe=plan)
        else:
            plan = join_nodes(graph, build=plan, probe=step.plan)
    return plan
