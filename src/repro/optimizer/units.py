"""Unit graph: the working representation for Algorithms 2 and 3.

Algorithm 3 repeatedly extracts a snowflake subgraph, optimizes it, and
*collapses it into a single new relation* in the join graph.  A
:class:`Unit` is either a base relation (one alias, scan leaf) or such a
collapsed composite (several aliases, an already-constructed subplan).
The :class:`UnitGraph` exposes the topology questions both algorithms
ask — adjacency, key-join direction, fact detection, branch components
— lifted from aliases to units.

A composite keeps a ``key_member``: the alias of the fact table of the
snowflake it came from.  Joins landing on that member's key columns are
still key joins into the composite, because a PKFK snowflake join
preserves the fact table's multiplicity (at most one dimension row per
fact row).
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.errors import OptimizerError
from repro.plan.nodes import PlanNode
from repro.plan.builder import scan_for
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator


@dataclasses.dataclass
class Unit:
    """One node of the unit graph."""

    unit_id: str
    members: frozenset[str]
    rows: float
    key_member: str | None
    plan: PlanNode  # a base unit's scan, or a composite's subplan
    optimized: bool = False


class UnitGraph:
    """Join graph lifted to units (base relations + collapsed subplans)."""

    def __init__(self, graph: JoinGraph, estimator: CardinalityEstimator) -> None:
        self.graph = graph
        self.estimator = estimator
        self._units: dict[str, Unit] = {}
        for alias in graph.aliases:
            rows = estimator.base_cardinality(
                alias, graph.spec.local_predicate(alias)
            )
            self._units[alias] = Unit(
                unit_id=alias,
                members=frozenset({alias}),
                rows=rows,
                key_member=alias,
                plan=scan_for(graph.spec, alias),
            )
        self._rebuild_adjacency()

    # ------------------------------------------------------------------
    # Unit access
    # ------------------------------------------------------------------

    @property
    def unit_ids(self) -> list[str]:
        return sorted(self._units)

    def unit(self, unit_id: str) -> Unit:
        try:
            return self._units[unit_id]
        except KeyError:
            raise OptimizerError(f"unknown unit {unit_id!r}") from None

    def __len__(self) -> int:
        return len(self._units)

    def unit_plan(self, unit_id: str) -> PlanNode:
        """The subplan a unit contributes as a join leaf.

        Shared by every candidate that uses the unit: plan search only
        reads plans, and push-down runs once, on the final plan.
        """
        return self.unit(unit_id).plan

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def neighbors(
        self, unit_id: str, within: set[str] | None = None
    ) -> frozenset[str]:
        try:
            adjacent = self._adjacency[unit_id]
        except KeyError:
            raise OptimizerError(f"unknown unit {unit_id!r}") from None
        return adjacent if within is None else adjacent & within

    def _rebuild_adjacency(self) -> None:
        """Unit-level adjacency; units only change in :meth:`collapse`."""
        owner = {
            alias: unit_id
            for unit_id, unit in self._units.items()
            for alias in unit.members
        }
        self._adjacency: dict[str, frozenset[str]] = {
            unit_id: frozenset(
                owner[neighbor]
                for alias in unit.members
                for neighbor in self.graph.neighbors(alias)
            ) - {unit_id}
            for unit_id, unit in self._units.items()
        }

    def join_column_pairs(
        self, from_id: str, to_id: str
    ) -> list[tuple[tuple[str, str], tuple[str, str]]]:
        """All join column pairs ((from_alias, col), (to_alias, col))."""
        from_unit = self.unit(from_id)
        to_unit = self.unit(to_id)
        pairs: list[tuple[tuple[str, str], tuple[str, str]]] = []
        for alias in sorted(from_unit.members):
            for neighbor in sorted(self.graph.neighbors(alias)):
                if neighbor not in to_unit.members:
                    continue
                edge = self.graph.edge_between(alias, neighbor)
                assert edge is not None
                for from_col, to_col in zip(
                    edge.columns_of(alias), edge.columns_of(neighbor)
                ):
                    pairs.append(((alias, from_col), (neighbor, to_col)))
        return pairs

    def is_key_join_into(self, from_id: str, to_id: str) -> bool:
        """Do the joins from ``from_id`` land on ``to_id``'s key?

        For base units this is the catalog's key test; for composites
        the columns must all belong to the composite's ``key_member``
        and cover that member's unique key.
        """
        to_unit = self.unit(to_id)
        if to_unit.key_member is None:
            return False
        pairs = self.join_column_pairs(from_id, to_id)
        if not pairs:
            return False
        target_columns = []
        for _, (to_alias, to_col) in pairs:
            if to_alias != to_unit.key_member:
                return False
            target_columns.append(to_col)
        table = self.graph.table_of(to_unit.key_member)
        return self.graph.catalog.is_key_join(table, tuple(target_columns))

    def is_fact_unit(self, unit_id: str, within: set[str] | None = None) -> bool:
        """Section 6.2: no neighbor joins this unit on its key."""
        for neighbor in self.neighbors(unit_id, within):
            if self.is_key_join_into(neighbor, unit_id):
                return False
        return True

    def connected_components(self, subset: set[str]) -> list[set[str]]:
        remaining = set(subset)
        components: list[set[str]] = []
        while remaining:
            start = min(remaining)
            component = {start}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                for neighbor in self.neighbors(current, remaining):
                    if neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            remaining -= component
            components.append(component)
        return components

    # ------------------------------------------------------------------
    # Snowflake expansion (Algorithm 3's ExpandSnowflake)
    # ------------------------------------------------------------------

    def expand_snowflake(self, fact_id: str, within: set[str] | None = None) -> set[str]:
        """Fact unit plus every unit reachable through key joins *into*
        the next unit (dimensions, dimensions of dimensions, ...)."""
        scope = set(self.unit_ids) if within is None else set(within)
        included = {fact_id}
        frontier = deque([fact_id])
        while frontier:
            current = frontier.popleft()
            for neighbor in self.neighbors(current, scope):
                if neighbor in included:
                    continue
                if self.is_key_join_into(current, neighbor):
                    included.add(neighbor)
                    frontier.append(neighbor)
        return included

    # ------------------------------------------------------------------
    # Collapse (Algorithm 3's UpdateJoinGraph)
    # ------------------------------------------------------------------

    def collapse(
        self,
        unit_ids: set[str],
        plan: PlanNode,
        rows: float,
        fact_id: str,
    ) -> str:
        """Replace ``unit_ids`` with one optimized composite unit."""
        if fact_id not in unit_ids:
            raise OptimizerError("fact must be part of the collapsed set")
        members: set[str] = set()
        for unit_id in unit_ids:
            members |= self.unit(unit_id).members
        key_member = self.unit(fact_id).key_member
        for unit_id in unit_ids:
            del self._units[unit_id]
        composite = Unit(
            unit_id=fact_id,
            members=frozenset(members),
            rows=rows,
            key_member=key_member,
            optimized=True,
            plan=plan,
        )
        self._units[fact_id] = composite
        self._rebuild_adjacency()
        return fact_id
