"""Join graph over relation aliases, with the classifications the
paper's algorithms depend on.

Key vocabulary (paper Table 1 / Definitions 1-4 / Section 6.2):

* **key join** ``A -> B``: the join columns form a unique key of B.
* **PKFK join**: a key join backed by a declared foreign key.
* **fact table** (Section 6.2): a relation that does *not* join any
  other relation on its own key columns — nothing "hangs off" it as a
  dimension.
* **star query** (Definition 1): one fact table R0 with ``R0 -> Rk``
  for every dimension Rk, and no dimension-dimension edges.
* **branch** (Definition 4): a chain ``R0 -> R1 -> ... -> Rn`` hanging
  off the fact table.
* **snowflake query** (Definition 2): fact table plus disjoint chains.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.errors import QueryError
from repro.query.spec import JoinPredicate, QuerySpec
from repro.storage.catalog import Catalog


@dataclasses.dataclass(frozen=True)
class JoinEdge:
    """Merged equi-join edge between two aliases.

    All join column pairs between the two relations are merged into one
    edge (a composite key join), matching how a hash join would evaluate
    them together.
    """

    left_alias: str
    left_columns: tuple[str, ...]
    right_alias: str
    right_columns: tuple[str, ...]

    def other(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.right_alias
        if alias == self.right_alias:
            return self.left_alias
        raise QueryError(f"edge does not touch alias {alias!r}")

    def columns_of(self, alias: str) -> tuple[str, ...]:
        if alias == self.left_alias:
            return self.left_columns
        if alias == self.right_alias:
            return self.right_columns
        raise QueryError(f"edge does not touch alias {alias!r}")

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def key(self) -> tuple[str, str]:
        """Canonical unordered pair key."""
        return tuple(sorted((self.left_alias, self.right_alias)))  # type: ignore[return-value]

    def __str__(self) -> str:
        return " AND ".join(
            f"{self.left_alias}.{lc} = {self.right_alias}.{rc}"
            for lc, rc in zip(self.left_columns, self.right_columns)
        )


class JoinGraph:
    """Undirected join graph with key-join annotations."""

    def __init__(self, spec: QuerySpec, catalog: Catalog) -> None:
        self.spec = spec
        self.catalog = catalog
        self.aliases: tuple[str, ...] = spec.aliases
        self._alias_tables = spec.alias_tables
        self._edges: dict[tuple[str, str], JoinEdge] = {}
        for predicate in spec.join_predicates:
            self._merge_predicate(predicate)
        adjacency: dict[str, set[str]] = {alias: set() for alias in self.aliases}
        for left, right in self._edges:
            adjacency[left].add(right)
            adjacency[right].add(left)
        self._adjacency: dict[str, frozenset[str]] = {
            alias: frozenset(found) for alias, found in adjacency.items()
        }

    def _merge_predicate(self, predicate: JoinPredicate) -> None:
        pair = tuple(sorted((predicate.left_alias, predicate.right_alias)))
        if predicate.left_alias != pair[0]:
            predicate = predicate.reversed()
        existing = self._edges.get(pair)  # type: ignore[arg-type]
        if existing is None:
            edge = JoinEdge(
                predicate.left_alias,
                predicate.left_columns,
                predicate.right_alias,
                predicate.right_columns,
            )
        else:
            edge = JoinEdge(
                existing.left_alias,
                existing.left_columns + predicate.left_columns,
                existing.right_alias,
                existing.right_columns + predicate.right_columns,
            )
        self._edges[pair] = edge  # type: ignore[index]

    # ------------------------------------------------------------------
    # Basic topology
    # ------------------------------------------------------------------

    def table_of(self, alias: str) -> str:
        return self._alias_tables[alias]

    def neighbors(self, alias: str) -> frozenset[str]:
        return self._adjacency[alias]

    def edge_between(self, a: str, b: str) -> JoinEdge | None:
        return self._edges.get(tuple(sorted((a, b))))  # type: ignore[arg-type]

    @property
    def edges(self) -> list[JoinEdge]:
        return list(self._edges.values())

    def edges_between(self, left_group: set[str], alias: str) -> list[JoinEdge]:
        """All edges between ``alias`` and any member of ``left_group``."""
        found = []
        for other in sorted(self._adjacency[alias]):
            if other in left_group:
                found.append(self.edge_between(other, alias))
        return [edge for edge in found if edge is not None]

    def is_connected(self, subset: tuple[str, ...] | None = None) -> bool:
        nodes = list(subset) if subset is not None else list(self.aliases)
        if not nodes:
            return True
        node_set = set(nodes)
        seen = {nodes[0]}
        frontier = deque([nodes[0]])
        while frontier:
            current = frontier.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor in node_set and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(node_set)

    def connected_components(self, nodes: set[str]) -> list[set[str]]:
        """Connected components of the induced subgraph on ``nodes``."""
        remaining = set(nodes)
        components: list[set[str]] = []
        while remaining:
            start = min(remaining)  # deterministic order
            component = {start}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                for neighbor in self._adjacency[current]:
                    if neighbor in remaining and neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            remaining -= component
            components.append(component)
        return components

    # ------------------------------------------------------------------
    # Key-join / PKFK classification
    # ------------------------------------------------------------------

    def is_key_join_into(self, edge: JoinEdge, target_alias: str) -> bool:
        """True when ``edge``'s columns form a unique key of ``target_alias``
        — the paper's ``other -> target`` relationship."""
        table = self.table_of(target_alias)
        return self.catalog.is_key_join(table, edge.columns_of(target_alias))

    def is_pkfk_edge(self, edge: JoinEdge) -> bool:
        """True when the edge is a key join in at least one direction."""
        return self.is_key_join_into(edge, edge.left_alias) or self.is_key_join_into(
            edge, edge.right_alias
        )

    # ------------------------------------------------------------------
    # Fact / dimension detection (Section 6.2)
    # ------------------------------------------------------------------

    def is_fact_table(self, alias: str) -> bool:
        """Section 6.2: a relation is a fact table if no join predicate
        is an equi-join on its own key columns."""
        for neighbor in self._adjacency[alias]:
            edge = self.edge_between(alias, neighbor)
            if edge is not None and self.is_key_join_into(edge, alias):
                return False
        return True

    def fact_tables(self) -> list[str]:
        """All fact tables, in alias order."""
        return [alias for alias in self.aliases if self.is_fact_table(alias)]

    # ------------------------------------------------------------------
    # Star / snowflake shape tests (Definitions 1 and 2)
    # ------------------------------------------------------------------

    def is_star(self, fact: str) -> bool:
        """Definition 1: every other relation is a dimension key-joined
        directly (and only) to ``fact``."""
        for alias in self.aliases:
            if alias == fact:
                continue
            if self._adjacency[alias] != {fact}:
                return False
            edge = self.edge_between(alias, fact)
            if edge is None or not self.is_key_join_into(edge, alias):
                return False
        return True

    def is_snowflake(self, fact: str) -> bool:
        """Definition 2: disjoint chains of key joins hanging off ``fact``."""
        for chain in self.branch_components(fact):
            if not self._is_chain_branch(fact, chain):
                return False
        return self.is_connected()

    def branch_components(self, fact: str) -> list[set[str]]:
        """Connected components of the graph with ``fact`` removed.

        For a pure snowflake each component is one branch; for general
        decision-support graphs a component may bundle several connected
        branches (Algorithm 2's group P2).
        """
        others = set(self.aliases) - {fact}
        return self.connected_components(others)

    def branch_roots(self, fact: str, component: set[str]) -> list[str]:
        """Members of ``component`` directly joined to the fact table."""
        return sorted(
            alias for alias in component if fact in self._adjacency[alias]
        )

    def _is_chain_branch(self, fact: str, component: set[str]) -> bool:
        """Is ``component`` a chain R1 -> R2 -> ... hanging off ``fact``
        with each hop a key join away from the fact?"""
        roots = self.branch_roots(fact, component)
        if len(roots) != 1:
            return False
        previous = fact
        current = roots[0]
        seen = {current}
        while True:
            edge = self.edge_between(previous, current)
            if edge is None or not self.is_key_join_into(edge, current):
                return False
            next_nodes = [
                n for n in self._adjacency[current]
                if n in component and n not in seen
            ]
            if not next_nodes:
                return len(seen) == len(component)
            if len(next_nodes) > 1:
                return False
            previous, current = current, next_nodes[0]
            seen.add(current)

    def chain_order(self, fact: str, component: set[str]) -> list[str]:
        """Return the chain ordered from the fact outward.

        Only valid when ``_is_chain_branch`` holds.
        """
        roots = self.branch_roots(fact, component)
        if len(roots) != 1:
            raise QueryError("component is not a chain branch")
        order = [roots[0]]
        seen = set(order)
        while True:
            tail = order[-1]
            next_nodes = [
                n for n in self._adjacency[tail] if n in component and n not in seen
            ]
            if not next_nodes:
                return order
            if len(next_nodes) > 1:
                raise QueryError("component is not a chain branch")
            order.append(next_nodes[0])
            seen.add(next_nodes[0])

    # ------------------------------------------------------------------
    # Subgraph extraction (for Algorithm 3)
    # ------------------------------------------------------------------

    def induced_spec(self, aliases: set[str], name: str) -> QuerySpec:
        """Query spec for the induced subgraph on ``aliases``."""
        relations = tuple(r for r in self.spec.relations if r.alias in aliases)
        joins = tuple(
            join
            for join in self.spec.join_predicates
            if join.left_alias in aliases and join.right_alias in aliases
        )
        locals_ = {
            alias: predicate
            for alias, predicate in self.spec.local_predicates.items()
            if alias in aliases
        }
        return QuerySpec(
            name=name,
            relations=relations,
            join_predicates=joins,
            local_predicates=locals_,
        )
