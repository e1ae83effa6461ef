"""The Section 6.3 cost model: CPU, ``Cout`` and rows of a plan or a join order.

CPU is a weighted sum of per-tuple work: scanning, hash-table build,
probe, output materialization, bitvector creation and checks, and the
final aggregation.  The weights live in
:class:`repro.cost.constants.CostConstants` and are shared with the
executor's metered CPU, so estimated and measured costs are directly
comparable.  ``Cout`` (Section 3.3) sums intermediate result sizes::

    Cout(T) = |T|                            if T is a base table
    Cout(T) = |T| + Cout(T1) + Cout(T2)      if T = T1 join T2

where ``|T|`` already reflects the bitvector filters applied at ``T``:
at a scan, the filters pushed down to it; at a join, its residual
filters.  The final aggregate is not an intermediate result.

Filters stacked at one node are checked in landing order, each on the
rows the ones before it left, as the executor meters them.  Given an
:class:`Absorption`, the bitvector-aware model also prices a PK-FK join
the engine will elide as what it runs: the join's filter, built on the
build rows, and nothing else.  Neither changes rows, so ``Cout`` keeps
the paper's definition.

This module is the model's one implementation.  :func:`estimated_cpu`
prices a plan in one read-only pass, routing filters with push-down's
own step (:func:`repro.plan.pushdown.route_filters`), so a bare plan is
priced as Algorithm 1 would leave it and candidates may share subplans.
Its rows come from one of three sources: estimated bitvector-aware (the
model's formulas, :func:`filter_survival` and :func:`join_rows`),
estimated blind (filters are charged but reduce no rows), or observed
(the per-node rows an execution recorded; :func:`true_cout`).

:class:`OrderPricer` prices the tree a join order *would* build — one
:class:`JoinStep` per spine join over a bottom unit — without building
it, and equals :func:`estimated_cpu` on that tree bit for bit.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import add
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.errors import PlanError
from repro.plan.nodes import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    TopKNode,
)
from repro.plan.pushdown import route_filters
from repro.stats.estimator import CardinalityEstimator
from repro.storage.types import ColumnType

if TYPE_CHECKING:  # the engine imports this package
    from repro.engine.metrics import ExecutionMetrics
    from repro.expr.expressions import Expression
    from repro.query.joingraph import JoinGraph
    from repro.storage.database import Database


class PlanEstimate(NamedTuple):
    """What one pricing pass learns about a plan."""

    rows: float  # root output rows
    cpu: float   # Section 6.3 CPU
    cout: float  # C_out (Section 3.3)
    # Per join: (build rows, probe rows) as the join sees them, i.e.
    # after any residual filter above each child.
    join_rows: dict[HashJoinNode, tuple[float, float]]
    # Per node_id, the node's output rows.  A join's are its rows before
    # its residual filters; a pushed plan's FilterNode holds them after.
    node_rows: dict[int, float]
    # node_id of every join priced as absorbed (see Absorption).
    absorbed: frozenset[int]


class Absorption:
    """Which PK-FK joins the engine will elide, as a plan can tell.

    The executor elides a join whose own exact filter already did its
    work (``_plan_facts`` and ``Executor._hash_join`` in
    ``engine/executor.py``): the filter lands in the probe side, no
    build-side alias is read above the join, and the build keys come out
    distinct with a stored dictionary on each key side.  The model names
    that ahead of execution for a join that
    * builds on one scan, joined on its declared unique key, with no
      float key (a float key is compared by value, never elided);
    * joins every neighbour of that scan's alias (a later join would
      read its keys above) and the output operators read none of its
      columns (``read``, what :func:`repro.plan.builder.output_reads`
      gives);
    * keeps its filter under ``keeps(ndvs, build rows, probe rows)``,
      the selection rule the plan will be finalized with.
    Such a join's filter lands in its probe side by Algorithm 1's
    routing.  The pricing assumes exact filters, the default kind; a
    Bloom kind executes the join and answers the same.
    """

    __slots__ = ("graph", "read", "keeps", "_scan_joins")

    def __init__(
        self,
        graph: JoinGraph,
        read: frozenset[str],
        keeps: Callable[[tuple, float, float], bool],
    ) -> None:
        self.graph = graph
        self.read = read
        self.keeps = keeps
        self._scan_joins: dict[HashJoinNode, bool] = {}

    def shape(
        self,
        alias: str,
        build_keys: tuple[tuple[str, str], ...],
        probe_keys: tuple[tuple[str, str], ...],
    ) -> bool:
        """Whether a join building on the scan of ``alias`` alone with
        these keys is absorbable should its filter be kept."""
        graph = self.graph
        if alias in self.read:
            return False
        if len({probe for probe, _ in probe_keys}) != len(graph.neighbors(alias)):
            return False
        catalog = graph.catalog
        for key_alias, column in chain(build_keys, probe_keys):
            schema = catalog.schema(graph.table_of(key_alias))
            if schema.column_type(column) is ColumnType.FLOAT64:
                return False
        return catalog.is_key_join(
            graph.table_of(alias), tuple(column for _, column in build_keys)
        )

    def scan_join(self, node: HashJoinNode) -> bool:
        """:meth:`shape` of a join whose build side is a scan, kept per
        node: plan search prices a collapsed subplan once per order."""
        known = self._scan_joins.get(node)
        if known is None:
            known = self._scan_joins[node] = self.shape(
                node.build.alias, node.build_keys, node.probe_keys
            )
        return known


def estimated_cpu(
    plan: PlanNode,
    estimator: CardinalityEstimator,
    bitvector_aware: bool = True,
    constants: CostConstants = DEFAULT_COSTS,
    predicates: Mapping[str, Expression] | None = None,
    observed: ExecutionMetrics | None = None,
    absorption: Absorption | None = None,
) -> PlanEstimate:
    """Price a plan with its filters in place.

    The plan may be bare or pushed down: the pass routes the filters
    itself and sees through each residual :class:`FilterNode`, so both
    price the same.  ``bitvector_aware=False`` is the blind model's
    view: filters are routed and their checks charged, but rows ignore
    them.  ``observed``, the metrics of an execution of this plan,
    replaces every node's rows with the rows it output there.
    ``predicates`` maps an alias to the predicate its scan runs under in
    place of the node's own, as for a cached plan executed with new
    constants.  ``absorption`` prices the joins it names as their
    filters (bitvector-aware estimates only).

    Filters stacked at a scan or a residual filter are checked in
    landing order, each on the rows the ones before it left: the
    sequence the executor meters, as far as the estimates go.  The
    blind model checks each on all the rows, since its filters reduce
    none.
    """
    pricing = _Pass(
        estimator, bitvector_aware, constants, {}, predicates, observed,
        absorption,
    )
    rows, cost = pricing.visit(plan, [])
    return PlanEstimate(
        rows, pricing.cpu(), cost, pricing.sides, pricing.nodes,
        frozenset(pricing.absorbed),
    )


def true_cout(plan: PlanNode, database: Database, filter_kind: str = "exact") -> float:
    """Execute ``plan`` and return its exact ``Cout``.

    The paper's theorems (4.1-5.4) are statements about ``Cout`` over
    actual cardinalities with no-false-positive filters, so this prices
    the plan with the rows an execution with exact filters observed.
    """
    from repro.engine.executor import Executor  # the engine imports this package

    metrics = Executor(database, filter_kind=filter_kind).execute(plan).metrics
    aliases = {
        node.alias: node.table_name
        for node in plan.walk()
        if isinstance(node, ScanNode)
    }
    estimator = CardinalityEstimator(database, aliases)
    return estimated_cpu(plan, estimator, observed=metrics).cout


class JoinStep:
    """One spine join of a join order, as plan search prices it.

    Unit ``plan`` (a scan, or a subplan collapsed by an earlier round)
    joins the spine made of the bottom unit and the steps before it:
    as the build side when ``unit_builds``, else as the probe side with
    the spine building.  Everything else is read off the join's keys
    (:func:`repro.plan.builder.join_keys`), which depend only on the
    unit, its neighbours already in the spine and the orientation, never
    on the rest of the order.

    A step stands in for the filter its join creates, like a
    :class:`HashJoinNode` does in :func:`estimated_cpu`:
    ``probe_aliases`` routes it inside a subplan, ``probe_units`` names
    the units holding those aliases, and ``ndvs`` is
    :func:`key_ndvs` of the keys.  ``absorbs`` is
    :meth:`Absorption.shape` of the join when its build side is one
    scan: the unit, or the spine's one neighbour of it when the spine
    builds.  A shaped join meets every neighbour of that scan, so a
    spine that builds is then that scan alone.
    """

    __slots__ = (
        "unit", "plan", "unit_builds", "probe_aliases", "probe_units", "ndvs",
        "absorbs",
    )

    def __init__(
        self,
        unit: str,
        plan: PlanNode,
        unit_builds: bool,
        probe_aliases: frozenset[str],
        probe_units: frozenset[str],
        ndvs: tuple[tuple[float, float], ...],
        absorbs: bool = False,
    ) -> None:
        self.unit = unit
        self.plan = plan
        self.unit_builds = unit_builds
        self.probe_aliases = probe_aliases
        self.probe_units = probe_units
        self.ndvs = ndvs
        self.absorbs = absorbs


class OrderPricer:
    """Prices join orders for one plan search without building them.

    :meth:`cpu` returns exactly what :func:`estimated_cpu` returns as
    ``cpu`` for the tree the order builds, under the same
    ``absorption``.  Scan constants are kept across calls; everything
    else is per order.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        bitvector_aware: bool = True,
        constants: CostConstants = DEFAULT_COSTS,
        absorption: Absorption | None = None,
    ) -> None:
        self.estimator = estimator
        self.bitvector_aware = bitvector_aware
        self.constants = constants
        self.absorption = absorption
        self._scans: dict[ScanNode, tuple[float, float, float]] = {}

    def cpu(self, bottom: PlanNode, steps: Sequence[JoinStep]) -> float:
        """CPU of the tree that ``steps`` build over the ``bottom`` unit.

        The tree is a spine, so Algorithm 1's routing needs no walk.  A
        filter descends the spine until it meets a step whose unit holds
        one of its probe aliases: it lands in that unit if the unit holds
        them all, and is residual at that join otherwise.  A join whose
        spine builds lands its own filter in its unit at once.  Each unit
        receives its filters in
        :func:`~repro.plan.pushdown.route_filters`' order: its own first,
        then by ascending creation step.

        The walk's recursion becomes two loops.  A unit that builds is
        priced going down, before the spine under it; a unit that probes
        is priced going up, after it.  Each term group thus takes its
        pre-order slot, and each filter's build rows are known before it
        lands.
        """
        pricing = _Pass(
            self.estimator, self.bitvector_aware, self.constants, self._scans,
            absorption=self.absorption,
        )
        terms, built, unit, join, reduced = (
            pricing.terms, pricing.built, pricing.rows, pricing.join,
            pricing.reduced,
        )
        aware = self.bitvector_aware
        keeps = None if pricing.absorption is None else pricing.absorption.keeps
        count = len(steps)
        landed, residuals = _route(steps)
        slots = [0] * count
        unit_rows = [0.0] * count  # of the units that build
        for index in range(count - 1, -1, -1):
            step = steps[index]
            slots[index] = len(terms)
            terms.append(())
            if step.unit_builds:
                rows = unit_rows[index] = unit(step.plan, landed[index])
                built[step] = (step.ndvs, rows)
        rows = unit(bottom, landed[count])
        for index, step in enumerate(steps):
            if step.unit_builds:
                build_rows, probe_rows = unit_rows[index], rows
            else:
                built[step] = (step.ndvs, rows)
                build_rows = rows
                probe_rows = unit(step.plan, landed[index])
            # Search prices every join with its filter; filter selection
            # runs on the winner afterwards.
            absorbed = (
                step.absorbs and keeps is not None
                and keeps(step.ndvs, build_rows, probe_rows)
            )
            rows = join_rows(step.ndvs, build_rows, probe_rows, aware)
            residual = residuals[index]
            if residual:
                after, checks = reduced(rows, residual)
            else:
                after, checks = rows, None
            join(slots[index], True, absorbed, build_rows, probe_rows, rows, checks)
            rows = after
        return pricing.cpu()


def _route(steps: Sequence[JoinStep]) -> tuple[list[list], list[list]]:
    """Per step, the filters landing in its unit (the bottom unit's come
    last) and those residual at its join.

    A filter's holders all lie at or below its step (a probing unit holds
    its own join's filter), so going through the steps bottom-up puts each
    unit's own filter first and the rest in ascending creation step.
    """
    count = len(steps)
    position = {step.unit: index for index, step in enumerate(steps)}
    landed: list[list[JoinStep]] = [[] for _ in range(count + 1)]
    residuals: list[list[JoinStep]] = [[] for _ in range(count)]
    for step in steps:
        holders = step.probe_units
        if len(holders) == 1:
            (holder,) = holders
            landed[position.get(holder, count)].append(step)
        else:
            # The highest holder stops the filter.
            residuals[max(position.get(holder, -1) for holder in holders)].append(step)
    return landed, residuals


class _Pass:
    """One pricing pass: the CPU term groups, one per node in pre-order;
    per filter (a :class:`HashJoinNode` or :class:`JoinStep`) its key
    ndvs and build rows; the rows of each node it visits; and the joins
    it priced as absorbed."""

    __slots__ = (
        "estimator", "aware", "constants", "scans", "predicates", "observed",
        "absorption", "terms", "built", "sides", "nodes", "absorbed",
    )

    def __init__(
        self,
        estimator: CardinalityEstimator,
        aware: bool,
        constants: CostConstants,
        scans: dict[ScanNode, tuple[float, float, float]],
        predicates: Mapping[str, Expression] | None = None,
        observed: ExecutionMetrics | None = None,
        absorption: Absorption | None = None,
    ) -> None:
        self.estimator = estimator
        self.aware = aware
        self.constants = constants
        # Per scan: its scan term, rows after the predicate, and rows out
        # when no filter lands in it.
        self.scans = scans
        self.predicates = predicates
        self.observed = observed
        # Absorption is a bitvector-aware estimate: blind and observed
        # rows price every join as executed.
        self.absorption = absorption if aware and observed is None else None
        self.terms: list[Sequence[float]] = []
        self.built: dict[object, tuple[tuple, float]] = {}
        self.sides: dict[HashJoinNode, tuple[float, float]] = {}
        self.nodes: dict[int, float] = {}
        self.absorbed: list[int] = []

    def cpu(self) -> float:
        # Left to right in pre-order, one rounding per term (``sum`` may
        # compensate, which would change the result).
        return reduce(add, chain.from_iterable(self.terms), 0.0)

    def reduced(self, rows: float, filters: list) -> tuple[float, float]:
        """Rows left after ``filters`` are checked in order, and the
        checks' cost: each filter checks the rows the ones before it
        left (the blind model's filters leave every row)."""
        check = self.constants.filter_check
        if self.aware:
            checks = 0.0
            for source in filters:
                checks += rows * check
                ndvs, build_rows = self.built[source]
                rows *= filter_survival(ndvs, build_rows, rows)
        else:
            checks = rows * check * len(filters)
        return (rows if rows > 1.0 else 1.0), checks  # max(1.0, rows)

    def join(
        self, slot: int, creates_bitvector: bool, absorbed: bool,
        build_rows: float, probe_rows: float, rows: float, checks: float | None,
    ) -> None:
        """Fill a join's term group; ``rows`` are its rows before its
        residual filters, which cost ``checks`` (``None``: it has none).
        An absorbed join costs its filter's build alone."""
        constants = self.constants
        if absorbed:
            group: tuple[float, ...] = (build_rows * constants.filter_insert,)
        elif creates_bitvector:
            group = (
                build_rows * constants.build,
                build_rows * constants.filter_insert,
                probe_rows * constants.probe,
                rows * constants.output,
            )
        else:
            group = (
                build_rows * constants.build,
                probe_rows * constants.probe,
                rows * constants.output,
            )
        if checks is not None:
            # A residual FilterNode precedes its join in pre-order.
            group = (checks,) + group
        self.terms[slot] = group

    def rows(self, node: PlanNode, incoming: list) -> float:
        """Rows out of a unit with ``incoming`` landed in it."""
        if not isinstance(node, ScanNode):
            return self.visit(node, incoming)[0]
        known = self.scans.get(node)
        if known is None:
            predicate = node.predicate
            if self.predicates is not None:
                predicate = self.predicates.get(node.alias, predicate)
            after_predicate = self.estimator.base_cardinality(node.alias, predicate)
            known = self.scans[node] = (
                self.estimator.table_rows(node.alias) * self.constants.scan,
                after_predicate,
                after_predicate if after_predicate > 1.0 else 1.0,
            )
        scan_term, after_predicate, alone = known
        if incoming:
            rows, checks = self.reduced(after_predicate, incoming)
        else:
            rows, checks = alone, 0.0
        self.terms.append((scan_term, checks))
        return rows

    def visit(
        self, node: PlanNode, incoming: list, residual: FilterNode | None = None
    ) -> tuple[float, float]:
        """``(rows out, Cout)`` of ``node`` with ``incoming`` landed in it.

        ``residual`` is the :class:`FilterNode` a pushed plan has above
        the join ``node``: the join routes its filters again, so the
        node only names where the rows after them are recorded.
        """
        observed = self.observed
        if isinstance(node, ScanNode):
            rows = self.rows(node, incoming)
            if observed is not None:
                rows = float(observed.rows_out(node.node_id))
            self.nodes[node.node_id] = rows
            return rows, rows
        if isinstance(node, FilterNode):
            return self.visit(node.child, incoming, node)
        slot = len(self.terms)
        self.terms.append(())
        if isinstance(node, (AggregateNode, TopKNode)):
            rows, cost = self.visit(node.child, incoming)
            if isinstance(node, AggregateNode):
                self.terms[slot] = (rows * self.constants.aggregate,)
            elif node.limit is not None:
                rows = max(1.0, min(rows, float(node.limit)))
            if observed is not None:
                rows = float(observed.rows_out(node.node_id))
            self.nodes[node.node_id] = rows
            return rows, cost
        if not isinstance(node, HashJoinNode):
            raise PlanError(f"cannot cost node {node.label}")
        to_build, to_probe, filters = route_filters(
            node, node if node.creates_bitvector else None, incoming
        )
        build_rows, build_cost = self.visit(node.build, to_build)
        ndvs = key_ndvs(self.estimator, node.build_keys, node.probe_keys)
        self.built[node] = (ndvs, build_rows)
        probe_rows, probe_cost = self.visit(node.probe, to_probe)
        self.sides[node] = (build_rows, probe_rows)
        if observed is None:
            rows = join_rows(
                ndvs, build_rows, probe_rows, self.aware and node.creates_bitvector
            )
        else:
            rows = float(observed.rows_out(node.node_id))
        absorption = self.absorption
        absorbed = (
            absorption is not None
            and node.creates_bitvector
            and isinstance(node.build, ScanNode)
            and absorption.scan_join(node)
            and absorption.keeps(ndvs, build_rows, probe_rows)
        )
        if absorbed:
            self.absorbed.append(node.node_id)
        if filters:
            after, checks = self.reduced(rows, filters)
        else:
            after, checks = rows, None
        self.join(
            slot, node.creates_bitvector, absorbed, build_rows, probe_rows, rows,
            checks,
        )
        self.nodes[node.node_id] = rows
        if observed is not None:
            after = float(observed.rows_out((residual or node).node_id))
        if residual is not None:
            self.nodes[residual.node_id] = after
        return after, after + build_cost + probe_cost


# The model's formulas.  They read statistics only through ``ndvs``: the
# raw (build, probe) distinct counts of a join's key pairs, in key order,
# as :func:`key_ndvs` returns them.  Plan search runs them once per join
# of every join order it prices, so they spell ``min`` / ``max`` of two
# floats as comparisons: the same values without a builtin call each.


def key_ndvs(
    estimator: CardinalityEstimator,
    build_keys: tuple[tuple[str, str], ...],
    probe_keys: tuple[tuple[str, str], ...],
) -> tuple[tuple[float, float], ...]:
    """Raw ``(build ndv, probe ndv)`` of each key pair of a join."""
    return tuple(
        (estimator.column_distinct(*build), estimator.column_distinct(*probe))
        for build, probe in zip(build_keys, probe_keys)
    )


def filter_survival(
    ndvs: tuple[tuple[float, float], ...], build_rows: float, probe_rows: float
) -> float:
    """Fraction of probe tuples surviving a filter with key ``ndvs``.

    Distinct-value containment: the build side retains
    ``min(raw ndv, build subplan rows)`` distinct keys; a probe tuple
    survives with probability ``build ndv / probe ndv``.
    """
    build_cap = build_rows if build_rows > 1.0 else 1.0
    probe_cap = probe_rows if probe_rows > 1.0 else 1.0
    survival = 1.0
    for ndv_build, ndv_probe in ndvs:
        if build_cap < ndv_build:
            ndv_build = build_cap
        if probe_cap < ndv_probe:
            ndv_probe = probe_cap
        fraction = ndv_build / (ndv_probe if ndv_probe > 1.0 else 1.0)
        if fraction < 1.0:
            survival *= fraction
    return survival if survival > 1e-9 else 1e-9


def join_rows(
    ndvs: tuple[tuple[float, float], ...],
    build_rows: float,
    probe_rows: float,
    filtered: bool,
) -> float:
    """Output rows of a hash join over inputs of the given sizes.

    ``filtered``: the model is bitvector-aware and the join creates a
    filter, so its probe side already reflects the semi-join reduction.
    """
    if filtered:
        # Algorithm 1 always lands the filter inside the probe side.
        # Each surviving probe tuple matches |B| / ndv(build key) build
        # tuples on average, at least 1; the build key keeps at most one
        # distinct value per build row.
        build_ndv = 1.0
        for ndv_build, _ in ndvs:
            build_ndv *= ndv_build
        build_cap = build_rows if build_rows > 1.0 else 1.0
        if build_cap < build_ndv:
            build_ndv = build_cap
        matches_per_tuple = build_rows / (build_ndv if build_ndv > 1.0 else 1.0)
        rows = probe_rows * (matches_per_tuple if matches_per_tuple > 1.0 else 1.0)
    else:
        selectivity = 1.0
        for ndv_build, ndv_probe in ndvs:
            largest = ndv_build if ndv_build > ndv_probe else ndv_probe
            selectivity *= 1.0 / (largest if largest > 1.0 else 1.0)
        rows = build_rows * probe_rows * selectivity
    return rows if rows > 1.0 else 1.0
