"""Expected CPU, ``Cout`` and rows of a bare plan or a join order, read-only.

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

:class:`OrderPricer` prices the tree a join order *would* build — one
:class:`JoinStep` per spine join over a bottom unit — without building
it, and equals :func:`estimated_cpu` on that tree bit for bit.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import add
from typing import NamedTuple, Sequence

from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.cout import filter_survival, join_rows, key_ndvs
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
    pricing = _Pass(estimator, bitvector_aware, constants, {})
    rows, cost = pricing.visit(plan, [])
    return PlanEstimate(rows, pricing.cpu(), cost, pricing.sides)


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
    :func:`~repro.cost.cout.key_ndvs` of the keys.
    """

    __slots__ = ("unit", "plan", "unit_builds", "probe_aliases", "probe_units", "ndvs")

    def __init__(
        self,
        unit: str,
        plan: PlanNode,
        unit_builds: bool,
        probe_aliases: frozenset[str],
        probe_units: frozenset[str],
        ndvs: tuple[tuple[float, float], ...],
    ) -> None:
        self.unit = unit
        self.plan = plan
        self.unit_builds = unit_builds
        self.probe_aliases = probe_aliases
        self.probe_units = probe_units
        self.ndvs = ndvs


class OrderPricer:
    """Prices join orders for one plan search without building them.

    :meth:`cpu` returns exactly what :func:`estimated_cpu` returns as
    ``cpu`` for the tree the order builds.  Scan constants are kept
    across calls; everything else is per order.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        bitvector_aware: bool = True,
        constants: CostConstants = DEFAULT_COSTS,
    ) -> None:
        self.estimator = estimator
        self.bitvector_aware = bitvector_aware
        self.constants = constants
        self._scans: dict[ScanNode, tuple[float, float, float, float]] = {}

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
            self.estimator, self.bitvector_aware, self.constants, self._scans
        )
        terms, built, unit, join = (
            pricing.terms, pricing.built, pricing.rows, pricing.join
        )
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
            rows = join(
                slots[index], step.ndvs, True,
                build_rows, probe_rows, residuals[index],
            )
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
    """One pricing pass: the CPU term groups, one per node in pre-order,
    and per filter (a :class:`HashJoinNode` or :class:`JoinStep`) its
    key ndvs and build rows."""

    __slots__ = (
        "estimator", "aware", "constants", "scans", "terms", "built", "sides",
    )

    def __init__(
        self,
        estimator: CardinalityEstimator,
        aware: bool,
        constants: CostConstants,
        scans: dict[ScanNode, tuple[float, float, float, float]],
    ) -> None:
        self.estimator = estimator
        self.aware = aware
        self.constants = constants
        # Per scan: its scan term, rows after the predicate, check cost
        # per filter (rows after the predicate x filter_check), and rows
        # out when no filter lands in it.
        self.scans = scans
        self.terms: list[Sequence[float]] = []
        self.built: dict[object, tuple[tuple, float]] = {}
        self.sides: dict[HashJoinNode, tuple[float, float]] = {}

    def cpu(self) -> float:
        # Left to right in pre-order, one rounding per term (``sum`` may
        # compensate, which would change the result).
        return reduce(add, chain.from_iterable(self.terms), 0.0)

    def reduced(self, rows: float, filters: list) -> float:
        if self.aware:
            for source in filters:
                ndvs, build_rows = self.built[source]
                rows *= filter_survival(ndvs, build_rows, rows)
        return rows if rows > 1.0 else 1.0  # max(1.0, rows); see cost.cout

    def join(
        self, slot: int, ndvs: tuple, creates_bitvector: bool,
        build_rows: float, probe_rows: float, residual: list,
    ) -> float:
        """Fill a join's term group; its rows after ``residual``."""
        constants = self.constants
        rows = join_rows(
            ndvs, build_rows, probe_rows, self.aware and creates_bitvector
        )
        if creates_bitvector:
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
        if not residual:
            self.terms[slot] = group
            return rows
        # A residual FilterNode precedes its join in pre-order.
        self.terms[slot] = (rows * constants.filter_check * len(residual),) + group
        return self.reduced(rows, residual)

    def rows(self, node: PlanNode, incoming: list) -> float:
        """Rows out of a unit with ``incoming`` landed in it."""
        if not isinstance(node, ScanNode):
            return self.visit(node, incoming)[0]
        known = self.scans.get(node)
        if known is None:
            constants = self.constants
            after_predicate = self.estimator.base_cardinality(
                node.alias, node.predicate
            )
            known = self.scans[node] = (
                self.estimator.table_rows(node.alias) * constants.scan,
                after_predicate,
                after_predicate * constants.filter_check,
                self.reduced(after_predicate, ()),
            )
        scan_term, after_predicate, check, alone = known
        self.terms.append((scan_term, check * len(incoming)))
        return self.reduced(after_predicate, incoming) if incoming else alone

    def visit(self, node: PlanNode, incoming: list) -> tuple[float, float]:
        """``(rows out, Cout)`` of ``node`` with ``incoming`` landed in it."""
        if isinstance(node, ScanNode):
            rows = self.rows(node, incoming)
            return rows, rows
        slot = len(self.terms)
        self.terms.append(())
        if isinstance(node, (AggregateNode, TopKNode)):
            rows, cost = self.visit(node.child, incoming)
            if isinstance(node, AggregateNode):
                self.terms[slot] = (rows * self.constants.aggregate,)
            elif node.limit is not None:
                rows = max(1.0, min(rows, float(node.limit)))
            return rows, cost
        if not isinstance(node, HashJoinNode):
            raise PlanError(f"cannot cost node {node.label}")
        to_build, to_probe, residual = route_filters(
            node, node if node.creates_bitvector else None, incoming
        )
        build_rows, build_cost = self.visit(node.build, to_build)
        ndvs = key_ndvs(self.estimator, node.build_keys, node.probe_keys)
        self.built[node] = (ndvs, build_rows)
        probe_rows, probe_cost = self.visit(node.probe, to_probe)
        self.sides[node] = (build_rows, probe_rows)
        rows = self.join(
            slot, ndvs, node.creates_bitvector, build_rows, probe_rows, residual
        )
        return rows, rows + build_cost + probe_cost
