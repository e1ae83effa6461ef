"""The ``Cout`` cost function (paper Section 3.3) over physical plans.

``Cout`` sums intermediate result sizes::

    Cout(T) = |T|                            if T is a base table
    Cout(T) = |T| + Cout(T1) + Cout(T2)      if T = T1 join T2

where ``|T|`` already reflects bitvector filters — both at base tables
(scans reduced by pushed-down filters) and at join results (residual
filters).  The function is parameterized by a
:class:`CardinalityModel`, so the same code scores plans with estimated
cardinalities (planning) or true cardinalities (theorem validation).
"""

from __future__ import annotations

from typing import Protocol

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
from repro.stats.estimator import CardinalityEstimator


class CardinalityModel(Protocol):
    """Anything that can report the output cardinality of a plan node."""

    def rows_out(self, node: PlanNode) -> float:
        """Output rows of ``node`` (after its applied bitvector filters)."""
        ...


def cout(plan: PlanNode, model: CardinalityModel) -> float:
    """Compute ``Cout`` of a plan under a cardinality model.

    A residual :class:`FilterNode` and the join it wraps count as one
    intermediate result — the join's size *after* the residual filters,
    matching the paper's convention that ``|T|`` reflects applied
    bitvector filters.  The final aggregate is not an intermediate
    result and contributes nothing.
    """
    if isinstance(plan, (AggregateNode, TopKNode)):
        return cout(plan.child, model)
    if isinstance(plan, FilterNode):
        inner = plan.child
        if not isinstance(inner, HashJoinNode):
            raise PlanError("residual filter must wrap a hash join")
        return (
            model.rows_out(plan)
            + cout(inner.build, model)
            + cout(inner.probe, model)
        )
    if isinstance(plan, HashJoinNode):
        return (
            model.rows_out(plan)
            + cout(plan.build, model)
            + cout(plan.probe, model)
        )
    if isinstance(plan, ScanNode):
        return model.rows_out(plan)
    raise PlanError(f"cannot cost node {plan.label}")


class EstimatedCardModel:
    """Cardinality model backed by table statistics.

    The estimation strategy is the one the paper's host optimizer uses:
    bitvector filters behave like semi-joins, with distinct-value
    containment deciding survival fractions:

    * a scan's output is its filtered base cardinality times the
      survival fraction of each pushed-down bitvector;
    * a hash join whose own bitvector reached its probe subtree outputs
      ``probe_rows x avg_matches_per_surviving_tuple`` (for a key join
      into the build side this is exactly ``probe_rows``);
    * a hash join without a bitvector uses the standard
      ``|B| x |P| / max(ndv)`` formula.
    """

    def __init__(
        self, estimator: CardinalityEstimator, bitvector_aware: bool = True
    ) -> None:
        """``bitvector_aware=False`` reproduces a blind optimizer's view:
        pushed-down filters are ignored and joins always use the
        standard ``|B| x |P| / max(ndv)`` formula — the costing mode of
        the paper's baseline (its snowflake heuristics "neglect the
        impact of bitvector filters")."""
        self._estimator = estimator
        self._aware = bitvector_aware
        self._cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # CardinalityModel interface
    # ------------------------------------------------------------------

    def rows_out(self, node: PlanNode) -> float:
        cached = self._cache.get(node.node_id)
        if cached is not None:
            return cached
        rows = self._compute(node)
        self._cache[node.node_id] = rows
        return rows

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _compute(self, node: PlanNode) -> float:
        if isinstance(node, ScanNode):
            rows = self._estimator.base_cardinality(node.alias, node.predicate)
            if self._aware:
                for bitvector in node.applied_bitvectors:
                    rows *= self._survival(bitvector, probe_rows=rows)
            return max(1.0, rows)
        if isinstance(node, FilterNode):
            rows = self.rows_out(node.child)
            if self._aware:
                for bitvector in node.applied_bitvectors:
                    rows *= self._survival(bitvector, probe_rows=rows)
            return max(1.0, rows)
        if isinstance(node, HashJoinNode):
            return join_rows(
                key_ndvs(self._estimator, node.build_keys, node.probe_keys),
                self.rows_out(node.build), self.rows_out(node.probe),
                self._aware and node.creates_bitvector,
            )
        if isinstance(node, AggregateNode):
            return self.rows_out(node.child)
        if isinstance(node, TopKNode):
            rows = self.rows_out(node.child)
            if node.limit is not None:
                rows = min(rows, float(node.limit))
            return max(1.0, rows)
        raise PlanError(f"cannot estimate node {node.label}")

    def _survival(self, bitvector: BitvectorDef, probe_rows: float) -> float:
        build_rows = self.rows_out(bitvector.source_join.build)
        ndvs = key_ndvs(self._estimator, bitvector.build_keys, bitvector.probe_keys)
        return filter_survival(ndvs, build_rows, probe_rows)


# The model's formulas, shared with :mod:`repro.cost.physical`.  They read
# statistics only through ``ndvs``: the raw (build, probe) distinct counts
# of a join's key pairs, in key order, as :func:`key_ndvs` returns them.
# Plan search runs them once per join of every join order it prices, so
# they spell ``min`` / ``max`` of two floats as comparisons: the same
# values without a builtin call each.


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
