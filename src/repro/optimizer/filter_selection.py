"""Cost-based bitvector filter selection (paper Section 6.3).

Creating and checking bitvector filters is not free: a filter that
eliminates almost nothing costs ``Cf`` per probe tuple and saves almost
no probe work.  The paper derives a profile-calibrated elimination
threshold and deploys ``lambda_thresh = 5%``: a hash join only creates
its bitvector when the filter is estimated to eliminate at least that
fraction of probe-side tuples (estimated "the same way as the existing
semi-join operator").

``apply_cost_based_filters`` sets the ``creates_bitvector`` flag on
every join of a plan; the caller then runs push-down once.
:func:`absorption_for` hands the same rule to plan search, which prices a
join the engine will elide as its filter only if the filter is kept.
"""

from __future__ import annotations

import functools
import math

from repro.cost.constants import DEFAULT_LAMBDA_THRESH
from repro.cost.physical import Absorption, estimated_cpu, filter_survival, key_ndvs
from repro.plan.builder import output_reads
from repro.plan.nodes import PlanNode
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator


def apply_cost_based_filters(
    plan: PlanNode,
    estimator: CardinalityEstimator,
    lambda_thresh: float = DEFAULT_LAMBDA_THRESH,
) -> PlanNode:
    """Disable bitvector creation for joins below the threshold.

    The elimination fraction of a join's filter is estimated with
    distinct-value containment between the build side's (reduced) keys
    and the probe side's raw keys — the anti-semi-join selectivity.
    Returns the same plan object with flags updated (no push-down yet).
    """
    # Every decision is taken against the plan with *all* its flags as
    # they came in: the rows are priced once, before any flag is written.
    for join, (build_rows, _probe_rows) in estimated_cpu(plan, estimator).join_rows.items():
        join.creates_bitvector = keeps_filter(
            key_ndvs(estimator, join.build_keys, join.probe_keys),
            build_rows, lambda_thresh,
        )
    return plan


def keeps_filter(
    ndvs: tuple[tuple[float, float], ...],
    build_rows: float,
    lambda_thresh: float,
) -> bool:
    """Whether a join with key ``ndvs`` over a build side of this size
    keeps its filter: its estimated elimination reaches the threshold."""
    # Against the probe side's raw keys: no probe row count caps them.
    elimination = 1.0 - filter_survival(ndvs, build_rows, math.inf)
    return elimination >= lambda_thresh


def absorption_for(graph: JoinGraph, lambda_thresh: float) -> Absorption | None:
    """What plan search needs to price the joins the engine will elide,
    for a plan finalized under this threshold (``lambda_thresh=0``: every
    join keeps its filter); ``None`` when the query has no output
    operator, so its plan outputs every column and elides nothing."""
    read = output_reads(graph.spec)
    if read is None:
        return None
    return Absorption(
        graph, read,
        functools.partial(keeps_filter, lambda_thresh=lambda_thresh),
    )

