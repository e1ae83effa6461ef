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

from repro.cost.constants import DEFAULT_COSTS, DEFAULT_LAMBDA_THRESH
from repro.cost.physical import Absorption, estimated_cpu, filter_survival, key_ndvs
from repro.plan.builder import output_reads
from repro.plan.nodes import PlanNode
from repro.query.joingraph import JoinGraph
from repro.stats.estimator import CardinalityEstimator

# The creation threshold never drops below this fraction of the
# deployed lambda: partitioned builds only cheapen the *build* pass,
# while the per-probe check cost — the other component lambda absorbs —
# is paid serially per tuple regardless of parallelism.
_MIN_THRESH_FRACTION = 0.5


def apply_cost_based_filters(
    plan: PlanNode,
    estimator: CardinalityEstimator,
    lambda_thresh: float = DEFAULT_LAMBDA_THRESH,
    build_parallelism: int = 1,
) -> PlanNode:
    """Disable bitvector creation for joins below the threshold.

    The elimination fraction of a join's filter is estimated with
    distinct-value containment between the build side's (reduced) keys
    and the probe side's raw keys — the anti-semi-join selectivity.
    Returns the same plan object with flags updated (no push-down yet).

    ``build_parallelism`` is the executor parallelism the plan will run
    at.  Above 1, each join's creation threshold is discounted by the
    build cost the partitioned build pipeline saves (see
    :func:`_parallel_build_threshold`): the paper's threshold polices a
    *serial* pass over the build side, so once that pass is split
    across workers the optimizer can afford filters on large dimensions
    it previously rejected.
    """
    # Every decision is taken against the plan with *all* its flags as
    # they came in: the rows are priced once, before any flag is written.
    for join, (build_rows, probe_rows) in estimated_cpu(plan, estimator).join_rows.items():
        join.creates_bitvector = keeps_filter(
            key_ndvs(estimator, join.build_keys, join.probe_keys),
            build_rows, probe_rows, estimator, lambda_thresh, build_parallelism,
        )
    return plan


def keeps_filter(
    ndvs: tuple[tuple[float, float], ...],
    build_rows: float,
    probe_rows: float,
    estimator: CardinalityEstimator,
    lambda_thresh: float,
    build_parallelism: int,
) -> bool:
    """Whether a join with key ``ndvs`` over inputs of these sizes keeps
    its filter: its estimated elimination reaches the threshold."""
    # Against the probe side's raw keys: no probe row count caps them.
    elimination = 1.0 - filter_survival(ndvs, build_rows, math.inf)
    return elimination >= _parallel_build_threshold(
        build_rows, probe_rows, estimator, lambda_thresh, build_parallelism
    )


def absorption_for(
    graph: JoinGraph,
    estimator: CardinalityEstimator,
    lambda_thresh: float,
    build_parallelism: int,
) -> Absorption | None:
    """What plan search needs to price the joins the engine will elide,
    for a plan finalized under this threshold (``lambda_thresh=0``: every
    join keeps its filter); ``None`` when the query has no output
    operator, so its plan outputs every column and elides nothing."""
    read = output_reads(graph.spec)
    if read is None:
        return None
    return Absorption(
        graph, read,
        functools.partial(
            keeps_filter, estimator=estimator, lambda_thresh=lambda_thresh,
            build_parallelism=build_parallelism,
        ),
    )


def _parallel_build_threshold(
    build_rows: float,
    probe_rows: float,
    estimator: CardinalityEstimator,
    lambda_thresh: float,
    build_parallelism: int,
) -> float:
    """Creation threshold net of the build cost parallelism saves.

    The deployed flat threshold absorbs two costs: the per-probe-tuple
    check ``Cf`` and the amortized build pass ``Ci * |build| / (Cp *
    |probe|)``.  A partitioned build divides the build term by the
    effective parallelism (``CardinalityEstimator.filter_build_discount``
    mirrors the executor's dispatch rules), so the threshold drops by
    the share saved — ``share * (1 - 1/p_eff)`` — floored at
    :data:`_MIN_THRESH_FRACTION` of the deployed lambda because the
    check cost is untouched by build parallelism.  At
    ``build_parallelism=1`` this is exactly ``lambda_thresh``.
    """
    if build_parallelism <= 1:
        return lambda_thresh
    discount = estimator.filter_build_discount(build_rows, build_parallelism)
    if discount <= 1.0:
        return lambda_thresh
    share = (DEFAULT_COSTS.filter_insert * build_rows) / max(
        DEFAULT_COSTS.probe * probe_rows, 1.0
    )
    saved = share * (1.0 - 1.0 / discount)
    return max(lambda_thresh * _MIN_THRESH_FRACTION, lambda_thresh - saved)
