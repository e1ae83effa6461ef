"""End-to-end optimization pipelines.

Every experiment compares named pipelines:

* ``original`` — the paper's baseline: the host optimizer's snowflake
  transformation heuristics with *bitvector-blind* costing (the paper,
  Section 7.2: "the heuristics used in its snowflake transformation
  rules neglect the impact of bitvector filters"), with bitvector
  filters added as a post-processing step (Algorithm 1) under the same
  cost-based creation threshold the engine deploys.
* ``original_nobv`` — the ``original`` join order executed with
  bitvector filtering disabled (the Table 4 comparison).
* ``bqo`` — the paper's contribution: bitvector-aware Algorithm 3 join
  ordering with cost-based filter selection and push-down.
* ``bqo_allfilters`` — ablation: BQO ordering with every join creating
  a filter (no Section 6.3 selection).
* ``original_allfilters`` — ablation: baseline ordering, every join
  filtering.
* ``dp`` / ``dp_nobv`` — an *extra* reference point beyond the paper:
  exact bushy dynamic programming (greedy beyond 10 relations) with
  blind costing and post-hoc filters.  This is a stronger baseline
  than the paper's host optimizer; EXPERIMENTS.md reports how close it
  gets to BQO.

Each pipeline returns an :class:`OptimizedPlan` carrying the executable
plan (aggregates attached, push-down applied where relevant) plus
planning metadata.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

from repro.cost.constants import DEFAULT_LAMBDA_THRESH
from repro.cost.physical import Absorption, estimated_cpu
from repro.errors import OptimizerError
from repro.optimizer.baseline import optimize_baseline
from repro.optimizer.filter_selection import absorption_for, apply_cost_based_filters
from repro.optimizer.multifact import optimize_join_graph
from repro.optimizer.snowflake import SearchStats
from repro.plan.builder import attach_aggregate
from repro.plan.nodes import HashJoinNode, PlanNode
from repro.plan.properties import plan_signature
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.query.spec import QuerySpec
from repro.stats.estimator import CardinalityEstimator
from repro.storage.database import Database


@dataclasses.dataclass
class OptimizedPlan:
    """Result of one optimization pipeline for one query."""

    pipeline: str
    spec: QuerySpec
    plan: PlanNode
    estimated_cout: float
    signature: str
    # Wall-clock planning time; what a plan-cache hit saves
    # (see repro.service).
    optimize_seconds: float = 0.0
    # Candidate join orders priced and Algorithm 3 extraction rounds (both 0
    # for the ``dp`` pipelines, which search by dynamic programming).
    candidates: int = 0
    snowflakes: int = 0
    # node_id of each join the final plan prices as absorbed: the joins
    # the engine will elide with exact filters (PlanEstimate.absorbed).
    absorbed: frozenset[int] = frozenset()

    @property
    def name(self) -> str:
        return f"{self.spec.name}/{self.pipeline}"


def _finalize(
    pipeline: str,
    spec: QuerySpec,
    plan: PlanNode,
    estimator: CardinalityEstimator,
    use_bitvectors: bool,
    cost_based: bool,
    lambda_thresh: float,
    search: SearchStats,
    absorption: Absorption | None = None,
) -> OptimizedPlan:
    if not use_bitvectors:
        for node in plan.walk():
            if isinstance(node, HashJoinNode):
                node.creates_bitvector = False
    elif cost_based:
        plan = apply_cost_based_filters(plan, estimator, lambda_thresh)
    estimated = estimated_cpu(plan, estimator, absorption=absorption)
    plan = attach_aggregate(push_down_bitvectors(plan), spec)
    return OptimizedPlan(
        pipeline=pipeline,
        spec=spec,
        plan=plan,
        estimated_cout=estimated.cout,
        signature=plan_signature(plan),
        candidates=search.candidates,
        snowflakes=search.snowflakes,
        absorbed=estimated.absorbed,
    )


def _run_pipeline(
    pipeline: str,
    database: Database,
    spec: QuerySpec,
    lambda_thresh: float,
    context=None,
) -> OptimizedPlan:
    if context is not None:
        context.check()
    spec.validate_against(database)
    graph = JoinGraph(spec, database.catalog)
    estimator = CardinalityEstimator(database, spec.alias_tables)
    search = SearchStats()
    use_bitvectors = pipeline not in ("original_nobv", "dp_nobv")
    cost_based = pipeline in ("original", "bqo", "dp")
    # Which joins the plan will elide depends on the filter selection it
    # is finalized with; a zero threshold keeps every filter.
    absorption = None
    if use_bitvectors:
        absorption = absorption_for(graph, lambda_thresh if cost_based else 0.0)

    if pipeline in ("original", "original_nobv", "original_allfilters"):
        plan = optimize_join_graph(
            graph, estimator, bitvector_aware=False, context=context,
            search=search,
        )
    elif pipeline in ("bqo", "bqo_allfilters"):
        plan = optimize_join_graph(
            graph, estimator, bitvector_aware=True, context=context,
            search=search, absorption=absorption,
        )
    elif pipeline in ("dp", "dp_nobv"):
        plan = optimize_baseline(graph, estimator)
    else:
        raise OptimizerError(f"unknown pipeline {pipeline!r}")

    return _finalize(
        pipeline, spec, plan, estimator, use_bitvectors, cost_based,
        lambda_thresh, search, absorption=absorption,
    )


PIPELINES: dict[str, Callable[[Database, QuerySpec, float], OptimizedPlan]] = {
    name: (
        lambda db, spec, lt, _n=name, **kwargs: _run_pipeline(
            _n, db, spec, lt, **kwargs
        )
    )
    for name in (
        "original",
        "original_nobv",
        "original_allfilters",
        "bqo",
        "bqo_allfilters",
        "dp",
        "dp_nobv",
    )
}


def optimize_query(
    database: Database,
    spec: QuerySpec,
    pipeline: str = "bqo",
    lambda_thresh: float = DEFAULT_LAMBDA_THRESH,
    build_parallelism: int = 1,
    context=None,
    tracer=None,
) -> OptimizedPlan:
    """Optimize ``spec`` with a named pipeline.

    ``build_parallelism`` is accepted and ignored: every filter is built
    in one serial pass, which the paper's ``lambda_thresh`` prices, so
    plans do not depend on executor parallelism.  Kept because the
    benchmark's ``perf/perf_workloads.py`` passes it.

    ``context`` (an :class:`~repro.engine.context.ExecutionContext`)
    makes planning itself abortable: the snowflake-extraction loop and
    each enumerated leading-order candidate check the deadline/cancel
    token, so a query whose *plan search* blows its budget raises
    :class:`~repro.errors.QueryTimeout` instead of burning the deadline
    before execution even starts.

    ``tracer`` (a :class:`repro.obs.Tracer`) wraps the pipeline run in
    an ``optimize`` span carrying the pipeline name, the resulting
    plan's estimated cout and what the search did (``candidates``
    costed, ``snowflakes`` extracted); ``None`` is the zero-overhead
    default.

    >>> # doctest-style sketch; see examples/quickstart.py for a runnable one
    """
    try:
        runner = PIPELINES[pipeline]
    except KeyError:
        raise OptimizerError(
            f"unknown pipeline {pipeline!r}; expected one of {sorted(PIPELINES)}"
        ) from None
    started = time.perf_counter()
    if tracer is None:
        optimized = runner(database, spec, lambda_thresh, context=context)
    else:
        with tracer.span(
            "optimize", pipeline=pipeline, query=spec.name
        ) as span:
            optimized = runner(database, spec, lambda_thresh, context=context)
            span.set(
                estimated_cout=optimized.estimated_cout,
                candidates=optimized.candidates,
                snowflakes=optimized.snowflakes,
            )
    optimized.optimize_seconds = time.perf_counter() - started
    return optimized
