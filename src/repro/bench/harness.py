"""Run a workload under one or more optimization pipelines.

For every (query, pipeline) pair the harness optimizes, executes, and
records: metered CPU (the deterministic per-tuple cost model evaluated
on actual counts), wall-clock process time, tuples output per operator
class, whether any bitvector filter was used, and a result checksum so
cross-pipeline answer consistency is verified on the spot — a plan that
returns different answers is a bug, not a speedup.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cost.constants import CostConstants, DEFAULT_COSTS, DEFAULT_LAMBDA_THRESH
from repro.engine.executor import Executor
from repro.errors import ExecutionError
from repro.optimizer.pipelines import optimize_query
from repro.plan.nodes import HashJoinNode
from repro.query.spec import QuerySpec
from repro.storage.database import Database
from repro.storage.partition import DEFAULT_MORSEL_ROWS
from repro.util.timer import CpuTimer


@dataclasses.dataclass
class QueryRun:
    """Measured execution of one query under one pipeline."""

    query: str
    pipeline: str
    metered_cpu: float
    wall_seconds: float
    tuples_by_kind: dict[str, int]
    output_rows: int
    estimated_cout: float
    num_joins: int
    num_filters_created: int
    checksum: float


@dataclasses.dataclass
class WorkloadResult:
    """All runs of a workload, indexed by (query, pipeline)."""

    workload: str
    pipelines: tuple[str, ...]
    runs: dict[tuple[str, str], QueryRun]

    def run(self, query: str, pipeline: str) -> QueryRun:
        return self.runs[(query, pipeline)]

    def queries(self) -> list[str]:
        seen: list[str] = []
        for query, _ in self.runs:
            if query not in seen:
                seen.append(query)
        return seen

    def total_cpu(self, pipeline: str) -> float:
        return sum(
            run.metered_cpu
            for (_, run_pipeline), run in self.runs.items()
            if run_pipeline == pipeline
        )

    def total_tuples_by_kind(self, pipeline: str) -> dict[str, int]:
        totals: dict[str, int] = {}
        for (_, run_pipeline), run in self.runs.items():
            if run_pipeline != pipeline:
                continue
            for kind, count in run.tuples_by_kind.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals


def _checksum(result) -> float:
    """Order-insensitive scalar digest of a query result."""
    if result.aggregates is not None:
        total = 0.0
        for values in result.aggregates.values():
            array = np.asarray(values)
            if array.dtype.kind in ("i", "u", "f", "b"):
                numeric = array.astype(np.float64)
            else:
                # group-by text columns: fold a stable per-value digest
                from repro.util.hashing import stable_text_hash

                numeric = (
                    stable_text_hash(array).astype(np.float64) % 1_000_003.0
                )
            numeric = numeric[np.isfinite(numeric)]
            total += float(np.sort(numeric).sum())
        return total
    return float(result.relation.num_rows)


def run_workload(
    workload_name: str,
    database: Database,
    queries: list[QuerySpec],
    pipelines: tuple[str, ...] = ("original", "bqo"),
    filter_kind: str = "exact",
    lambda_thresh: float = DEFAULT_LAMBDA_THRESH,
    constants: CostConstants = DEFAULT_COSTS,
    verify_consistency: bool = True,
    parallelism: int = 1,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
) -> WorkloadResult:
    """Optimize and execute every query under every pipeline.

    With ``verify_consistency`` the harness raises if two pipelines
    disagree on a query's answer, under every filter kind: the hashed
    kind's false positives cost work, never answers, because joins
    re-verify keys.
    ``parallelism``/``morsel_rows`` configure morsel-driven execution;
    the default 1 runs the exact serial engine, keeping every seed
    benchmark comparable.
    """
    executor = Executor(
        database,
        filter_kind=filter_kind,
        parallelism=parallelism,
        morsel_rows=morsel_rows,
    )
    runs: dict[tuple[str, str], QueryRun] = {}
    for spec in queries:
        checksums: dict[str, float] = {}
        for pipeline in pipelines:
            optimized = optimize_query(
                database, spec, pipeline, lambda_thresh=lambda_thresh
            )
            timer = CpuTimer()
            with timer:
                result = executor.execute(optimized.plan)
            filters_created = sum(
                1
                for node in optimized.plan.walk()
                if isinstance(node, HashJoinNode)
                and node.created_bitvector is not None
            )
            checksum = _checksum(result)
            checksums[pipeline] = checksum
            runs[(spec.name, pipeline)] = QueryRun(
                query=spec.name,
                pipeline=pipeline,
                metered_cpu=result.metrics.metered_cpu(constants),
                wall_seconds=timer.seconds,
                tuples_by_kind=result.metrics.tuples_by_kind(),
                output_rows=result.num_rows,
                estimated_cout=optimized.estimated_cout,
                num_joins=len(spec.join_predicates),
                num_filters_created=filters_created,
                checksum=checksum,
            )
        if verify_consistency and len(checksums) > 1:
            values = list(checksums.values())
            reference = values[0]
            for value in values[1:]:
                if not np.isclose(value, reference, rtol=1e-9, atol=1e-6):
                    raise ExecutionError(
                        f"pipelines disagree on {spec.name}: {checksums}"
                    )
    return WorkloadResult(
        workload=workload_name, pipelines=tuple(pipelines), runs=runs
    )
