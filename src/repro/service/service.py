"""The :class:`QueryService` facade: raw SQL in, results out, fast on repeats.

End-to-end data flow::

    sql ── fingerprint ──┬─ HIT ──► substitute params ─┐
                         │                             ├─► execute
                         └─ MISS ─► parse ─ bind ─     │   (shared plan,
                                    optimize ─ cache ──┘    overrides)

The service owns three pieces of cross-query state:

* a :class:`~repro.service.plan_cache.PlanCache` keyed by the query's
  normalized fingerprint (literals parameterized — see
  :mod:`repro.sql.parameterize`), so structurally identical queries
  skip parsing and optimization entirely;
* a :class:`~repro.filters.cache.BitvectorFilterCache` shared by every
  execution, amortizing bitvector construction across the workload;
* running :class:`~repro.service.metrics.ServiceStats`.

Both caches are invalidated automatically when the database's
``schema_version`` moves (a table or foreign key was added).  All entry
points are thread-safe.  Both concurrent front doors —
:meth:`QueryService.run_many` (on a thread pool scoped to the call) and
:class:`~repro.service.async_service.AsyncQueryService` — run each
statement through one slot that applies the retry policy and returns
failures as error records.  With ``parallelism > 1`` each query
additionally runs its bitvector filter probes morsel-parallel inside
the executor (see :mod:`repro.engine.parallel`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cost.constants import DEFAULT_LAMBDA_THRESH
from repro.cost.physical import estimated_cpu
from repro.engine.context import ExecutionContext, ResourceBudget
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.context import Deadline
from repro.errors import (
    QueryTimeout,
    ResourceExhausted,
    ServiceClosed,
    ServiceError,
)
from repro.expr.expressions import substitute_parameters
from repro.filters.cache import BitvectorFilterCache
from repro.filters.registry import filter_class_for
from repro.obs import ServiceTelemetry, Tracer
from repro.optimizer.pipelines import PIPELINES, optimize_query
from repro.plan.display import format_plan
from repro.service.metrics import ServiceMetrics, ServiceStats
from repro.service.plan_cache import CachedPlan, PlanCache
from repro.service.retry import RetryPolicy
from repro.sql.binder import bind_select
from repro.sql.parameterize import QueryFingerprint, fingerprint_sql
from repro.sql.parser import parse_tokens
from repro.stats.estimator import CardinalityEstimator
from repro.storage.database import Database
from repro.storage.partition import DEFAULT_MORSEL_ROWS

# Stands in for the ``execute`` span when no tracer is armed.
_UNTRACED = contextlib.nullcontext()

@dataclasses.dataclass(frozen=True)
class ServiceResult:
    """One answered query: the engine result plus service accounting.

    A statement that failed inside :meth:`QueryService.run_many` still
    produces a record — ``result`` is ``None`` and ``error`` carries
    the exception — so one failure never discards sibling results.
    Callers check :attr:`ok` (or ``error``) before reading rows.
    """

    result: ExecutionResult | None
    metrics: ServiceMetrics
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def scalar(self, label: str) -> object:
        if self.result is None:
            raise ServiceError(
                f"query {self.metrics.query!r} failed: {self.error}"
            )
        return self.result.scalar(label)

    @property
    def num_rows(self) -> int:
        return 0 if self.result is None else self.result.num_rows


class QueryService:
    """Serve raw SQL against one database with cross-query caching.

    Parameters
    ----------
    database:
        The data and catalog every query binds against.
    pipeline:
        Default optimization pipeline (any :data:`repro.optimizer.PIPELINES`
        name; per-call override available).
    filter_kind:
        Bitvector filter kind the executor deploys: ``"exact"``
        (default) or ``"blocked_bloom"`` (see
        :data:`repro.filters.FILTER_KINDS`).
    plan_cache_size / filter_cache_size:
        LRU bounds for the two caches.
    max_workers:
        Default thread-pool width for :meth:`run_many`.
    parallelism / morsel_rows:
        Morsel-driven intra-query parallelism, passed through to the
        :class:`~repro.engine.executor.Executor`: at N > 1 each
        bitvector filter probe fans out, everything else stays on the
        serving thread.  The default 1 keeps each query entirely on its
        serving thread (byte-identical to the serial engine); cross-query (``max_workers``, each batch's own pool)
        and intra-query (``parallelism``, the process-wide morsel
        pool) parallelism compose, with the morsel pool bounded by the
        widest ``parallelism`` in the process.  Filters of every kind
        build in one serial pass, so plans do not depend on
        ``parallelism``.
    deadline_seconds:
        Default per-query wall-clock deadline (see
        :class:`~repro.engine.context.Deadline`).  ``None`` (default)
        disables enforcement entirely — the zero-overhead path.  A
        query past its deadline raises
        :class:`~repro.errors.QueryTimeout` at the next cooperative
        checkpoint, with sibling morsel tasks short-circuiting.
    budget:
        Default per-query :class:`~repro.engine.context.ResourceBudget`
        (max rows materialized / bytes gathered), enforced against the
        live execution counters after every parallel barrier.
    degrade:
        What a budget breach does: ``"error"`` (default) raises
        :class:`~repro.errors.ResourceExhausted`; ``"serial"`` re-runs
        the query on a serial fallback executor (shared filter cache,
        deadline still live, budget unenforced so the answer lands) and
        records the degradation in the metrics.
    retry_policy:
        Optional :class:`~repro.service.retry.RetryPolicy` applied to
        whitelisted transient failures by both concurrent front doors
        (:meth:`run_many` and ``AsyncQueryService``); :meth:`execute`
        is always one attempt.
    tracer:
        Optional :class:`repro.obs.Tracer` armed for *every* query this
        service runs (per-call override on :meth:`execute`;
        :meth:`explain_analyze` always arms a fresh one).  ``None``
        (default) keeps every instrumented site a single attribute
        test, and results are byte-identical on or off.  Independently
        of tracing, the service keeps an always-on
        :class:`repro.obs.ServiceTelemetry` registry of latency/row
        histograms (see :meth:`telemetry_snapshot`) — those record from
        values the service already measured, so they cost one histogram
        increment per query.
    """

    def __init__(
        self,
        database: Database,
        pipeline: str = "bqo",
        filter_kind: str = "exact",
        lambda_thresh: float = DEFAULT_LAMBDA_THRESH,
        plan_cache_size: int = 128,
        filter_cache_size: int = 64,
        max_workers: int = 4,
        parallelism: int = 1,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        deadline_seconds: float | None = None,
        budget: ResourceBudget | None = None,
        degrade: str = "error",
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if pipeline not in PIPELINES:
            raise ServiceError(
                f"unknown pipeline {pipeline!r}; expected one of {sorted(PIPELINES)}"
            )
        try:
            filter_class_for(filter_kind)
        except ValueError as exc:
            raise ServiceError(str(exc)) from None
        if degrade not in ("error", "serial"):
            raise ServiceError(
                f"unknown degrade mode {degrade!r}; expected 'error' or 'serial'"
            )
        self._database = database
        self._pipeline = pipeline
        self._lambda_thresh = lambda_thresh
        self._max_workers = max_workers
        self._deadline_seconds = deadline_seconds
        self._budget = budget
        self._degrade = degrade
        self._retry_policy = retry_policy
        self.plan_cache = PlanCache(plan_cache_size)
        self.filter_cache = BitvectorFilterCache(filter_cache_size)
        self._filter_kind = filter_kind
        self._executor = Executor(
            database,
            filter_kind=filter_kind,
            filter_cache=self.filter_cache,
            parallelism=parallelism,
            morsel_rows=morsel_rows,
        )
        # Serial fallback for degrade="serial": same database, same
        # shared filter cache, parallelism 1 — created lazily because
        # most services never degrade.
        self._fallback_executor: Executor | None = None
        self._fallback_args = dict(
            filter_kind=filter_kind, morsel_rows=morsel_rows
        )
        self._stats = ServiceStats()
        self.telemetry = ServiceTelemetry()
        self._tracer = tracer
        if tracer is not None and tracer.telemetry is None:
            tracer.telemetry = self.telemetry
        self._lock = threading.Lock()
        self._schema_version = database.schema_version
        self._dictionary_generation = database.dictionary_generation
        # close() is terminal: checked as every statement starts, so
        # work arriving after it gets a typed ServiceClosed.
        self._closed = False

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    @property
    def deadline_seconds(self) -> float | None:
        """The service-default per-query deadline (``None`` = off)."""
        return self._deadline_seconds

    @property
    def tracer(self) -> Tracer | None:
        """The tracer armed for every query, if any."""
        return self._tracer

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (terminal)."""
        return self._closed

    def execute(
        self,
        sql: str,
        name: str = "query",
        pipeline: str | None = None,
        deadline_seconds: float | Deadline | None = None,
        budget: ResourceBudget | None = None,
        tracer: Tracer | None = None,
    ) -> ServiceResult:
        """Parse (or recognize), optimize (or reuse), and execute ``sql``.

        One attempt, no retry.  ``deadline_seconds`` / ``budget``
        override the service defaults for this one statement (``None``
        inherits; the service default of ``None`` means unenforced).
        ``deadline_seconds`` also accepts an already-running
        :class:`~repro.engine.context.Deadline`.  A query that trips
        either limit raises the matching
        :class:`~repro.errors.ResilienceError` — unless
        ``degrade="serial"`` absorbs a budget breach — and the failure
        is counted in :meth:`stats`.

        ``tracer`` arms structured tracing for this one statement
        (``None`` inherits the service default, usually off): the call
        records an ``execute`` span over parse/bind, plan-cache
        lookup, optimize, and every engine-level span (see
        :mod:`repro.obs`).
        """
        return self._execute(
            sql, name, pipeline, deadline_seconds, budget, tracer, None
        )[0]

    def _execute(
        self,
        sql: str,
        name: str,
        pipeline: str | None,
        deadline_seconds: float | Deadline | None,
        budget: ResourceBudget | None,
        tracer: Tracer | None,
        fingerprint: QueryFingerprint | None,
    ) -> tuple[ServiceResult, CachedPlan, dict]:
        """One attempt at ``sql``: the answer, the cache entry that ran
        and this call's predicate overrides.  ``fingerprint`` is
        ``sql``'s, when the caller already made it (the async front door
        does, for admission)."""
        if self._closed:
            raise ServiceClosed(
                f"query {name!r} refused: this QueryService is closed"
            )
        wall_started = time.perf_counter()
        pipeline = pipeline or self._pipeline
        deadline = (
            self._deadline_seconds if deadline_seconds is None
            else deadline_seconds
        )
        budget = self._budget if budget is None else budget
        context = (
            None if deadline is None and budget is None
            else ExecutionContext(query=name, deadline=deadline, budget=budget)
        )
        if tracer is None:
            tracer = self._tracer
        span = (
            _UNTRACED if tracer is None
            else tracer.span("execute", query=name, pipeline=pipeline)
        )
        try:
            with span:
                started = time.perf_counter()
                entry, fingerprint, overrides, hit = self._prepare(
                    sql, pipeline, context, tracer, fingerprint
                )
                optimize_seconds = time.perf_counter() - started

                degraded = False
                started = time.perf_counter()
                try:
                    result = self._executor.execute(
                        entry.plan, predicate_overrides=overrides,
                        context=context, tracer=tracer,
                    )
                except ResourceExhausted:
                    if self._degrade != "serial" or context is None:
                        raise
                    # Graceful degradation: the parallel run materialized
                    # past its budget; answer anyway on the serial
                    # fallback (shared filter cache, deadline still live
                    # on a fresh token, budget unenforced so the retry
                    # cannot trip it again).
                    degraded = True
                    if tracer is not None:
                        tracer.event(
                            "degrade", query=name, cause="ResourceExhausted",
                            mode="serial",
                        )
                    fallback_context = (
                        ExecutionContext(query=name, deadline=context.deadline)
                        if context.deadline is not None
                        else None
                    )
                    result = self._fallback().execute(
                        entry.plan, predicate_overrides=overrides,
                        context=fallback_context, tracer=tracer,
                    )
                execute_seconds = time.perf_counter() - started

                telemetry = self.telemetry
                telemetry.record("execute_seconds", execute_seconds)
                telemetry.record("optimize_seconds", optimize_seconds)
                if result.metrics.filter_build_seconds:
                    telemetry.record(
                        "filter_build_seconds",
                        result.metrics.filter_build_seconds,
                    )
                telemetry.record("output_rows", result.num_rows)

                metrics = ServiceMetrics(
                    query=name,
                    fingerprint=entry.fingerprint,
                    pipeline=pipeline,
                    plan_cache_hit=hit,
                    optimize_seconds=optimize_seconds,
                    execute_seconds=execute_seconds,
                    metered_cpu=result.metrics.metered_cpu(),
                    output_rows=result.num_rows,
                    filter_cache_hits=result.metrics.filter_cache_hits,
                    filter_cache_misses=result.metrics.filter_cache_misses,
                    rows_copied=result.metrics.rows_copied,
                    bytes_gathered=result.metrics.bytes_gathered,
                    dictionary_hits=result.metrics.dictionary_hits,
                    dictionary_misses=result.metrics.dictionary_misses,
                    morsels_pruned=result.metrics.morsels_pruned,
                    rows_skipped=result.metrics.rows_skipped,
                    selection_bytes=result.metrics.selection_bytes,
                    filter_build_seconds=result.metrics.filter_build_seconds,
                    degraded=degraded,
                    wall_seconds=time.perf_counter() - wall_started,
                )
                with self._lock:
                    self._stats.fold(metrics)
                if tracer is not None:
                    span.set(rows=result.num_rows, plan_cache_hit=hit)
                return ServiceResult(result=result, metrics=metrics), entry, overrides
        except BaseException as exc:
            with self._lock:
                self._stats.failures += 1
                if isinstance(exc, QueryTimeout):
                    self._stats.timeouts += 1
            raise

    def _fallback(self) -> Executor:
        """The lazily-created serial fallback executor (degrade path)."""
        with self._lock:
            if self._fallback_executor is None:
                if self._executor.parallelism == 1:
                    self._fallback_executor = self._executor
                else:
                    self._fallback_executor = Executor(
                        self._database,
                        filter_cache=self.filter_cache,
                        parallelism=1,
                        **self._fallback_args,
                    )
            return self._fallback_executor

    def run_many(
        self,
        sqls: list[str],
        max_workers: int | None = None,
        pipeline: str | None = None,
    ) -> list[ServiceResult]:
        """Execute a batch concurrently; results keep input order.

        The batch runs on a thread pool scoped to this call
        (``max_workers`` wide), or inline for one worker or one
        statement.  Failures are *isolated*: a statement that raises
        yields a :class:`ServiceResult` with :attr:`ServiceResult.error`
        set (and ``result=None``) in its slot, and every other
        statement's result still arrives — ``run_many`` itself never
        raises for a per-query failure.  With a
        :class:`~repro.service.retry.RetryPolicy` configured,
        whitelisted transient failures are retried with decorrelated-
        jitter backoff before being reported.  A batch submitted after
        :meth:`close` raises :class:`~repro.errors.ServiceClosed`; a
        close that lands *mid-batch* lets running slots finish and
        fills the slots that start later with isolated
        ``ServiceClosed`` error records.
        """
        if self._closed:
            raise ServiceClosed("run_many refused: this QueryService is closed")
        workers = max_workers or self._max_workers
        names = [f"batch_{i}" for i in range(len(sqls))]
        pipelines = [pipeline] * len(sqls)
        if workers <= 1 or len(sqls) <= 1:
            return list(map(self._slot, sqls, names, pipelines))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"svc-{self._database.name}"
        ) as pool:
            return list(pool.map(self._slot, sqls, names, pipelines))

    def _slot(
        self,
        sql: str,
        name: str,
        pipeline: str | None,
        deadline: Deadline | None = None,
        fingerprint: QueryFingerprint | None = None,
    ) -> ServiceResult:
        """One statement a concurrent front door admitted — a
        :meth:`run_many` slot or an :class:`AsyncQueryService` request:
        retries applied, failure returned as an error record, never
        raised.

        The slot carries one :class:`~repro.engine.context.Deadline`
        (the caller's, else one started now from the service default)
        across every attempt: retries consume the same budget as the
        attempt that failed, and the policy refuses to schedule a
        backoff sleep the remaining budget cannot cover (raising
        :class:`~repro.errors.QueryTimeout` immediately instead of
        burning the deadline asleep).
        """
        wall_started = time.perf_counter()
        if deadline is None and self._deadline_seconds is not None:
            deadline = Deadline.after(self._deadline_seconds)
        # Counted as each attempt starts, so a slot whose last attempt
        # raised (or whose retry was refused) still reports the retries
        # it spent.
        attempts = 0

        def attempt() -> ServiceResult:
            nonlocal attempts
            attempts += 1
            return self._execute(
                sql, name, pipeline, deadline, None, None, fingerprint
            )[0]

        try:
            if self._retry_policy is None:
                return attempt()
            outcome, retries = self._retry_policy.call(
                attempt, deadline=deadline
            )
        except Exception as exc:
            outcome, error, retries = None, exc, max(attempts - 1, 0)
        if retries:
            with self._lock:
                self._stats.retries += retries
        if outcome is not None:
            if not retries:
                return outcome
            # The slot's wall clock covers every attempt, not just the
            # one that answered.
            return ServiceResult(
                result=outcome.result,
                metrics=dataclasses.replace(
                    outcome.metrics, retries=retries,
                    wall_seconds=time.perf_counter() - wall_started,
                ),
            )
        metrics = ServiceMetrics(
            query=name,
            fingerprint="",
            pipeline=pipeline or self._pipeline,
            plan_cache_hit=False,
            optimize_seconds=0.0,
            execute_seconds=0.0,
            metered_cpu=0.0,
            output_rows=0,
            filter_cache_hits=0,
            filter_cache_misses=0,
            retries=retries,
            error=f"{type(error).__name__}: {error}",
            wall_seconds=time.perf_counter() - wall_started,
        )
        return ServiceResult(result=None, metrics=metrics, error=error)

    def close(self) -> None:
        """Shut down the service (terminal, idempotent, concurrency-safe).

        In-flight statements complete normally; every statement that
        starts *after* close — a new ``execute``, a new batch, or the
        slots of a running batch that had not started yet — is refused
        with a typed :class:`~repro.errors.ServiceClosed`.  Nothing is
        waited for: a batch's threads belong to its ``run_many`` call.
        """
        self._closed = True

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def explain(self, sql: str, pipeline: str | None = None) -> str:
        """Render the plan ``sql`` would run, with bitvector annotations.

        Goes through the plan cache like :meth:`execute` (an explain
        warms the cache for the real query).  The rendered tree shows
        the constants the plan was optimized with; the header lists the
        parameters of *this* call.  A join marked ``[absorbed]`` was
        priced as its filter: with exact filters, execution elides it.
        """
        pipeline = pipeline or self._pipeline
        entry, fingerprint, _overrides, hit = self._prepare(sql, pipeline)
        params = ", ".join(
            f"?{i}={value!r}" for i, value in enumerate(fingerprint.parameters)
        )
        dictionaries = self._database.dictionary_cache_info()
        zone_maps_info = self._database.zone_map_cache_info()
        stats = self.stats()
        header = [
            f"-- fingerprint {entry.fingerprint}  plan cache {'HIT' if hit else 'MISS'}",
            f"-- pipeline {pipeline}  estimated C_out {entry.estimated_cout:.1f}"
            f"  optimize {entry.optimize_seconds * 1e3:.2f} ms",
            f"-- parameters: {params or '(none)'}",
            f"-- filter cache: {len(self.filter_cache)} filters / "
            f"{self.filter_cache.size_bits()} bits, "
            f"{self.filter_cache.build_seconds_saved * 1e3:.2f} ms build amortized, "
            f"{self.filter_cache.builds_deduped} builds deduped",
            f"-- filter residency: {stats.filter_bytes_resident} bytes "
            + "("
            + (
                ", ".join(
                    f"{mode}: {count}"
                    for mode, count in sorted(
                        self.filter_cache.mode_summary().items()
                    )
                )
                or "empty"
            )
            + ")",
            f"-- selections: {stats.total_selection_bytes} bytes resident so far",
            f"-- dictionary indexes: {dictionaries['entries']} columns resident "
            f"({dictionaries['builds']} builds / {dictionaries['lookups']} lookups)",
            f"-- parallel execution: parallelism={self._executor.parallelism} "
            f"morsel_rows={self._executor.morsel_rows}"
            + (
                f" (filters built serially, "
                f"{stats.total_filter_build_seconds * 1e3:.2f} ms build phase)"
                if self._executor.parallelism > 1
                else " (serial)"
            ),
            f"-- zone maps: {zone_maps_info['entries']} synopses resident "
            f"({zone_maps_info['builds']} builds), "
            f"{stats.total_morsels_pruned} morsels / "
            f"{stats.total_rows_skipped} rows skipped by band search so far",
            f"-- resilience: deadline="
            + (
                f"{self._deadline_seconds:g}s"
                if self._deadline_seconds is not None
                else "off"
            )
            + f" budget={'on' if self._budget is not None else 'off'}"
            f" degrade={self._degrade}"
            f" retry={'on' if self._retry_policy is not None else 'off'}"
            f" ({stats.timeouts} timeouts, {stats.degradations} "
            f"degradations, {stats.failures} failures, "
            f"{stats.retries} retries)",
        ]
        # The joins priced as absorbed are the ones execution will elide,
        # as long as the filters are exact: the Bloom kind executes them.
        absorbed = entry.absorbed if self._filter_kind == "exact" else ()
        return "\n".join(header) + "\n" + format_plan(
            entry.plan, {node_id: "[absorbed]" for node_id in absorbed}
        )

    def stats(self) -> ServiceStats:
        """Snapshot of service-level aggregates.

        The snapshot's ``telemetry`` field carries the latency/row
        histogram summaries (count/mean/p50/p95/p99 per histogram) from
        the service's :class:`repro.obs.ServiceTelemetry` registry.
        """
        with self._lock:
            snapshot = self._stats.snapshot()
        snapshot.filter_bytes_resident = self.filter_cache.resident_bytes()
        snapshot.telemetry = self.telemetry.snapshot()
        return snapshot

    def telemetry_snapshot(self) -> dict:
        """Histogram summaries keyed by name (execute/optimize/filter-
        build/morsel-task latency, output rows): count, total, mean,
        min, max, and p50/p95/p99 quantile estimates.  The morsel-task
        histogram fills only while a tracer is armed; everything else
        is always on."""
        return self.telemetry.snapshot()

    def explain_analyze(
        self,
        sql: str,
        name: str = "explain_analyze",
        pipeline: str | None = None,
    ) -> str:
        """Execute ``sql`` under a fresh tracer and render the profile.

        The plan tree is annotated per node with *actual* rows,
        inclusive wall time, and metered CPU next to the optimizer's
        cardinality estimate — the standard EXPLAIN ANALYZE contract.
        The header summarizes the call (wall/optimize/execute split —
        with the candidates costed and snowflakes extracted when the
        call planned — plan-cache outcome, band-search and filter-build
        counters) and the trace (span count per name).  Tracing is
        armed for this call only; results are byte-identical to a plain
        :meth:`execute`.
        """
        pipeline = pipeline or self._pipeline
        tracer = Tracer(telemetry=self.telemetry)
        outcome, entry, overrides = self._execute(
            sql, name, pipeline, None, None, tracer, None
        )
        result = outcome.result
        metrics = outcome.metrics

        # Optimizer estimates, priced by the pass the pipelines cost
        # plans with, under this call's constants: a cached plan's scans
        # hold those of the call that planned it.
        estimates = estimated_cpu(
            entry.plan,
            CardinalityEstimator(self._database, entry.alias_tables),
            predicates=overrides,
        ).node_rows
        executed = {node.node_id: node for node in result.metrics.nodes}
        # Joins the executor skipped because their own exact filter had
        # already done their work (the node span says which filter).
        elided = {
            span.attributes["node_id"]: span.attributes["absorbed_by"]
            for span in tracer.spans("node")
            if span.attributes.get("elided")
        }
        # How each scan answered its predicate (band search, dictionary
        # truth tables or row values) and how each executed join ran
        # (the side its match structure indexed, the sides that came
        # back as the identity, the aliases it stopped carrying), also
        # off the node span.
        answered = {
            span.attributes["node_id"]: ", ".join(
                f"{key}={span.attributes[key]}"
                for key in (
                    "predicate", "truth_table", "indexed", "identity", "dropped"
                )
                if key in span.attributes
            )
            for span in tracer.spans("node")
            if "predicate" in span.attributes or "indexed" in span.attributes
        }
        annotations: dict[int, str] = {}
        for node in entry.plan.walk():
            record = executed.get(node.node_id)
            estimate = f"{estimates[node.node_id]:.0f}"
            if record is None:
                annotations[node.node_id] = f"(est {estimate} rows, not run)"
                continue
            annotations[node.node_id] = (
                f"actual {record.rows_out} rows in "
                f"{record.wall_seconds * 1e3:.2f} ms"
                f" (cpu {record.cpu():.0f}, est {estimate} rows)"
            )
            if node.node_id in elided:
                annotations[node.node_id] += (
                    f" [elided — absorbed by BV#{elided[node.node_id]}]"
                )
            if node.node_id in answered:
                annotations[node.node_id] += f" [{answered[node.node_id]}]"

        span_counts: dict[str, int] = {}
        for span in tracer.spans():
            span_counts[span.name] = span_counts.get(span.name, 0) + 1
        morsels = tracer.spans("morsel")
        # What plan search did, when this call planned (a cache hit has
        # no ``optimize`` span and searched nothing).
        searched = "".join(
            f" ({span.attributes['candidates']} candidates, "
            f"{span.attributes['snowflakes']} snowflakes)"
            for span in tracer.spans("optimize")
        )
        header = [
            f"-- EXPLAIN ANALYZE {metrics.query}  pipeline {pipeline}"
            f"  plan cache {'HIT' if metrics.plan_cache_hit else 'MISS'}",
            f"-- wall {metrics.wall_seconds * 1e3:.2f} ms = optimize "
            f"{metrics.optimize_seconds * 1e3:.2f} ms{searched} + execute "
            f"{metrics.execute_seconds * 1e3:.2f} ms; "
            f"{metrics.output_rows} rows out",
            f"-- band search: {metrics.morsels_pruned} morsels pruned, "
            f"{metrics.rows_skipped} rows skipped",
            f"-- filters: {metrics.filter_cache_hits} cache hits / "
            f"{metrics.filter_cache_misses} misses, "
            f"{metrics.filter_build_seconds * 1e3:.2f} ms built",
            "-- spans: "
            + (
                ", ".join(
                    f"{span_name}={count}"
                    for span_name, count in sorted(span_counts.items())
                )
                or "(none)"
            )
            + (f", {tracer.dropped} dropped" if tracer.dropped else ""),
        ]
        if morsels:
            total = sum(span.duration for span in morsels)
            header.append(
                f"-- morsel tasks: {len(morsels)} spanning "
                f"{total * 1e3:.2f} ms of worker time"
            )
        return "\n".join(header) + "\n" + format_plan(
            entry.plan, annotations=annotations
        )

    def invalidate(self) -> None:
        """Drop every cached plan and filter (e.g. after a data reload)."""
        with self._lock:
            self.plan_cache.clear()
            self.filter_cache.clear()
            self._stats.invalidations += 1
            self._schema_version = self._database.schema_version
            self._dictionary_generation = self._database.dictionary_generation

    # ------------------------------------------------------------------
    # Cache machinery
    # ------------------------------------------------------------------

    def _prepare(
        self, sql: str, pipeline: str,
        context: ExecutionContext | None = None,
        tracer: Tracer | None = None,
        fingerprint: QueryFingerprint | None = None,
    ) -> tuple[CachedPlan, QueryFingerprint, dict, bool]:
        """Fingerprint ``sql`` and return an executable cached entry.

        The hit path never parses: it tokenizes (unless given the
        ``fingerprint``), looks up the plan, and substitutes this
        query's constants into the per-alias predicate templates.
        ``context`` makes a cache-miss optimization abortable under the
        query's deadline; an aborted build is never published, so the
        cache holds only completed plans.
        """
        self._check_schema_version()
        if fingerprint is None:
            fingerprint = fingerprint_sql(sql)
        key = (fingerprint.text, pipeline)
        entry = self.plan_cache.get(key)
        hit = entry is not None
        if tracer is not None:
            tracer.event(
                "plan_cache", hit=hit, fingerprint=fingerprint.digest
            )
        if entry is None:
            # Read the generation before the (slow) build: if an
            # invalidation lands mid-optimize, the put is dropped and
            # the possibly-stale plan serves only this one request.
            generation = self.plan_cache.generation
            entry = self._build_entry(fingerprint, pipeline, context, tracer)
            self.plan_cache.put(key, entry, generation=generation)
        if entry.num_parameters != fingerprint.num_parameters:
            raise ServiceError(
                f"fingerprint {entry.fingerprint} expects "
                f"{entry.num_parameters} parameters, got "
                f"{fingerprint.num_parameters}"
            )
        overrides = {
            alias: substitute_parameters(template, fingerprint.parameters)
            for alias, template in entry.template_predicates.items()
        }
        return entry, fingerprint, overrides, hit

    def _build_entry(
        self,
        fingerprint: QueryFingerprint,
        pipeline: str,
        context: ExecutionContext | None = None,
        tracer: Tracer | None = None,
    ) -> CachedPlan:
        """Cache-miss path: parse the fingerprint's tokens (as lexed and
        as the parameter template) → bind → optimize."""

        def parse_and_bind():
            name = f"q_{fingerprint.digest}"
            spec = bind_select(
                self._database, parse_tokens(fingerprint.tokens), name
            )
            template_spec = bind_select(
                self._database, parse_tokens(fingerprint.template_tokens()), name
            )
            return spec, template_spec

        if tracer is None:
            spec, template_spec = parse_and_bind()
        else:
            with tracer.span("parse_bind", fingerprint=fingerprint.digest):
                spec, template_spec = parse_and_bind()
        optimized = optimize_query(
            self._database, spec, pipeline, lambda_thresh=self._lambda_thresh,
            context=context,
            tracer=tracer,
        )
        return CachedPlan(
            fingerprint=fingerprint.digest,
            pipeline=pipeline,
            plan=optimized.plan,
            template_predicates=dict(template_spec.local_predicates),
            alias_tables=dict(spec.alias_tables),
            num_parameters=fingerprint.num_parameters,
            estimated_cout=optimized.estimated_cout,
            signature=optimized.signature,
            optimize_seconds=optimized.optimize_seconds,
            absorbed=optimized.absorbed,
        )

    def _check_schema_version(self) -> None:
        """Drop both caches when the catalog has changed underneath us,
        and the filter cache when the database dropped its dictionaries:
        a cached filter holds the build table's dictionary it was built
        over, which would otherwise outlive the database's copy."""
        with self._lock:
            if self._database.schema_version != self._schema_version:
                self.plan_cache.clear()
                self.filter_cache.clear()
                self._schema_version = self._database.schema_version
                self._stats.invalidations += 1
            generation = self._database.dictionary_generation
            if generation != self._dictionary_generation:
                self.filter_cache.clear()
                self._dictionary_generation = generation
