"""Per-query and service-level metrics for :class:`QueryService`.

Every served query produces a :class:`ServiceMetrics` record; the
service folds them into a running :class:`ServiceStats` aggregate
(thread-safe — the fold happens under the service's lock).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ServiceMetrics:
    """What one query cost the service.

    ``optimize_seconds`` is the full optimize-path latency of this call:
    fingerprinting plus — on a plan-cache miss — parsing, binding, and
    optimization.  On a hit it collapses to fingerprint + lookup +
    parameter substitution, which is the speedup the plan cache buys.
    """

    query: str
    fingerprint: str
    pipeline: str
    plan_cache_hit: bool
    optimize_seconds: float
    execute_seconds: float
    metered_cpu: float
    output_rows: int
    filter_cache_hits: int
    filter_cache_misses: int
    # Wall-clock for the whole service call, end to end: optimize +
    # execute + (for front-door slots) every retry attempt.  Carried on
    # every record — including the error records slot isolation builds
    # — so batch telemetry never needs re-timing by callers.
    wall_seconds: float = 0.0
    # Zero-copy execution accounting (repro.engine.metrics): columns
    # actually gathered and join-key encodings served by the
    # table-resident dictionary indexes.
    rows_copied: int = 0
    bytes_gathered: int = 0
    dictionary_hits: int = 0
    dictionary_misses: int = 0
    # Sorted-band data skipping (repro.engine.metrics): rows and whole
    # morsels outside a band-searched scan predicate's band, never read.
    morsels_pruned: int = 0
    rows_skipped: int = 0
    # Selection state (repro.engine.relation): bytes of int64 position
    # vectors created during execution.
    selection_bytes: int = 0
    # Wall-clock the query spent building filters (cache hits cost
    # nothing).
    filter_build_seconds: float = 0.0
    # Resilience accounting (repro.engine.context).  ``degraded`` marks
    # a query whose parallel run breached its ResourceBudget and was
    # re-run on the serial fallback executor; ``retries`` counts the
    # extra attempts the slot's retry policy spent before this answer;
    # ``error`` is ``"TypeName: message"`` for a query that failed (set
    # only on the error records a front-door slot builds).
    degraded: bool = False
    retries: int = 0
    error: str | None = None


@dataclasses.dataclass
class ServiceStats:
    """Running aggregate over every query the service has answered."""

    queries: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    filter_cache_hits: int = 0
    filter_cache_misses: int = 0
    invalidations: int = 0
    total_optimize_seconds: float = 0.0
    total_execute_seconds: float = 0.0
    total_wall_seconds: float = 0.0
    total_metered_cpu: float = 0.0
    total_rows_copied: int = 0
    total_bytes_gathered: int = 0
    dictionary_hits: int = 0
    dictionary_misses: int = 0
    total_morsels_pruned: int = 0
    total_rows_skipped: int = 0
    total_selection_bytes: int = 0
    # Point-in-time, not a sum: the shared filter cache's footprint,
    # walked when QueryService.stats() takes the snapshot — never per
    # statement (it visits every cached filter and each of its memos).
    filter_bytes_resident: int = 0
    total_filter_build_seconds: float = 0.0
    # Resilience aggregates.  ``failures`` / ``timeouts`` are counted
    # by the service when an execution raises (no ServiceMetrics is
    # folded for those); ``degradations`` and ``retries`` fold from the
    # per-query records of answers that did come back.
    failures: int = 0
    timeouts: int = 0
    degradations: int = 0
    retries: int = 0
    # Latency/row histogram snapshots (repro.obs.ServiceTelemetry),
    # attached by QueryService.stats() at snapshot time — never folded,
    # the telemetry registry is the live aggregate.
    telemetry: dict = dataclasses.field(default_factory=dict)

    def fold(self, metrics: ServiceMetrics) -> None:
        self.queries += 1
        if metrics.plan_cache_hit:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
        self.filter_cache_hits += metrics.filter_cache_hits
        self.filter_cache_misses += metrics.filter_cache_misses
        self.total_optimize_seconds += metrics.optimize_seconds
        self.total_execute_seconds += metrics.execute_seconds
        self.total_wall_seconds += metrics.wall_seconds
        self.total_metered_cpu += metrics.metered_cpu
        self.total_rows_copied += metrics.rows_copied
        self.total_bytes_gathered += metrics.bytes_gathered
        self.dictionary_hits += metrics.dictionary_hits
        self.dictionary_misses += metrics.dictionary_misses
        self.total_morsels_pruned += metrics.morsels_pruned
        self.total_rows_skipped += metrics.rows_skipped
        self.total_selection_bytes += metrics.selection_bytes
        self.total_filter_build_seconds += metrics.filter_build_seconds
        if metrics.degraded:
            self.degradations += 1
        self.retries += metrics.retries

    @property
    def plan_cache_hit_rate(self) -> float:
        if not self.queries:
            return 0.0
        return self.plan_cache_hits / self.queries

    def snapshot(self) -> "ServiceStats":
        return dataclasses.replace(self)
