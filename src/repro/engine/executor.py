"""Plan executor.

Recursively evaluates a physical plan tree.  For every hash join the
*build* child executes first; if the join creates a bitvector filter it
is registered before the *probe* child runs, so every application site
(which Algorithm 1 guarantees lies inside the probe subtree) finds its
filter populated — the same scheduling property real engines rely on.
"""

from __future__ import annotations

import dataclasses
import time
from typing import NamedTuple

import numpy as np

from repro.engine.metrics import (
    ExecutionMetrics,
    OPERATOR_KIND_JOIN,
    OPERATOR_KIND_LEAF,
    OPERATOR_KIND_OTHER,
)
from repro.engine.context import ExecutionContext
from repro.engine.join_kernel import identity_to_none, join_codes, join_matcher
from repro.engine.parallel import run_morsel_tasks
from repro.engine.relation import Relation
from repro.errors import ExecutionError, MorselTaskError, ResilienceError
from repro.testing.faults import fault_point
from repro.expr.eval import (
    DictionaryLookup,
    evaluate_predicate,
    lower_to_dictionaries,
)
from repro.expr.expressions import ColumnRef, referenced_columns
from repro.filters.base import BitvectorFilter, compute_key_bounds
from repro.filters.registry import FILTER_KINDS, create_filter
from repro.plan.nodes import (
    AggregateNode,
    BitvectorDef,
    FilterNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    TopKNode,
)
from repro.query.spec import OUTPUT_ALIAS
from repro.storage.database import Database
from repro.storage.partition import (
    DEFAULT_MORSEL_ROWS,
    MIN_PARALLEL_ROWS,
    AdaptiveMorselSizer,
    morsel_ranges,
)
from repro.storage.zonemaps import (
    filter_prune_flags,
    predicate_band,
    scan_morsel_decisions,
)
from repro.util.keycodes import (
    ColumnDictionary,
    code_domain,
    combine_codes,
    dense_table_worthwhile,
    joint_codes_and_domain,
    radices_fit,
    single_table_codes,
    split_codes,
)

# Serial-below-this threshold, re-exported under the historical name so
# tests can monkeypatch the executor's copy (the storage layer owns the
# canonical value — the estimator's build-parallelism discount reads it
# from there).
_MIN_PARALLEL_ROWS = MIN_PARALLEL_ROWS


@dataclasses.dataclass
class ExecutionResult:
    """Result of executing one plan: output + metrics."""

    relation: Relation
    aggregates: dict[str, np.ndarray] | None
    metrics: ExecutionMetrics

    @property
    def num_rows(self) -> int:
        if self.aggregates is not None:
            first = next(iter(self.aggregates.values()), None)
            return 0 if first is None else len(first)
        return self.relation.num_rows

    def scalar(self, label: str) -> object:
        """Value of a single-row aggregate output column."""
        if self.aggregates is None:
            raise ExecutionError("plan has no aggregate output")
        values = self.aggregates[label]
        if len(values) != 1:
            raise ExecutionError(f"aggregate {label!r} is not scalar")
        return values[0]


class Executor:
    """Executes physical plans against a database.

    Parameters
    ----------
    database:
        Table source.
    filter_kind:
        Which bitvector implementation joins create: ``"exact"``
        (default — the no-false-positives filter the theory assumes),
        ``"bloom"``, or ``"blocked_bloom"``.
    filter_options:
        Extra keyword arguments for the filter constructor (e.g.
        ``bits_per_key``).
    filter_cache:
        Optional :class:`~repro.filters.cache.BitvectorFilterCache`
        shared across executions; joins whose build side is a bare scan
        reuse previously built filters instead of rebuilding them.
    parallelism:
        Worker count for morsel-driven intra-query parallelism.  The
        default 1 keeps execution on the calling thread with exactly
        the serial code path (byte-identical results, seed benchmarks
        stay valid).  At N > 1 the probe-side work of each pipeline —
        predicate evaluation, bitvector filter application, hash-join
        probing, and large column gathers — runs per-morsel on the
        shared worker pool; build sides (hash tables, filters) are
        built once and shared immutably, so probes are lock-free.
    morsel_rows:
        Target rows per morsel when splitting relations for the pool.
    adaptive_morsels:
        Resize morsels mid-pipeline from observed per-morsel wall time
        and selectivity (see
        :class:`~repro.storage.partition.AdaptiveMorselSizer`): each
        parallel region's first few morsels run at ``morsel_rows``, and
        the remaining rows are re-split — small morsels for selective,
        skew-prone pipelines, large ones for cheap scans.  Applies to
        regions over intermediate relations (bitvector applications,
        hash-join probes); base-table scans keep the configured shape
        so zone maps stay aligned with the dispatched ranges.  Sizing
        moves range boundaries only, never which rows a region covers,
        so output is byte-identical either way.  Ignored (no effect)
        at ``parallelism=1``.
    zone_maps:
        Consult per-morsel min/max synopses (see
        :mod:`repro.storage.zonemaps`) before dispatching morsel work:
        scan predicates, bitvector filter applications, and hash-join
        probes skip whole morsels whose value bounds provably cannot
        qualify.  Pruning is conservative, so output stays
        byte-identical at every parallelism level; ``zone_maps=False``
        preserves the exact unpruned code path.
    """

    def __init__(
        self,
        database: Database,
        filter_kind: str = "exact",
        filter_options: dict | None = None,
        adaptive_filter_order: bool = False,
        filter_cache=None,
        parallelism: int = 1,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        adaptive_morsels: bool = True,
        zone_maps: bool = True,
    ) -> None:
        self._database = database
        self._filter_kind = filter_kind
        self._filter_options = dict(filter_options or {})
        # LIP-style runtime reordering of stacked filters (see
        # repro.engine.lip); off by default to match the paper's engine.
        self._adaptive_filter_order = adaptive_filter_order
        self._filter_cache = filter_cache
        self._parallelism = max(int(parallelism), 1)
        self._morsel_rows = max(int(morsel_rows), 1)
        self._parallel = self._parallelism > 1
        self._adaptive_morsels = bool(adaptive_morsels) and self._parallel
        self._zone_maps = bool(zone_maps)

    @property
    def parallelism(self) -> int:
        return self._parallelism

    @property
    def morsel_rows(self) -> int:
        return self._morsel_rows

    @property
    def adaptive_morsels(self) -> bool:
        return self._adaptive_morsels

    @property
    def zone_maps(self) -> bool:
        return self._zone_maps

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(
        self,
        plan: PlanNode,
        predicate_overrides: dict[str, object] | None = None,
        context: ExecutionContext | None = None,
        tracer=None,
    ) -> ExecutionResult:
        """Execute a plan.

        ``predicate_overrides`` maps a relation alias to the predicate
        its scan should evaluate *instead of* the one baked into the
        plan — how the service layer re-executes a cached plan with
        fresh constants without mutating the shared tree.  All per-
        execution state lives in locals, so one executor may run the
        same plan concurrently from many threads.

        ``context`` arms cooperative resilience enforcement (see
        :mod:`repro.engine.context`): the deadline and cancel token are
        checked at plan-node and morsel-task boundaries, the resource
        budget against the live ``rows_copied`` / ``bytes_gathered``
        counters after every parallel barrier.  A tripped limit raises
        the matching :class:`~repro.errors.ResilienceError` with the
        partial :class:`ExecutionMetrics` attached — and because every
        abort happens *between* tasks, the shared pool and any attached
        filter cache stay clean for the next query.  ``None`` (the
        default) is the zero-overhead path.

        ``tracer`` arms structured tracing (see :mod:`repro.obs`): plan
        nodes, morsel tasks, filter builds, and zone-pruning outcomes
        record spans/events, and per-node inclusive wall time lands in
        ``NodeMetrics.wall_seconds``.  ``None`` (the default) keeps
        every instrumented site a single attribute test; tracing never
        changes what is computed, so results are byte-identical on or
        off.
        """
        metrics = ExecutionMetrics()
        if tracer is not None:
            metrics.tracer = tracer
        if context is not None and context.enabled:
            metrics.context = context
            try:
                return self._execute_guarded(
                    plan, predicate_overrides, metrics
                )
            except ResilienceError as exc:
                if exc.partial_metrics is None:
                    exc.partial_metrics = metrics
                if tracer is not None:
                    # The abort cause as an instant event under whatever
                    # span was open when the limit tripped.
                    tracer.event(
                        "resilience.abort",
                        cause=type(exc).__name__,
                        detail=str(exc),
                    )
                raise
        return self._execute_guarded(plan, predicate_overrides, metrics)

    def _execute_guarded(
        self,
        plan: PlanNode,
        predicate_overrides: dict[str, object] | None,
        metrics: ExecutionMetrics,
    ) -> ExecutionResult:
        if metrics.context is not None:
            metrics.context.check()
        if self._adaptive_morsels:
            # One sizer per execution (pipeline): observations from this
            # plan's morsels resize only this plan's later regions, and
            # concurrent executions of one executor never share state.
            metrics.morsel_sizer = AdaptiveMorselSizer(self._morsel_rows)
        filters: dict[int, BitvectorFilter] = {}
        overrides = predicate_overrides or {}
        facts = _plan_facts(plan, overrides)
        aggregates: dict[str, np.ndarray] | None = None
        if isinstance(plan, TopKNode):
            inner = plan.child
            if isinstance(inner, AggregateNode):
                relation = self._run(
                    inner.child, metrics, filters, facts, overrides
                )
                aggregates = self._finalize(
                    "aggregate", inner, metrics,
                    lambda: self._aggregate(inner, relation, metrics),
                )
                aggregates = self._finalize(
                    "topk", plan, metrics,
                    lambda: self._topk_aggregates(plan, aggregates, metrics),
                )
                aggregates = _drop_hidden(inner, aggregates)
            else:
                relation = self._run(inner, metrics, filters, facts, overrides)
                relation = self._finalize(
                    "topk", plan, metrics,
                    lambda: self._topk_relation(plan, relation, metrics),
                )
        elif isinstance(plan, AggregateNode):
            relation = self._run(plan.child, metrics, filters, facts, overrides)
            aggregates = self._finalize(
                "aggregate", plan, metrics,
                lambda: self._aggregate(plan, relation, metrics),
            )
            aggregates = _drop_hidden(plan, aggregates)
        else:
            relation = self._run(plan, metrics, filters, facts, overrides)
        if metrics.context is not None:
            # Final budget check: gathers done after the last plan-node
            # checkpoint (e.g. the aggregate's measure-column gather)
            # still count — an over-budget result is never returned.
            # The deadline is deliberately *not* re-checked here: the
            # answer is already computed, so failing it would discard
            # finished work for no resource win.
            metrics.context.check_budget(metrics)
        return ExecutionResult(relation=relation, aggregates=aggregates,
                               metrics=metrics)

    # ------------------------------------------------------------------
    # Node dispatch
    # ------------------------------------------------------------------

    @staticmethod
    def _checkpoint(metrics: ExecutionMetrics) -> None:
        """Cooperative resilience checkpoint (deadline, cancel, budget).

        Free when no context is armed: one attribute load and a None
        test — the property the warm-path overhead bound in
        ``BENCH_robustness.json`` is measured against.
        """
        context = metrics.context
        if context is not None:
            context.checkpoint(metrics)

    def _finalize(self, name: str, node: PlanNode,
                  metrics: ExecutionMetrics, fn):
        """Run one root-finalize step (aggregate / top-k) under a span.

        Disarmed, this is the bare call; armed, the step gets a span and
        its inclusive wall time lands on the node's metrics record.
        """
        tracer = metrics.tracer
        if tracer is None:
            return fn()
        span = tracer.span(name, node_id=node.node_id, label=node.label)
        with span:
            result = fn()
        metrics.add_wall(node.node_id, span.duration)
        return result

    def _run(
        self,
        node: PlanNode,
        metrics: ExecutionMetrics,
        filters: dict[int, BitvectorFilter],
        facts: _PlanFacts,
        overrides: dict[str, object],
    ) -> Relation:
        tracer = metrics.tracer
        if tracer is None:
            return self._dispatch(node, metrics, filters, facts, overrides)
        span = tracer.span(
            "node", node_id=node.node_id, label=node.label
        )
        with span:
            relation = self._dispatch(
                node, metrics, filters, facts, overrides
            )
            span.set(rows_out=relation.num_rows)
        # Inclusive (children counted): the same convention EXPLAIN
        # ANALYZE reports in most engines, taken from the span's clock.
        metrics.add_wall(node.node_id, span.duration)
        return relation

    def _dispatch(
        self,
        node: PlanNode,
        metrics: ExecutionMetrics,
        filters: dict[int, BitvectorFilter],
        facts: _PlanFacts,
        overrides: dict[str, object],
    ) -> Relation:
        self._checkpoint(metrics)
        if isinstance(node, ScanNode):
            return self._scan(node, metrics, filters, facts, overrides)
        if isinstance(node, HashJoinNode):
            return self._hash_join(node, metrics, filters, facts, overrides)
        if isinstance(node, FilterNode):
            return self._residual_filter(node, metrics, filters, facts, overrides)
        if isinstance(node, (AggregateNode, TopKNode)):
            raise ExecutionError(
                f"{type(node).__name__} is only valid at the plan root"
            )
        raise ExecutionError(f"cannot execute node {node.label}")

    # ------------------------------------------------------------------
    # Morsel parallelism
    # ------------------------------------------------------------------

    def _ranges(self, num_rows: int) -> list[tuple[int, int]] | None:
        """Morsel ranges for a parallel region, or None to stay serial."""
        if not self._parallel or num_rows < _MIN_PARALLEL_ROWS:
            return None
        ranges = morsel_ranges(
            num_rows, self._morsel_rows, min_morsels=self._parallelism
        )
        return ranges if len(ranges) >= 2 else None

    def _map_morsels(self, metrics: ExecutionMetrics,
                     ranges: list[tuple[int, int]], fn,
                     sizer: AdaptiveMorselSizer | None = None,
                     out_rows=None) -> list:
        """Run ``fn(start, stop, worker_metrics)`` per morsel (barrier).

        Results come back in morsel order, so concatenating them
        reproduces the serial row order exactly.  Each worker gets a
        private :class:`ExecutionMetrics`; the flat counters are merged
        into ``metrics`` after the barrier.

        With a ``sizer``, each task is wall-clocked on its worker and
        the observations (rows in, seconds, ``out_rows(result)``
        surviving rows) are folded into the sizer on the main thread
        after the barrier — the feedback adaptive sizing runs on.

        With an armed :class:`~repro.engine.context.ExecutionContext`
        (captured from ``metrics`` — worker metrics stay bare), every
        task checks the deadline/cancel token before touching its
        morsel, the region's cancel token short-circuits siblings after
        the first failure, and non-policy worker exceptions are wrapped
        as :class:`~repro.errors.MorselTaskError` with the query name
        and the morsel's row range.  The budget is re-checked against
        the merged counters after the barrier.
        """
        workers = [ExecutionMetrics() for _ in ranges]
        context = metrics.context
        tracer = metrics.tracer
        if tracer is not None:
            # The parent id is captured here, on the dispatching thread,
            # so each worker's "morsel" span hangs under the plan-node
            # (or filter-build) span that fanned the region out.
            parent = tracer.current_span_id()

            def fn(start: int, stop: int, worker: ExecutionMetrics,
                   _fn=fn, _parent=parent):
                with tracer.span(
                    "morsel", parent=_parent, rows_in=stop - start
                ) as span:
                    result = _fn(start, stop, worker)
                    rows = _result_rows(result)
                    if rows is not None:
                        span.set(rows_out=rows)
                    if worker.morsels_pruned or worker.rows_skipped:
                        span.set(
                            morsels_pruned=worker.morsels_pruned,
                            rows_skipped=worker.rows_skipped,
                        )
                return result
        if sizer is None:
            inner = fn
        else:
            def inner(start: int, stop: int, worker: ExecutionMetrics):
                began = time.perf_counter()
                result = fn(start, stop, worker)
                return result, time.perf_counter() - began

        tasks = [
            _morsel_task(inner, start, stop, worker, context)
            for (start, stop), worker in zip(ranges, workers)
        ]
        results = run_morsel_tasks(
            self._parallelism, tasks,
            cancel_token=None if context is None else context.cancel_token,
        )
        if sizer is not None:
            unwrapped = []
            for (start, stop), (result, seconds) in zip(ranges, results):
                sizer.observe(
                    stop - start, seconds,
                    out_rows(result) if out_rows is not None else None,
                )
                unwrapped.append(result)
            results = unwrapped
        for worker in workers:
            metrics.merge_counters(worker)
        if context is not None:
            context.checkpoint(metrics)
        return results

    def _adaptive_map(self, metrics: ExecutionMetrics, num_rows: int,
                      task, out_rows=None) -> list | None:
        """Morsel-map ``task`` over ``[0, num_rows)``, or None (serial).

        The adaptive-sizing dispatcher for regions over *intermediate*
        relations: when the execution carries a morsel sizer and it is
        not yet calibrated, the first few morsels run at the configured
        ``morsel_rows`` and the remaining rows are re-split at the size
        their observations propose; calibrated regions split at the
        proposal outright.  Ranges always cover ``[0, num_rows)`` in
        order regardless of sizing, so concatenated results equal the
        statically-sized (and the serial) computation byte for byte.
        """
        if not self._parallel or num_rows < _MIN_PARALLEL_ROWS:
            return None
        sizer = metrics.morsel_sizer
        target = sizer.morsel_rows() if sizer is not None else self._morsel_rows
        ranges = morsel_ranges(num_rows, target, min_morsels=self._parallelism)
        if len(ranges) < 2:
            return None
        if sizer is None or sizer.calibrated:
            return self._map_morsels(
                metrics, ranges, task, sizer=sizer, out_rows=out_rows
            )
        # Calibration phase: enough morsels to feed every worker once,
        # then resize the remainder from what they observed.
        head = ranges[: max(self._parallelism, sizer.sample_morsels)]
        results = self._map_morsels(
            metrics, head, task, sizer=sizer, out_rows=out_rows
        )
        rest_start = head[-1][1]
        if rest_start < num_rows:
            rest = [
                (start + rest_start, stop + rest_start)
                for start, stop in morsel_ranges(
                    num_rows - rest_start, sizer.morsel_rows(),
                    min_morsels=self._parallelism,
                )
            ]
            results.extend(
                self._map_morsels(
                    metrics, rest, task, sizer=sizer, out_rows=out_rows
                )
            )
        return results

    def _parallel_gather(self, base: np.ndarray, selection,
                         cancel_token=None) -> np.ndarray | None:
        """Morsel-wise column gather hook installed on scan relations.

        Splits ``base[selection]`` across the pool, each worker writing
        its disjoint output range (``np.take`` releases the GIL for
        plain dtypes).  Returns None when the gather is too small to be
        worth dispatching, letting :class:`Relation` gather inline.
        """
        ranges = self._ranges(len(selection))
        if ranges is None:
            return None
        out = np.empty(len(selection), dtype=base.dtype)

        def task(start: int, stop: int) -> None:
            np.take(base, selection[start:stop], out=out[start:stop])

        run_morsel_tasks(
            self._parallelism,
            [(lambda s=start, e=stop: task(s, e)) for start, stop in ranges],
            cancel_token=cancel_token,
        )
        return out

    def _gather_hook(self, metrics: ExecutionMetrics):
        """The parallel-gather hook for this execution's relations.

        Binds the execution's cancel token (when a context is armed) so
        gathers dispatched from inside :class:`Relation` short-circuit
        with the rest of the query; derived relations inherit the bound
        hook through ``gather``/``merged_with``.
        """
        if not self._parallel:
            return None
        context = metrics.context
        if context is None:
            return self._parallel_gather
        token = context.cancel_token
        return lambda base, selection: self._parallel_gather(
            base, selection, token
        )

    def _scan_ranges(self, table) -> list[tuple[int, int]] | None:
        """Morsels of a base table, via the storage-layer partitioning
        (cached on the immutable table) rather than an ad-hoc split.
        Delegates to :meth:`_table_ranges` — the same shape zone maps
        are keyed by, which the pruning soundness argument relies on."""
        if not self._parallel or table.num_rows < _MIN_PARALLEL_ROWS:
            return None
        ranges = self._table_ranges(table)
        if len(ranges) < 2:
            return None
        return ranges

    def _parallel_selection(self, relation: Relation,
                            metrics: ExecutionMetrics, mask_fn,
                            ranges: list[tuple[int, int]] | None = None,
                            ) -> np.ndarray | None:
        """Surviving-row selection computed per morsel, or None (serial).

        ``mask_fn(view)`` returns the boolean keep-mask of one morsel
        view; the concatenated ``flatnonzero`` offsets equal the serial
        ``np.flatnonzero(mask)`` over the whole relation, so the
        resulting gather is byte-identical to the serial path.

        Explicit ``ranges`` (base-table scans — the shape zone maps are
        keyed by) dispatch as given; without them the region is split by
        the adaptive dispatcher (:meth:`_adaptive_map`).
        """

        def task(start: int, stop: int, worker: ExecutionMetrics) -> np.ndarray:
            view = relation.range_view(start, stop, counters=worker)
            return np.flatnonzero(mask_fn(view)) + start

        if ranges is None:
            parts = self._adaptive_map(
                metrics, relation.num_rows, task, out_rows=len
            )
            if parts is None:
                return None
            return np.concatenate(parts)
        return np.concatenate(self._map_morsels(metrics, ranges, task))

    # ------------------------------------------------------------------
    # Zone-map pruning (see repro.storage.zonemaps)
    # ------------------------------------------------------------------

    def _table_ranges(self, table) -> list[tuple[int, int]]:
        """The morsel partitioning zone maps are keyed by: the same
        shape the parallel scan dispatches (``_scan_ranges``)."""
        return [
            (part.start, part.stop)
            for part in table.morsels(
                self._morsel_rows, min_morsels=self._parallelism
            )
        ]

    def _zone_map(self, table_name: str, column: str):
        return self._database.zone_map(
            table_name, column, self._morsel_rows, self._parallelism
        )

    @staticmethod
    def _split_pruned(metrics: ExecutionMetrics,
                      ranges: list[tuple[int, int]],
                      pruned: list[bool]) -> list[tuple[int, int]]:
        """Account the pruned morsels into ``metrics``; return the kept."""
        kept = []
        pruned_count = skipped = 0
        for row_range, flag in zip(ranges, pruned):
            if flag:
                pruned_count += 1
                skipped += row_range[1] - row_range[0]
            else:
                kept.append(row_range)
        metrics.morsels_pruned += pruned_count
        metrics.rows_skipped += skipped
        if metrics.tracer is not None and pruned_count:
            metrics.tracer.event(
                "zone.prune",
                morsels_pruned=pruned_count,
                rows_skipped=skipped,
            )
        return kept

    def _scan_selection_with_zones(
        self,
        relation: Relation,
        ranges: list[tuple[int, int]],
        pruned: list[bool],
        accepted: list[bool],
        metrics: ExecutionMetrics,
        mask_fn,
    ) -> np.ndarray:
        """Scan selection with zone decisions applied per morsel.

        Pruned morsels contribute nothing; accepted morsels (the
        constant-morsel short-circuit) contribute every offset without
        evaluating the predicate — both count their rows under
        ``rows_skipped``, because that is work the kernels never did.
        Undecided morsels evaluate normally (on the pool when big
        enough).  Pieces concatenate in morsel order, reproducing the
        whole-relation ``flatnonzero`` exactly.
        """
        eval_ranges = []
        pruned_count = accepted_count = skipped = 0
        for row_range, is_pruned, is_accepted in zip(ranges, pruned, accepted):
            if is_pruned:
                pruned_count += 1
                skipped += row_range[1] - row_range[0]
            elif is_accepted:
                accepted_count += 1
                skipped += row_range[1] - row_range[0]
            else:
                eval_ranges.append(row_range)
        metrics.morsels_pruned += pruned_count
        metrics.morsels_short_circuited += accepted_count
        metrics.rows_skipped += skipped
        if metrics.tracer is not None and skipped:
            metrics.tracer.event(
                "zone.prune",
                morsels_pruned=pruned_count,
                morsels_short_circuited=accepted_count,
                rows_skipped=skipped,
            )
        evaluated = iter(
            self._selection_parts_over_ranges(
                relation, eval_ranges, metrics, mask_fn
            )
            if eval_ranges
            else ()
        )
        pieces: list[np.ndarray] = []
        for (start, stop), is_pruned, is_accepted in zip(
            ranges, pruned, accepted
        ):
            if is_pruned:
                continue
            if is_accepted:
                pieces.append(np.arange(start, stop, dtype=np.int64))
            else:
                pieces.append(next(evaluated))
        if not pieces:
            return np.array([], dtype=np.int64)
        return np.concatenate(pieces)

    def _selection_over_ranges(self, relation: Relation,
                               ranges: list[tuple[int, int]],
                               metrics: ExecutionMetrics,
                               mask_fn) -> np.ndarray:
        """Surviving-row selection evaluated over the kept morsels only.

        The pruned counterpart of :meth:`_parallel_selection`: morsels
        absent from ``ranges`` were proven empty, so concatenating the
        kept morsels' offsets still reproduces the serial whole-relation
        ``flatnonzero`` exactly.  Dispatches to the pool when the kept
        work is big enough, else evaluates inline (also the serial
        executor's path — pruning works at any parallelism).
        """
        if not ranges:
            return np.array([], dtype=np.int64)
        return np.concatenate(
            self._selection_parts_over_ranges(relation, ranges, metrics, mask_fn)
        )

    def _selection_parts_over_ranges(self, relation: Relation,
                                     ranges: list[tuple[int, int]],
                                     metrics: ExecutionMetrics,
                                     mask_fn) -> list[np.ndarray]:
        """Per-range surviving-row offsets, in range order (the body of
        :meth:`_selection_over_ranges`, exposed so the constant-morsel
        short-circuit can interleave unevaluated ranges)."""

        def task(start: int, stop: int,
                 worker: ExecutionMetrics) -> np.ndarray:
            view = relation.range_view(start, stop, counters=worker)
            return np.flatnonzero(mask_fn(view)) + start

        total = sum(stop - start for start, stop in ranges)
        if self._parallel and len(ranges) >= 2 and total >= _MIN_PARALLEL_ROWS:
            return self._map_morsels(metrics, ranges, task)
        return [task(start, stop, metrics) for start, stop in ranges]

    def _scan_zone_pruning(
        self, alias: str, table, predicate
    ) -> tuple[list[tuple[int, int]], list[bool], list[bool]] | None:
        """Morsels the scan predicate provably rejects — or accepts.

        Returns ``(ranges, pruned_flags, accepted_flags)`` when at
        least one morsel can skip row-wise evaluation in either
        direction, else ``None`` (callers then run the unpruned path
        unchanged).  ``pruned`` morsels contribute no rows; ``accepted``
        morsels (the constant-morsel short-circuit — every row provably
        satisfies the predicate) contribute *all* their rows, also
        without evaluating.  Zone maps are fetched lazily per
        referenced column, so predicates the interval logic cannot use
        (LIKE, NOT) never trigger a synopsis build.
        """
        if not self._zone_maps or table.num_rows == 0:
            return None
        if any(a != alias for a, _ in referenced_columns(predicate)):
            return None
        ranges = self._table_ranges(table)
        if not ranges:
            return None
        pruned, accepted = scan_morsel_decisions(
            predicate, alias,
            lambda column: self._zone_map(table.name, column),
            len(ranges),
        )
        if not any(pruned) and not any(accepted):
            return None
        return ranges, pruned, accepted

    def _scan_band_search(
        self, alias: str, table, predicate, metrics: ExecutionMetrics
    ) -> tuple[int, int] | None:
        """Clustered-band fast path: the scan's row band, or ``None``.

        When the predicate is one value band on a column the zone map
        proves globally sorted (no NaN), the surviving rows are exactly
        one contiguous range — two binary searches replace per-morsel
        min/max checks *and* every row-wise predicate evaluation.  The
        searched bounds follow numpy comparison order, the same total
        order the sortedness check verified, so the band equals the
        serial ``flatnonzero`` selection exactly (byte-identical
        results at any parallelism).  Gated on zone maps being enabled:
        with them off, executions must report zero skipped rows.
        """
        if not self._zone_maps or table.num_rows == 0:
            return None
        band = predicate_band(predicate, alias)
        if band is None:
            return None
        column, low, low_inclusive, high, high_inclusive = band
        zone = self._zone_map(table.name, column)
        if zone is None or not zone.sorted_ascending:
            return None
        values = table.column(column)
        try:
            lo = 0 if low is None else int(np.searchsorted(
                values, low, side="left" if low_inclusive else "right"
            ))
            hi = len(values) if high is None else int(np.searchsorted(
                values, high, side="right" if high_inclusive else "left"
            ))
        except (TypeError, ValueError):
            # Literal not comparable against the column under numpy's
            # order; fall back to normal evaluation.
            return None
        hi = max(lo, hi)
        # Every morsel was decided by the two searches, and every row —
        # kept or not — avoided row-wise evaluation: same accounting as
        # the constant-morsel short-circuit (skipped work, not skipped
        # output).
        metrics.morsels_band_searched += len(self._table_ranges(table))
        metrics.rows_skipped += table.num_rows
        if metrics.tracer is not None:
            metrics.tracer.event(
                "scan.band_search",
                table=table.name,
                column=column,
                band_rows=hi - lo,
            )
        return lo, hi

    def _bitvector_zone_pruning(
        self,
        definitions: list[BitvectorDef],
        relation: Relation,
        filters: dict[int, BitvectorFilter],
    ) -> tuple[list[tuple[int, int]], list[bool], dict[int, float]] | None:
        """Zone-map pruning for a stack of applied bitvector filters.

        Only relations whose probe key columns are whole base-table
        columns (identity scans — the fact-table case the paper's
        filters target) can be pruned: zone maps describe base row
        ranges.  Because stacked filters are conjunctive, a morsel
        pruned by *any* filter in the stack contributes nothing to the
        stack's output, so one combined keep/prune partition serves the
        whole application sequence.  Returns ``(ranges, pruned_flags,
        skip_fraction_by_filter_id)``, or ``None`` when nothing can be
        pruned.
        """
        if not self._zone_maps or relation.num_rows == 0:
            return None
        table_name: str | None = None
        per_definition: list[tuple[BitvectorDef, list[str]] | None] = []
        for definition in definitions:
            columns: list[str] | None = []
            for alias, column in definition.probe_keys:
                source = relation.base_source(alias, column)
                if source is None or source[2] is not None or (
                    table_name is not None and source[0] != table_name
                ):
                    columns = None
                    break
                table_name = source[0]
                columns.append(source[1])
            per_definition.append(
                (definition, columns) if columns is not None else None
            )
        if table_name is None:
            return None
        table = self._database.table(table_name)
        if table.num_rows != relation.num_rows:
            return None
        ranges = self._table_ranges(table)
        if not ranges:
            return None
        combined = [False] * len(ranges)
        skip_fractions: dict[int, float] = {}
        zones: dict[str, object] = {}
        for entry in per_definition:
            if entry is None:
                continue
            definition, columns = entry
            bitvector = filters.get(definition.filter_id)
            if bitvector is None:
                continue  # missing filters fail loudly in the apply loop
            if bitvector.num_keys == 0:
                # Nothing was inserted; contains() is all-False and
                # every morsel is provably empty.
                pruned = [True] * len(ranges)
            else:
                key_bounds = bitvector.key_bounds()
                if key_bounds is None or all(b is None for b in key_bounds):
                    skip_fractions[definition.filter_id] = 0.0
                    continue
                for column in columns:
                    if column not in zones:
                        zones[column] = self._zone_map(table_name, column)
                column_zones = [zones[column] for column in columns]
                pruned = filter_prune_flags(
                    key_bounds, column_zones, len(ranges)
                )
            skipped_rows = 0
            for index, flag in enumerate(pruned):
                if flag:
                    combined[index] = True
                    skipped_rows += ranges[index][1] - ranges[index][0]
            skip_fractions[definition.filter_id] = (
                skipped_rows / relation.num_rows
            )
        if not any(combined):
            return None
        return ranges, combined, skip_fractions

    def _join_zone_pruning(
        self,
        node: HashJoinNode,
        build_rel: Relation,
        probe_rel: Relation,
        filters: dict[int, BitvectorFilter],
    ) -> tuple[list[tuple[int, int]], list[bool]] | None:
        """Probe morsels whose key range matches no build-side key.

        The join-level analogue of bitvector pruning: even when the
        optimizer deployed no filter on this join, the build side's key
        bounds let the executor skip probe morsels that cannot produce
        a single match.  Requires the probe keys to be whole base-table
        columns (see :meth:`_bitvector_zone_pruning`).
        """
        if not self._zone_maps:
            return None
        table_name: str | None = None
        probe_columns: list[str] = []
        for alias, column in node.probe_keys:
            source = probe_rel.base_source(alias, column)
            if source is None or source[2] is not None or (
                table_name is not None and source[0] != table_name
            ):
                return None
            table_name = source[0]
            probe_columns.append(source[1])
        if table_name is None:
            return None
        table = self._database.table(table_name)
        if table.num_rows != probe_rel.num_rows:
            return None
        bounds = self._build_key_bounds(node, build_rel, filters)
        if bounds is None or all(b is None for b in bounds):
            return None
        ranges = self._table_ranges(table)
        if not ranges:
            return None
        zones = [
            self._zone_map(table_name, column) for column in probe_columns
        ]
        pruned = filter_prune_flags(bounds, zones, len(ranges))
        if not any(pruned):
            return None
        return ranges, pruned

    def _build_key_bounds(
        self,
        node: HashJoinNode,
        build_rel: Relation,
        filters: dict[int, BitvectorFilter],
    ) -> list[tuple | None] | None:
        """Bounds of the build side's key columns, as cheaply as possible.

        Preference order: the bounds the join's own bitvector filter
        already holds (free — its dictionaries are sorted), else a
        min/max pass over identity build columns (zero-copy views of a
        dimension table).  Filtered build sides without a filter would
        force a gather just to compute bounds, so they report ``None``.
        """
        definition = node.created_bitvector
        if definition is not None and tuple(definition.build_keys) == tuple(
            node.build_keys
        ):
            bitvector = filters.get(definition.filter_id)
            if bitvector is not None:
                return bitvector.key_bounds()
        columns: list[np.ndarray] = []
        for alias, column in node.build_keys:
            source = build_rel.base_source(alias, column)
            if source is None or source[2] is not None:
                return None
            columns.append(build_rel.column(alias, column))
        return compute_key_bounds(columns)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _scan(
        self,
        node: ScanNode,
        metrics: ExecutionMetrics,
        filters: dict[int, BitvectorFilter],
        facts: _PlanFacts,
        overrides: dict[str, object],
    ) -> Relation:
        record = metrics.node(node.node_id, node.label, OPERATOR_KIND_LEAF)
        table = self._database.table(node.table_name)
        names = sorted(facts.needed.get(node.alias, set()))
        columns = {(node.alias, name): table.column(name) for name in names}
        sources = {
            (node.alias, name): (node.table_name, name) for name in names
        }
        relation = Relation(
            columns, table.num_rows, sources=sources, counters=metrics,
            parallel_gather=self._gather_hook(metrics),
        )
        record.add("scan", table.num_rows)

        predicate = overrides.get(node.alias, node.predicate)
        if predicate is not None:
            relation = self._scan_predicate(
                node.alias, table, predicate, relation, metrics
            )

        relation = self._apply_bitvectors(
            node.applied_bitvectors, relation, record, filters, metrics
        )
        record.rows_out = relation.num_rows
        return relation

    def _scan_predicate(
        self,
        alias: str,
        table,
        predicate,
        relation: Relation,
        metrics: ExecutionMetrics,
    ) -> Relation:
        """The rows of a base-table scan that satisfy its predicate.

        Cheapest answer first: a value band on a sorted column is two
        binary searches; otherwise zone maps decide whole morsels where
        they can, and the undecided rows are evaluated — subtrees over
        one stored text column through their dictionary's truth table
        (:func:`lower_to_dictionaries`; one gather of stored codes per
        row), everything else over row values.  The node span records
        which: ``predicate=band|zones|dictionary|rows`` and, when a
        truth table was read, ``truth_table=built|hit``.
        """
        band = self._scan_band_search(alias, table, predicate, metrics)
        if band is not None:
            # The whole predicate is answered by the band: the
            # survivors are rows [lo, hi) of the base table, held
            # as a zero-copy slice view.
            if metrics.tracer is not None:
                metrics.tracer.annotate(predicate="band")
            return relation.narrow(*band)

        database = self._database
        lowered = lower_to_dictionaries(
            predicate,
            lambda alias, column: relation.column_dictionary(
                database, alias, column, text_only=True
            ),
        )

        def mask_fn(view):
            return evaluate_predicate(
                lowered, view.provider, view.num_rows, view.stored_codes
            )

        pruning = self._scan_zone_pruning(alias, table, predicate)
        if metrics.tracer is not None:
            lookups = [
                part for part in lowered.walk()
                if isinstance(part, DictionaryLookup)
            ]
            answered = {
                "predicate": "zones" if pruning is not None
                else "dictionary" if lookups else "rows"
            }
            if lookups:
                answered["truth_table"] = (
                    "built" if any(part.built for part in lookups) else "hit"
                )
            metrics.tracer.annotate(**answered)
        if pruning is not None:
            # Zone maps proved some morsels empty (pruned) or full
            # (accepted): evaluate the predicate only over the
            # undecided morsels, keep accepted morsels whole, and
            # interleave everything in morsel order — exactly the
            # unpruned selection.
            ranges, pruned, accepted = pruning
            selection = self._scan_selection_with_zones(
                relation, ranges, pruned, accepted, metrics, mask_fn
            )
            return relation.select_sorted(selection)
        selection = self._parallel_selection(
            relation, metrics, mask_fn, ranges=self._scan_ranges(table),
        )
        if selection is not None:
            return relation.select_sorted(selection)
        return relation.mask(mask_fn(relation))

    def _hash_join(
        self,
        node: HashJoinNode,
        metrics: ExecutionMetrics,
        filters: dict[int, BitvectorFilter],
        facts: _PlanFacts,
        overrides: dict[str, object],
    ) -> Relation:
        record = metrics.node(node.node_id, node.label, OPERATOR_KIND_JOIN)

        build_rel = self._run(node.build, metrics, filters, facts, overrides)
        record.add("build", build_rel.num_rows)

        if node.created_bitvector is not None:
            definition = node.created_bitvector

            def build_filter():
                # Build work (key-column gathers included) happens
                # inside the builder so a filter-cache hit gathers
                # nothing; the build phase is wall-clocked here so the
                # metrics see only constructions actually paid for.
                started = time.perf_counter()
                tracer = metrics.tracer
                if tracer is None:
                    built = self._build_join_filter(
                        definition, build_rel, metrics
                    )
                else:
                    with tracer.span(
                        "filter.build",
                        filter_id=definition.filter_id,
                        build_rows=build_rel.num_rows,
                        kind=self._filter_kind,
                    ):
                        built = self._build_join_filter(
                            definition, build_rel, metrics
                        )
                metrics.filter_build_seconds += time.perf_counter() - started
                return built

            cache_key = self._cacheable_filter_key(node, definition, overrides)
            if cache_key is not None:
                bitvector, was_cached = self._filter_cache.get_or_build(
                    cache_key, build_filter, tracer=metrics.tracer
                )
                filters[definition.filter_id] = bitvector
                if was_cached:
                    metrics.filter_cache_hits += 1
                else:
                    metrics.filter_cache_misses += 1
                    record.add("filter_insert", build_rel.num_rows)
            else:
                filters[definition.filter_id] = build_filter()
                record.add("filter_insert", build_rel.num_rows)

        probe_rel = self._run(node.probe, metrics, filters, facts, overrides)
        record.add("probe", probe_rel.num_rows)

        if node.node_id in facts.absorbable:
            bitvector = filters[node.created_bitvector.filter_id]
            if (
                not bitvector.may_have_false_positives
                and bitvector.has_distinct_keys
                and self._join_dictionaries(node, build_rel, probe_rel)
            ):
                # Absorbed: every probe row already passed this join's
                # own exact filter, so it has a build match, and the
                # build keys are distinct, so exactly one — the output
                # is the probe rows, in order.  Nothing above reads a
                # build-side column, so the probe relation *is* the
                # result.  Metered as the executed join would be: one
                # output tuple per probe row, and — its keys resolved
                # to stored dictionaries just above, as the executed
                # join's would — one dictionary-encoded key set, so
                # metered CPU and the dictionary counters compare
                # plans, not kernels.  (A join whose keys would take
                # the value fallback is simply executed.)
                if build_rel.num_rows and probe_rel.num_rows:
                    metrics.dictionary_hits += len(node.build_keys)
                record.add("output", probe_rel.num_rows)
                record.rows_out = probe_rel.num_rows
                if metrics.tracer is not None:
                    metrics.tracer.annotate(
                        elided=True,
                        absorbed_by=node.created_bitvector.filter_id,
                    )
                return probe_rel
        build_idx, probe_idx, indexes_probe = self._join_matches(
            node, build_rel, probe_rel, filters, metrics
        )
        result = probe_rel.merged_with(
            build_rel, probe_idx, build_idx, facts.live.get(node.node_id)
        )
        if metrics.tracer is not None:
            # "Why did this join take 10 ms": the side the matcher
            # indexed, the sides merged as they were, the aliases
            # nothing above reads.
            dropped = (build_rel.aliases() | probe_rel.aliases()) - result.aliases()
            metrics.tracer.annotate(
                indexed="probe" if indexes_probe else "build",
                identity={
                    (True, True): "both", (True, False): "build",
                    (False, True): "probe", (False, False): "none",
                }[build_idx is None, probe_idx is None],
                dropped=",".join(sorted(dropped)) or "-",
            )
        record.add("output", result.num_rows)
        record.rows_out = result.num_rows
        return result

    def _join_matches(
        self,
        node: HashJoinNode,
        build_rel: Relation,
        probe_rel: Relation,
        filters: dict[int, BitvectorFilter],
        metrics: ExecutionMetrics,
    ) -> tuple[np.ndarray | None, np.ndarray | None, bool]:
        """Matching row pairs of one hash join, as ``(build_idx,
        probe_idx, indexes_probe)``; an index of ``None`` is the identity.

        Keys are compared as int64 codes (equal codes <=> equal key
        tuples) by :mod:`repro.engine.join_kernel`, which also decides
        from the codes alone which side the match structure indexes
        (``indexes_probe``) and which streams through it.  Every key column that still carries base-table
        provenance is read as stored dictionary codes — an O(rows) code
        gather plus an O(distinct) domain translation, see
        :meth:`_dictionary_join_context` — and the matcher is built once
        and shared by whichever shape the streamed side takes: the kept
        probe morsels after zone pruning (skipped morsels were proven
        matchless), adaptive morsels on the pool, or the whole side
        inline.  Morsel results concatenate in morsel order (streamed
        offsets rebased), so all three emit the identical pair sequence.

        Without provenance (derived columns, float keys, mixed-radix
        overflow) both sides are factorized jointly, which needs them
        whole and therefore stays serial.
        """
        if build_rel.num_rows == 0 or probe_rel.num_rows == 0:
            empty = np.array([], dtype=np.int64)
            return empty, empty, False
        dictionaries = self._join_dictionaries(node, build_rel, probe_rel)
        if dictionaries is None:
            metrics.dictionary_misses += len(node.build_keys)
            return join_codes(
                *joint_codes_and_domain(
                    [build_rel.column(a, c) for a, c in node.build_keys],
                    [probe_rel.column(a, c) for a, c in node.probe_keys],
                )
            )
        metrics.dictionary_hits += len(node.build_keys)
        build_codes, encode_probe, domain = self._dictionary_join_context(
            node, build_rel, probe_rel, dictionaries
        )
        pruning = self._join_zone_pruning(node, build_rel, probe_rel, filters)
        kept = None if pruning is None else self._split_pruned(metrics, *pruning)

        def probe_codes() -> np.ndarray:
            if kept is None:
                return encode_probe(probe_rel)
            # Pruned morsels were proven matchless: absent, never read.
            codes = np.full(probe_rel.num_rows, -1, dtype=np.int64)
            for start, stop in kept:
                codes[start:stop] = encode_probe(
                    probe_rel.range_view(start, stop, counters=metrics)
                )
            return codes

        matcher, indexes_probe = join_matcher(
            build_codes, domain, probe_rel.num_rows, probe_codes
        )
        indexed_rel, streamed_rel = build_rel, probe_rel
        if indexes_probe:
            # The build side streams whole; pruning went into the index.
            indexed_rel, streamed_rel, kept = probe_rel, build_rel, None

        def task(start: int, stop: int, worker: ExecutionMetrics):
            indexed_idx, streamed_idx = matcher.match(
                build_codes[start:stop] if indexes_probe else encode_probe(
                    probe_rel.range_view(start, stop, counters=worker)
                )
            )
            if streamed_idx is None:
                return indexed_idx, np.arange(start, stop, dtype=np.int64)
            return indexed_idx, streamed_idx + start

        parts = None
        if kept is not None:
            if (
                self._parallel
                and len(kept) >= 2
                and sum(stop - start for start, stop in kept)
                >= _MIN_PARALLEL_ROWS
            ):
                parts = self._map_morsels(metrics, kept, task)
            else:
                # Too little survived pruning to be worth the pool.
                parts = [task(start, stop, metrics) for start, stop in kept]
        elif self._parallel and streamed_rel.num_rows >= _MIN_PARALLEL_ROWS:
            # Match-output counts feed the sizer's selectivity signal.
            parts = self._adaptive_map(
                metrics, streamed_rel.num_rows, task,
                out_rows=lambda part: len(part[1]),
            )
        if parts is None:
            indexed_idx, streamed_idx = matcher.match(
                build_codes if indexes_probe else encode_probe(probe_rel)
            )
        else:
            empty = [np.array([], dtype=np.int64)]
            indexed_idx = np.concatenate(empty + [part[0] for part in parts])
            streamed_idx = identity_to_none(
                np.concatenate(empty + [part[1] for part in parts]),
                streamed_rel.num_rows,
            )
        indexed_idx = identity_to_none(indexed_idx, indexed_rel.num_rows)
        if indexes_probe:
            return streamed_idx, indexed_idx, True
        return indexed_idx, streamed_idx, False

    def _join_dictionaries(
        self,
        node: HashJoinNode,
        build_rel: Relation,
        probe_rel: Relation,
    ) -> list[tuple[ColumnDictionary, ColumnDictionary]] | None:
        """Per key pair the ``(build, probe)`` stored dictionaries, or
        ``None`` when this join compares values instead.

        ``None`` means a key without table provenance, a float key
        (joint factorization matches NaN == NaN, ordered dictionaries
        cannot — both join paths must agree), or a radix product past
        int64.  Answered from provenance: no code is gathered here.
        """
        database = self._database
        pairs = []
        for (b_alias, b_col), (p_alias, p_col) in zip(
            node.build_keys, node.probe_keys
        ):
            probe = probe_rel.column_dictionary(database, p_alias, p_col)
            build = build_rel.column_dictionary(database, b_alias, b_col)
            if probe is None or build is None:
                return None
            pairs.append((build, probe))
        if not radices_fit([build.num_values for build, _ in pairs]):
            return None
        return pairs

    def _dictionary_join_context(
        self,
        node: HashJoinNode,
        build_rel: Relation,
        probe_rel: Relation,
        dictionaries: list[tuple[ColumnDictionary, ColumnDictionary]],
    ):
        """Shared dictionary-encoding context for one join.

        Returns ``(build_combined, encode_probe, domain)``: the build
        side's combined codes (computed once), a closure encoding the
        probe keys of any view of ``probe_rel`` — the whole relation or
        one morsel — and the combined code domain size.  Per-key
        artifacts (``dictionaries`` from :meth:`_join_dictionaries`,
        domain translations) are resolved once and shared read-only by
        every morsel, which is the "per-partition dictionary reuse" the
        partitioned storage layer is built around.
        """
        radices = [build_dict.num_values for build_dict, _ in dictionaries]
        build_combined = combine_codes(
            [
                build_rel.stored_codes(build_dict, alias, column)
                for (alias, column), (build_dict, _) in zip(
                    node.build_keys, dictionaries
                )
            ],
            radices,
        )
        domain = code_domain(radices)

        def encode_probe(view: Relation) -> np.ndarray:
            # Probe codes re-expressed in the build column's domain;
            # values absent from it become -1 (can never match).
            probe_code_columns = [
                probe_dict.translate_codes(
                    build_dict,
                    view.stored_codes(probe_dict, p_alias, p_col),
                )
                for (p_alias, p_col), (build_dict, probe_dict) in zip(
                    node.probe_keys, dictionaries
                )
            ]
            # Same radices as the build side: cannot overflow here.
            return combine_codes(probe_code_columns, radices)

        return build_combined, encode_probe, domain

    def _build_join_filter(
        self,
        definition,
        build_rel: Relation,
        metrics: ExecutionMetrics,
    ) -> BitvectorFilter:
        """Build one join's bitvector filter.

        A kind that can be built from stored dictionary codes (the
        exact kind, ``from_dictionary_codes``) is, whenever every build
        key still carries table provenance: one serial pass with no key
        values gathered and nothing factorized, at every parallelism.
        Its value build (float keys, radix overflow, keys without
        provenance) is serial too.

        Kinds with a partitioned build (the Bloom kinds), at
        ``parallelism > 1`` with a big enough build side, build
        per-morsel on the shared pool: each worker
        gathers its slice of the build key columns (zero-copy range
        views over the build relation's selection), factorizes/hashes
        it, and returns a partial filter under the shared geometry; the
        main thread then merges the partials *in morsel order* — a
        deterministic barrier, so the published filter is byte-
        equivalent to a serial build no matter how the pool scheduled
        the partials (see the partitioned-build contract on
        :class:`~repro.filters.base.BitvectorFilter`).  Serial
        executions (and filter kinds without partitioned support) build
        from the gathered key values on the calling thread.
        """
        self._checkpoint(metrics)
        filter_class = FILTER_KINDS.get(self._filter_kind)
        from_codes = getattr(filter_class, "from_dictionary_codes", None)
        coded = from_codes and self._key_codes(build_rel, definition.build_keys)
        if coded:
            # A code-space build is one partition: the whole build side.
            fault_point("filter.build_partition")
            built = from_codes(*coded)
            if built is not None:
                return built
        ranges = self._ranges(build_rel.num_rows)
        if (
            ranges is not None
            and filter_class is not None
            and filter_class.supports_partitioned_build
        ):
            geometry = filter_class.build_geometry(
                build_rel.num_rows, **self._filter_options
            )

            def task(start: int, stop: int, worker: ExecutionMetrics):
                fault_point("filter.build_partition")
                view = build_rel.range_view(start, stop, counters=worker)
                return filter_class.build_partial(
                    [
                        view.column(alias, column)
                        for alias, column in definition.build_keys
                    ],
                    geometry,
                    **self._filter_options,
                )

            partials = self._map_morsels(metrics, ranges, task)
            metrics.filter_builds_parallel += 1
            metrics.filter_partials_built += len(partials)
            return filter_class.merge(
                partials, build_rel.num_rows, **self._filter_options
            )
        key_columns = [
            build_rel.column(alias, column)
            for alias, column in definition.build_keys
        ]
        return create_filter(
            self._filter_kind, key_columns, **self._filter_options
        )

    def _cacheable_filter_key(
        self,
        node: HashJoinNode,
        definition,
        overrides: dict[str, object],
    ) -> tuple | None:
        """Cache key for this join's filter, or None when not reusable.

        Only filters built from a bare table scan are workload-level
        artifacts: any applied bitvector or upstream join would couple
        the filter's contents to the rest of this particular plan.
        """
        if self._filter_cache is None:
            return None
        build = node.build
        if not isinstance(build, ScanNode) or build.applied_bitvectors:
            return None
        from repro.expr.expressions import structural_key
        from repro.filters.cache import filter_cache_key

        predicate = overrides.get(build.alias, build.predicate)
        return filter_cache_key(
            table_name=build.table_name,
            key_columns=tuple(column for _, column in definition.build_keys),
            predicate_key=structural_key(predicate, include_aliases=False),
            filter_kind=self._filter_kind,
            filter_options=self._filter_options,
        )

    def _residual_filter(
        self,
        node: FilterNode,
        metrics: ExecutionMetrics,
        filters: dict[int, BitvectorFilter],
        facts: _PlanFacts,
        overrides: dict[str, object],
    ) -> Relation:
        record = metrics.node(node.node_id, node.label, OPERATOR_KIND_OTHER)
        relation = self._run(node.child, metrics, filters, facts, overrides)
        relation = self._apply_bitvectors(
            node.applied_bitvectors, relation, record, filters, metrics
        )
        record.rows_out = relation.num_rows
        return relation

    def _apply_bitvectors(
        self,
        definitions: list[BitvectorDef],
        relation: Relation,
        record,
        filters: dict[int, BitvectorFilter],
        metrics: ExecutionMetrics,
    ) -> Relation:
        if not definitions:
            return relation
        pruning = self._bitvector_zone_pruning(definitions, relation, filters)
        if self._adaptive_filter_order and len(definitions) > 1:
            from repro.engine.lip import order_filters_adaptively

            # Ordering is decided once on the main thread (sampled pass
            # rates, discounted by each filter's zone-skip fraction);
            # the chosen order is then shared by every morsel.
            definitions = order_filters_adaptively(
                definitions, filters, relation.column_head, relation.num_rows,
                zone_skip=pruning[2] if pruning is not None else None,
            )
        pending_ranges: list[tuple[int, int]] | None = None
        if pruning is not None:
            # Stacked filters are conjunctive, so one combined pruning
            # partition (a morsel skipped by ANY filter contributes
            # nothing) is applied with the first filter's evaluation;
            # later filters see the already-gathered survivors.
            ranges, pruned, _ = pruning
            pending_ranges = self._split_pruned(metrics, ranges, pruned)
        for definition in definitions:
            self._checkpoint(metrics)
            bitvector = filters.get(definition.filter_id)
            if bitvector is None:
                raise ExecutionError(
                    f"bitvector {definition!r} applied before creation; "
                    "plan scheduling is broken"
                )
            record.add("filter_check", relation.num_rows)

            def mask_fn(view, definition=definition, bitvector=bitvector):
                mask = self._contains_by_codes(
                    bitvector, definition.probe_keys, view
                )
                if mask is None:
                    mask = bitvector.contains(
                        [
                            view.column(alias, column)
                            for alias, column in definition.probe_keys
                        ]
                    )
                return mask

            if pending_ranges is not None:
                selection = self._selection_over_ranges(
                    relation, pending_ranges, metrics, mask_fn
                )
                pending_ranges = None
                relation = relation.select_sorted(selection)
                continue
            # Filters are immutable after construction, so per-morsel
            # probes are lock-free reads of one shared structure.
            selection = self._parallel_selection(relation, metrics, mask_fn)
            if selection is not None:
                relation = relation.select_sorted(selection)
                continue
            relation = relation.mask(mask_fn(relation))
        return relation

    def _contains_by_codes(
        self,
        bitvector: BitvectorFilter,
        probe_keys,
        view: Relation,
    ) -> np.ndarray | None:
        """Code-space filter probe of one view, or None (probe values).

        Filters that can answer in code space (the exact kind) take the
        view's stored dictionary codes — one gather through the filter's
        memoized ``probe code -> member`` table, no value column
        materialized, no per-row search.  ``None`` for Bloom kinds and
        for keys without table provenance or of float dtype.
        """
        probe = getattr(bitvector, "contains_dictionary_codes", None)
        coded = None if probe is None else self._key_codes(view, probe_keys)
        if coded is None:
            return None
        return probe(*coded)

    def _key_codes(
        self, view: Relation, keys
    ) -> tuple[list, list[np.ndarray]] | None:
        """Stored dictionary codes of the ``(alias, column)`` key columns
        of one view, as ``(dictionaries, code_columns)`` — or None when
        any of them must stay on the value path (no table provenance,
        float dtype: see :meth:`Relation.dictionary_codes`)."""
        dictionaries, code_columns = [], []
        for alias, column in keys:
            coded = view.dictionary_codes(self._database, alias, column)
            if coded is None:
                return None
            dictionaries.append(coded[0])
            code_columns.append(coded[1])
        return dictionaries, code_columns

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _aggregate(
        self,
        node: AggregateNode,
        relation: Relation,
        metrics: ExecutionMetrics,
    ) -> dict[str, np.ndarray]:
        self._checkpoint(metrics)
        record = metrics.node(node.node_id, node.label, OPERATOR_KIND_OTHER)
        record.add("aggregate", relation.num_rows)

        if node.group_by:
            grouped = self._group_by_codes(node.group_by, relation)
            if grouped is None:
                grouped = self._group_by_values(node.group_by, relation)
            group_index, num_groups, key_columns = grouped
            output: dict[str, np.ndarray] = {
                f"{ref.alias}.{ref.column}": keys
                for ref, keys in zip(node.group_by, key_columns)
            }
        else:
            num_groups = 1
            group_index = np.zeros(relation.num_rows, dtype=np.int64)
            output = {}

        for aggregate in node.aggregates:
            label = aggregate.label or str(aggregate)
            if aggregate.function == "count":
                counts = np.bincount(group_index, minlength=num_groups)
                output[label] = counts.astype(np.int64)
                continue
            assert aggregate.argument is not None
            values = relation.column(
                aggregate.argument.alias, aggregate.argument.column
            ).astype(np.float64)
            if aggregate.function == "sum":
                sums = np.bincount(
                    group_index, weights=values, minlength=num_groups
                )
                output[label] = sums
            elif aggregate.function == "avg":
                sums = np.bincount(
                    group_index, weights=values, minlength=num_groups
                )
                counts = np.bincount(group_index, minlength=num_groups)
                with np.errstate(invalid="ignore", divide="ignore"):
                    output[label] = np.where(counts > 0, sums / counts, np.nan)
            elif aggregate.function in ("min", "max"):
                fill = np.inf if aggregate.function == "min" else -np.inf
                folded = np.full(num_groups, fill)
                ufunc = np.minimum if aggregate.function == "min" else np.maximum
                if relation.num_rows:
                    ufunc.at(folded, group_index, values)
                output[label] = folded
            else:
                raise ExecutionError(
                    f"unsupported aggregate {aggregate.function!r}"
                )
        record.rows_out = num_groups if relation.num_rows or node.group_by else 1

        if node.having is not None:
            out_rows = len(next(iter(output.values()))) if output else 0
            keep = evaluate_predicate(
                node.having,
                lambda alias, column: np.asarray(output[column]),
                out_rows,
            )
            output = {
                label: np.asarray(values)[keep]
                for label, values in output.items()
            }
            record.rows_out = int(np.count_nonzero(keep))
        return output

    def _group_by_codes(
        self, group_by, relation: Relation
    ) -> tuple[np.ndarray, int, list[np.ndarray]] | None:
        """Group rows on stored dictionary codes, or None (group values).

        Returns ``(group_index, num_groups, key_columns)`` exactly as
        :meth:`_group_by_values` would: dictionary values are sorted, so
        code order is value order and the mixed-radix combination
        (first column most significant) enumerates groups in the same
        lexicographic order ``np.unique`` over the values does — group
        order, key dtypes and, through the identical ``group_index``,
        every aggregate's accumulation order are unchanged.  Compact
        key domains group by direct addressing (a presence table over
        the radix product, no sort at all); wider ones sort the int64
        combined codes, never the values.  Group keys are decoded from
        the dictionaries, so no value column is materialized.

        ``None`` when a grouping column has no table provenance or is
        float (see :meth:`Relation.dictionary_codes`) and when the radix
        product overflows.
        """
        coded = self._key_codes(
            relation, [(ref.alias, ref.column) for ref in group_by]
        )
        if coded is None:
            return None
        dictionaries, code_columns = coded
        radices = [dictionary.num_values for dictionary in dictionaries]
        combined = combine_codes(code_columns, radices)
        if combined is None:
            return None
        domain = code_domain(radices)
        if dense_table_worthwhile(domain, relation.num_rows):
            present = np.bincount(combined, minlength=domain) > 0
            group_codes = np.flatnonzero(present)
            group_index = (np.cumsum(present) - 1)[combined]
        else:
            group_codes, group_index = np.unique(combined, return_inverse=True)
        key_columns = [
            dictionary.values[codes]
            for dictionary, codes in zip(
                dictionaries, split_codes(group_codes, radices)
            )
        ]
        return group_index, len(group_codes), key_columns

    @staticmethod
    def _group_by_values(
        group_by, relation: Relation
    ) -> tuple[np.ndarray, int, list[np.ndarray]]:
        """Group rows by factorizing the raw grouping values — the
        fallback (and reference) for :meth:`_group_by_codes`."""
        group_columns = [
            relation.column(ref.alias, ref.column) for ref in group_by
        ]
        codes = (
            single_table_codes(group_columns)
            if relation.num_rows
            else np.array([], dtype=np.int64)
        )
        unique_codes, group_index = np.unique(codes, return_inverse=True)
        num_groups = len(unique_codes)
        # First row index of each group, as a stable representative
        # for emitting the grouping columns.
        first_positions = np.full(num_groups, relation.num_rows, dtype=np.int64)
        if num_groups:
            np.minimum.at(
                first_positions, group_index, np.arange(relation.num_rows)
            )
        return (
            group_index,
            num_groups,
            [values[first_positions] for values in group_columns],
        )

    # ------------------------------------------------------------------
    # Top-k (ORDER BY ... LIMIT)
    # ------------------------------------------------------------------

    def _topk_aggregates(
        self,
        node: TopKNode,
        aggregates: dict[str, np.ndarray],
        metrics: ExecutionMetrics,
    ) -> dict[str, np.ndarray]:
        """Sort + limit over aggregate output columns (by label)."""
        self._checkpoint(metrics)
        record = metrics.node(node.node_id, node.label, OPERATOR_KIND_OTHER)
        num_rows = len(next(iter(aggregates.values()))) if aggregates else 0
        record.add("topk", num_rows)
        if node.order_by:
            sort_keys: list[np.ndarray] = [np.arange(num_rows, dtype=np.int64)]
            for key in reversed(node.order_by):
                assert isinstance(key.target, str)
                values = np.asarray(aggregates[key.target])
                sort_keys.append(_order_codes(values, key.ascending))
            order = np.lexsort(sort_keys)
        else:
            order = np.arange(num_rows, dtype=np.int64)
        if node.limit is not None:
            order = order[: node.limit]
        output = {
            label: np.asarray(values)[order]
            for label, values in aggregates.items()
        }
        record.rows_out = len(order)
        return output

    def _topk_relation(
        self,
        node: TopKNode,
        relation: Relation,
        metrics: ExecutionMetrics,
    ) -> Relation:
        """Sort + limit over relation rows.

        The full-sort path orders all rows by ``(keys..., row index)``;
        with a LIMIT and zone maps enabled, morsels whose first-key
        bounds are provably outside the top k are skipped first (the
        clustered-layout early exit).  Skipping is decided with strict
        inequalities against the candidate pool's k-th best first-key
        value, so the surviving candidate set always contains the true
        top k and the final sort is byte-identical to the unpruned one.
        """
        self._checkpoint(metrics)
        record = metrics.node(node.node_id, node.label, OPERATOR_KIND_OTHER)
        record.add("topk", relation.num_rows)
        limit = node.limit
        if not node.order_by:
            if limit is None:
                record.rows_out = relation.num_rows
                return relation
            selected = np.arange(
                min(limit, relation.num_rows), dtype=np.int64
            )
            result = relation.gather(selected)
            record.rows_out = result.num_rows
            return result
        if limit == 0:
            result = relation.gather(np.array([], dtype=np.int64))
            record.rows_out = 0
            return result
        candidates = None
        if limit is not None and self._zone_maps and relation.num_rows:
            candidates = self._topk_zone_candidates(node, relation, metrics)
        if candidates is None:
            candidates = np.arange(relation.num_rows, dtype=np.int64)
        sort_keys: list[np.ndarray] = [candidates]
        for key in reversed(node.order_by):
            ref = key.target
            assert isinstance(ref, ColumnRef)
            values = np.asarray(relation.column(ref.alias, ref.column))
            sort_keys.append(_order_codes(values[candidates], key.ascending))
        order = np.lexsort(sort_keys)
        selected = candidates[order]
        if limit is not None:
            selected = selected[:limit]
        result = relation.gather(selected)
        record.rows_out = result.num_rows
        return result

    def _topk_zone_candidates(
        self,
        node: TopKNode,
        relation: Relation,
        metrics: ExecutionMetrics,
    ) -> np.ndarray | None:
        """Candidate row indices after zone-map top-k morsel skipping.

        Requires the first order key to be a whole base-table column
        (identity provenance — the clustered-layout case).  Morsels are
        visited best-bound first; once the candidate pool holds at
        least ``limit`` rows, a morsel whose bound is *strictly* worse
        than the pool's k-th best first-key value cannot contribute and
        is skipped (counted as ``morsels_pruned`` / ``rows_skipped``).
        Returns ``None`` when nothing can be skipped (callers then sort
        all rows — the identical result, without the bookkeeping).
        """
        first = node.order_by[0]
        ref = first.target
        assert isinstance(ref, ColumnRef)
        source = relation.base_source(ref.alias, ref.column)
        if source is None or source[2] is not None:
            return None
        table_name, column_name, _ = source
        table = self._database.table(table_name)
        if table.num_rows != relation.num_rows:
            return None
        ranges = self._table_ranges(table)
        if len(ranges) < 2:
            return None
        zone = self._zone_map(table_name, column_name)
        bounds = [zone.bounds(index) for index in range(len(ranges))]
        sortable = [
            index
            for index, entry in enumerate(bounds)
            if entry is not None and entry.low is not None
        ]
        if not sortable:
            return None
        # Unordered morsels (no synopsis / all-null) are always kept;
        # visit them first so they never consume a skip decision.
        unordered = [
            index
            for index, entry in enumerate(bounds)
            if entry is None or entry.low is None
        ]
        if first.ascending:
            sortable.sort(key=lambda index: (bounds[index].low, index))
        else:
            sortable.sort(key=lambda index: (bounds[index].high, index))
            sortable.reverse()
        column = np.asarray(table.column(column_name))
        limit = node.limit
        assert limit is not None
        kept: list[int] = []
        pool_parts: list[np.ndarray] = []
        pool_rows = 0
        threshold = None
        for index in unordered + sortable:
            entry = bounds[index]
            if threshold is not None and entry is not None and entry.low is not None:
                try:
                    beyond = (
                        entry.low > threshold
                        if first.ascending
                        else entry.high < threshold
                    )
                except TypeError:
                    beyond = False
                if beyond:
                    metrics.morsels_pruned += 1
                    metrics.rows_skipped += ranges[index][1] - ranges[index][0]
                    continue
            kept.append(index)
            start, stop = ranges[index]
            pool_parts.append(column[start:stop])
            pool_rows += stop - start
            if pool_rows >= limit:
                threshold = _pool_threshold(
                    pool_parts, limit, first.ascending
                )
        if len(kept) == len(ranges):
            return None
        kept_ranges = sorted(ranges[index] for index in kept)
        return np.concatenate(
            [
                np.arange(start, stop, dtype=np.int64)
                for start, stop in kept_ranges
            ]
        )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _result_rows(result) -> int | None:
    """Output-row count of one morsel task's result, when recognisable.

    Selection/gather tasks return an offset array; probe tasks return a
    ``(build_idx, probe_idx)`` pair.  Anything else reports None — the
    morsel span then simply carries no ``rows_out`` attribute.
    """
    if isinstance(result, np.ndarray):
        return int(len(result))
    if (
        isinstance(result, tuple)
        and len(result) == 2
        and isinstance(result[1], np.ndarray)
    ):
        return int(len(result[1]))
    return None


def _morsel_task(fn, start: int, stop: int, worker: ExecutionMetrics,
                 context: ExecutionContext | None):
    """One pool task for ``_map_morsels``: hook, checkpoint, wrap.

    The ``"morsel.task"`` fault site fires *inside* the task body so an
    injected fault travels the exact path an organic worker failure
    does — including the :class:`~repro.errors.MorselTaskError`
    wrapping, which stamps the query name and the morsel's row range
    onto the message and chains the original as ``__cause__``.  Policy
    errors (:class:`~repro.errors.ResilienceError` — a deadline
    tripping inside the task, or a sibling's cancellation) pass through
    unwrapped: they already carry their own context and the service
    retry whitelist must see them bare.
    """

    def run():
        if context is not None:
            context.check()
        try:
            fault_point("morsel.task")
            return fn(start, stop, worker)
        except ResilienceError:
            raise
        except Exception as exc:
            query = context.query if context is not None else "query"
            raise MorselTaskError(
                f"morsel task for query {query!r} rows [{start}:{stop}) "
                f"failed: {type(exc).__name__}: {exc}"
            ) from exc

    return run


def _drop_hidden(
    node: AggregateNode, aggregates: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Remove aggregates that exist only for HAVING / ORDER BY."""
    hidden = {
        aggregate.output_label
        for aggregate in node.aggregates
        if aggregate.hidden
    }
    if not hidden:
        return aggregates
    return {
        label: values
        for label, values in aggregates.items()
        if label not in hidden
    }


def _order_codes(values: np.ndarray, ascending: bool) -> np.ndarray:
    """Sort codes for one ORDER BY key (lower code = earlier output).

    Codes come from an ascending factorization, so arbitrary dtypes
    (including strings) sort and reverse uniformly.  NaN sorts last in
    both directions (SQL ``NULLS LAST``), which also keeps the zone-map
    skip test sound for DESC keys.
    """
    uniques, codes = np.unique(values, return_inverse=True)
    codes = codes.astype(np.int64, copy=False)
    if ascending:
        return codes
    if uniques.dtype.kind == "f" and len(uniques):
        num_nan = int(np.count_nonzero(np.isnan(uniques)))
        if num_nan:
            first_nan = len(uniques) - num_nan
            return np.where(codes >= first_nan, codes - first_nan + 1, -codes)
    return -codes


def _pool_threshold(pool_parts: list[np.ndarray], limit: int, ascending: bool):
    """The candidate pool's k-th best first-key value.

    NaN counts as worst in either direction (matching ``_order_codes``),
    so a NaN-dominated pool yields an infinite threshold and the skip
    test simply never fires — conservative, never unsound.
    """
    values = pool_parts[0] if len(pool_parts) == 1 else np.concatenate(pool_parts)
    if values.dtype.kind == "f":
        worst = np.inf if ascending else -np.inf
        values = np.where(np.isnan(values), worst, values)
    ordered = np.sort(values)
    if ascending:
        return ordered[limit - 1]
    return ordered[len(ordered) - limit]


class _PlanFacts(NamedTuple):
    """Per-execution facts derived from the plan tree before it runs —
    all three by the one sweep of :func:`_plan_facts`."""

    #: Columns each alias's scan must carry (anything any node reads).
    needed: dict[str, set[str]]
    #: ``node_id`` of every join the plan's shape lets its own
    #: pushed-down filter stand in for.
    absorbable: frozenset[int]
    #: Per join ``node_id``, the aliases some ancestor still reads; the
    #: join's output carries no column group without one.  A join with
    #: no entry keeps every group.
    live: dict[int, frozenset[str]]


def _node_references(node: PlanNode, overrides: dict[str, object]):
    """The ``(alias, column)`` pairs one plan node reads."""
    if isinstance(node, ScanNode):
        predicate = overrides.get(node.alias, node.predicate)
        if predicate is not None:
            yield from referenced_columns(predicate)
    if isinstance(node, HashJoinNode):
        yield from node.build_keys
        yield from node.probe_keys
        if node.created_bitvector is not None:
            yield from node.created_bitvector.build_keys
    for definition in node.applied_bitvectors:
        yield from definition.probe_keys
    if isinstance(node, AggregateNode):
        for aggregate in node.aggregates:
            if aggregate.argument is not None:
                yield aggregate.argument.alias, aggregate.argument.column
        for ref in node.group_by:
            yield ref.alias, ref.column
    if isinstance(node, TopKNode):
        for key in node.order_by:
            target = key.target
            if isinstance(target, ColumnRef) and target.alias != OUTPUT_ALIAS:
                yield target.alias, target.column
        for ref in node.columns:
            yield ref.alias, ref.column


def _plan_facts(plan: PlanNode, overrides: dict[str, object]) -> _PlanFacts:
    """One sweep of the plan: what to scan, skip and stop carrying.

    Top-down it accumulates the aliases the nodes *above* each node
    read — later join keys, residual filters, aggregates, GROUP BY,
    ORDER BY and projection columns; only ancestors can read a join's
    output, every other node sits in a subtree that does not carry its
    aliases — and bottom-up the filters each subtree applies.  From
    those:

    * ``needed``: every column any node reads, per alias.
    * ``live``: for each join, the aliases read above it.
    * ``absorbable``: joins whose pushed-down filter may stand in for
      the join itself — the paper's absorption property: once a PK-FK
      join's filter has been applied below it, the join neither adds
      nor removes a probe row.  This is the plan-shape half of that
      test (:meth:`Executor._hash_join` adds the run-time half — the
      filter is exact and its build keys came out distinct): the join
      created a filter over exactly its own key pairs, some node of its
      probe subtree applies it (cost-based selection may have dropped
      it), and no build-side alias is live above the join.

    A plan rooted at a bare relation outputs every scanned column, so
    nothing in it is absorbable or dropped.
    """
    needed: dict[str, set[str]] = {}
    absorbable: set[int] = set()
    live: dict[int, frozenset[str]] = {}
    prunes = isinstance(plan, (AggregateNode, TopKNode))

    def visit(node: PlanNode, above: frozenset[str]) -> set[int]:
        """Ids of the filters applied in ``node``'s subtree."""
        references = list(_node_references(node, overrides))
        for alias, column in references:
            needed.setdefault(alias, set()).add(column)
        if isinstance(node, ScanNode):
            needed.setdefault(node.alias, set())
        applied = {
            definition.filter_id for definition in node.applied_bitvectors
        }
        below = above | {alias for alias, _ in references}
        if not isinstance(node, HashJoinNode):
            for child in node.children():
                applied |= visit(child, below)
            return applied
        applied |= visit(node.build, below)
        applied_in_probe = visit(node.probe, below)
        if prunes:
            live[node.node_id] = above
            definition = node.created_bitvector
            if (
                definition is not None
                and definition.build_keys == node.build_keys
                and definition.probe_keys == node.probe_keys
                and definition.filter_id in applied_in_probe
                and node.build.output_aliases.isdisjoint(above)
            ):
                absorbable.add(node.node_id)
        return applied | applied_in_probe

    visit(plan, frozenset())
    return _PlanFacts(needed, frozenset(absorbable), live)
