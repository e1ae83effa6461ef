"""Plan executor.

Recursively evaluates a physical plan tree.  For every hash join the
*build* child executes first; if the join creates a bitvector filter it
is registered before the *probe* child runs, so every application site
(which Algorithm 1 guarantees lies inside the probe subtree) finds its
filter populated — the same scheduling property real engines rely on.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
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
from repro.engine.join_kernel import join_codes
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
from repro.filters.base import BitvectorFilter
from repro.filters.registry import create_filter, filter_class_for
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
    morsel_ranges,
)
from repro.storage.zonemaps import predicate_band
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

# Serial-below-this threshold of ``Executor._ranges``, re-exported under
# the historical name so tests can monkeypatch the executor's copy (the
# storage layer owns the canonical value).
_MIN_PARALLEL_ROWS = MIN_PARALLEL_ROWS

# glibc mallopt parameters and the ceiling of its dynamic mmap threshold.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_MAX = 32 << 20
#: glibc's own variables for the settings below; any of them set wins.
_MALLOC_VARIABLES = (
    "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_", "MALLOC_ARENA_MAX",
)


def _pin_malloc_policy() -> None:
    """Give glibc malloc one heap with fixed thresholds.

    By default glibc raises its mmap threshold to the largest mmapped
    block freed so far and returns the heap top to the kernel once twice
    that much is free.  A warm statement's numpy temporaries (two int64
    columns over the fact table) land exactly on that edge, so whether
    every execution re-faults them depended on unrelated earlier
    allocations — the length of ``argv`` was enough to flip it.  Fixed
    thresholds make per-statement latency independent of that history:
    blocks under 32 MiB are reused from the heap, and the heap top is
    trimmed once 64 MiB of it is free.  One arena keeps memory a query
    thread frees reusable by the next query on another thread, instead
    of parked in a per-thread arena.  Explicit malloc settings in the
    environment win; other C libraries are left alone.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # not a POSIX libc
        return
    if not libc.startswith("glibc"):
        return
    if "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", "") or any(
        name in os.environ for name in _MALLOC_VARIABLES
    ):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)
    mallopt(_M_ARENA_MAX, 1)


_pin_malloc_policy()


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
        (default — the no-false-positives filter the theory assumes) or
        ``"blocked_bloom"`` (the hashed kind, with false positives).  An
        unknown kind raises ``ValueError`` here, not at the first join.
    filter_cache:
        Optional :class:`~repro.filters.cache.BitvectorFilterCache`
        shared across executions; joins whose build side is a bare scan
        reuse previously built filters instead of rebuilding them.
    parallelism:
        Worker count for morsel-driven intra-query parallelism.  The
        default 1 keeps execution on the calling thread with exactly
        the serial code path (byte-identical results, seed benchmarks
        stay valid).  At N > 1 one operator fans out: each bitvector
        filter probe (:meth:`_apply_bitvectors`) runs per morsel on
        the shared worker pool, over probe keys read once on the
        calling thread.  Everything else — scan predicates, hash-join
        matching, column gathers, filter builds, aggregation — runs on
        the calling thread; filters are built once and shared
        immutably, so probes are lock-free.
    morsel_rows:
        Target rows per morsel when splitting a probed relation for the
        pool, by the static
        :func:`~repro.storage.partition.morsel_ranges` shape.
    """

    def __init__(
        self,
        database: Database,
        filter_kind: str = "exact",
        adaptive_filter_order: bool = False,
        filter_cache=None,
        parallelism: int = 1,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ) -> None:
        self._database = database
        self._filter_kind = filter_kind
        self._filter_class = filter_class_for(filter_kind)
        # LIP-style runtime reordering of stacked filters (see
        # repro.engine.lip); off by default to match the paper's engine.
        self._adaptive_filter_order = adaptive_filter_order
        self._filter_cache = filter_cache
        self._parallelism = max(int(parallelism), 1)
        self._morsel_rows = max(int(morsel_rows), 1)
        self._parallel = self._parallelism > 1

    @property
    def parallelism(self) -> int:
        return self._parallelism

    @property
    def morsel_rows(self) -> int:
        return self._morsel_rows

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
        nodes, morsel tasks, filter builds, and band searches record
        spans/events, and per-node inclusive wall time lands in
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
        test.
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
    # Morsel parallelism (the bitvector probe's fan-out)
    # ------------------------------------------------------------------

    def _ranges(self, num_rows: int) -> list[tuple[int, int]] | None:
        """Morsels of ``[0, num_rows)`` when a probe fans out to the
        pool, else None — the caller then makes its one whole-relation
        call, exactly the serial code path.

        The one pool-or-inline rule: parallelism > 1 and enough rows
        that per-morsel dispatch costs less than the numpy kernels it
        splits; the rows then split into at least one morsel per worker.
        """
        if not self._parallel or num_rows < _MIN_PARALLEL_ROWS:
            return None
        return morsel_ranges(
            num_rows, self._morsel_rows, min_morsels=self._parallelism
        )

    def _map_ranges(self, metrics: ExecutionMetrics,
                    ranges: list[tuple[int, int]], task) -> list:
        """Run ``task(start, stop)`` per range on the shared pool (a
        barrier); results in range order, so concatenating them
        reproduces the serial row order exactly.

        Tasks touch only arrays the dispatching thread read before the
        region, so they write no counter and never re-enter the pool.
        With an armed :class:`~repro.engine.context.ExecutionContext`,
        every task checks the deadline/cancel token before touching its
        morsel, the region's cancel token short-circuits siblings after
        the first failure, and non-policy task exceptions are wrapped
        as :class:`~repro.errors.MorselTaskError` with the query name
        and the morsel's row range.  The budget is re-checked after the
        barrier.  With a tracer, each task records a ``morsel`` span
        (``rows_in``, ``rows_out``) under the span that fanned out.
        """
        context = metrics.context
        tracer = metrics.tracer
        if tracer is not None:
            # The parent id is captured here, on the dispatching thread,
            # so each task's "morsel" span hangs under the plan-node
            # span that fanned the region out.
            parent = tracer.current_span_id()

            def task(start: int, stop: int, _task=task, _parent=parent):
                with tracer.span(
                    "morsel", parent=_parent, rows_in=stop - start
                ) as span:
                    result = _task(start, stop)
                    span.set(rows_out=len(result))
                return result

        results = run_morsel_tasks(
            self._parallelism,
            [_morsel_task(task, start, stop, context) for start, stop in ranges],
            cancel_token=None if context is None else context.cancel_token,
        )
        if context is not None:
            context.checkpoint(metrics)
        return results

    # ------------------------------------------------------------------
    # Zone-map band search (see repro.storage.zonemaps)
    # ------------------------------------------------------------------

    def _scan_band_search(
        self, alias: str, table, predicate, metrics: ExecutionMetrics
    ) -> tuple[int, int] | None:
        """Clustered-band fast path: the scan's row band, or ``None``.

        When the predicate is one value band on a column the zone map
        proves globally sorted (no NaN), the surviving rows are exactly
        one contiguous range — two binary searches replace every
        row-wise predicate evaluation.  The
        searched bounds follow numpy comparison order, the same total
        order the sortedness check verified, so the band equals the
        serial ``flatnonzero`` selection exactly (byte-identical
        results at any parallelism).

        The search is the only writer of ``rows_skipped`` (rows outside
        the band, never read) and ``morsels_pruned`` (morsels of the
        table's static split holding no band row).
        """
        if table.num_rows == 0:
            return None
        band = predicate_band(predicate, alias)
        if band is None:
            return None
        column, low, low_inclusive, high, high_inclusive = band
        if not self._database.zone_map(table.name, column).sorted_ascending:
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
        metrics.rows_skipped += table.num_rows - (hi - lo)
        metrics.morsels_pruned += sum(
            min(morsel.stop, hi) <= max(morsel.start, lo)
            for morsel in table.morsels(
                self._morsel_rows, min_morsels=self._parallelism
            )
        )
        if metrics.tracer is not None:
            metrics.tracer.event(
                "scan.band_search",
                table=table.name,
                column=column,
                band_rows=hi - lo,
            )
        return lo, hi

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
            columns, table.num_rows, sources=sources, counters=metrics
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
        binary searches; otherwise the rows are evaluated — subtrees
        over one stored text column through their dictionary's truth
        table (:func:`lower_to_dictionaries`; one gather of stored codes
        per row), everything else over row values.  The node span
        records which: ``predicate=band|dictionary|rows`` and, when a
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

        if metrics.tracer is not None:
            lookups = [
                part for part in lowered.walk()
                if isinstance(part, DictionaryLookup)
            ]
            answered = {"predicate": "dictionary" if lookups else "rows"}
            if lookups:
                answered["truth_table"] = (
                    "built" if any(part.built for part in lookups) else "hit"
                )
            metrics.tracer.annotate(**answered)
        return relation.mask(evaluate_predicate(
            lowered, relation.provider, relation.num_rows,
            relation.stored_codes,
        ))

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
            node, build_rel, probe_rel, metrics
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
        metrics: ExecutionMetrics,
    ) -> tuple[np.ndarray | None, np.ndarray | None, bool]:
        """Matching row pairs of one hash join, as ``(build_idx,
        probe_idx, indexes_probe)``; an index of ``None`` is the identity.

        Keys are compared as int64 codes (equal codes <=> equal key
        tuples) by :mod:`repro.engine.join_kernel`, which also decides
        from the codes alone which side the match structure indexes
        (``indexes_probe``) and which streams through it.  When every
        key column still carries base-table provenance, both sides are
        read as stored dictionary codes — an O(rows) code gather plus
        an O(distinct) domain translation, see
        :meth:`_dictionary_join_codes`.  Without it (derived columns,
        float keys, mixed-radix overflow) both sides are factorized
        jointly.  Either way the match is one whole call on the calling
        thread.
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
        return join_codes(*self._dictionary_join_codes(
            node, build_rel, probe_rel, dictionaries
        ))

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

    def _dictionary_join_codes(
        self,
        node: HashJoinNode,
        build_rel: Relation,
        probe_rel: Relation,
        dictionaries: list[tuple[ColumnDictionary, ColumnDictionary]],
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """``(build_codes, probe_codes, domain)`` of one join in the
        build dictionaries' combined code space.

        ``dictionaries`` are the per-key-pair ``(build, probe)`` stored
        dictionaries from :meth:`_join_dictionaries`.  Probe codes are
        re-expressed in the build column's domain (memoized domain
        translations); values absent from it become ``-1`` and can
        never match.
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
        probe_combined = combine_codes(
            [
                probe_dict.translate_codes(
                    build_dict, probe_rel.stored_codes(probe_dict, alias, column)
                )
                for (alias, column), (build_dict, probe_dict) in zip(
                    node.probe_keys, dictionaries
                )
            ],
            # Same radices as the build side: cannot overflow here.
            radices,
        )
        return build_combined, probe_combined, code_domain(radices)

    def _build_join_filter(
        self,
        definition,
        build_rel: Relation,
        metrics: ExecutionMetrics,
    ) -> BitvectorFilter:
        """Build one join's bitvector filter in one serial pass.

        A kind that can be built from stored dictionary codes (the
        exact kind, ``from_dictionary_codes``) is, whenever every build
        key still carries table provenance: no key values gathered and
        nothing factorized.  Otherwise (float keys, radix overflow, keys
        without provenance, the hashed kind) the filter is built from
        the gathered key values.  Either way the build runs on the
        calling thread at every parallelism.
        """
        self._checkpoint(metrics)
        fault_point("filter.build")
        from_codes = getattr(self._filter_class, "from_dictionary_codes", None)
        coded = from_codes and self._key_codes(build_rel, definition.build_keys)
        if coded:
            built = from_codes(*coded)
            if built is not None:
                return built
        key_columns = [
            build_rel.column(alias, column)
            for alias, column in definition.build_keys
        ]
        return create_filter(self._filter_kind, key_columns)

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
        if self._adaptive_filter_order and len(definitions) > 1:
            from repro.engine.lip import order_filters_adaptively

            # Ordering is decided once on the main thread (sampled pass
            # rates); the chosen order is then shared by every morsel.
            definitions = order_filters_adaptively(
                definitions, filters, relation.column_head, relation.num_rows,
            )
        if relation.is_whole_table():
            relation, definitions = self._apply_member_bits(
                definitions, relation, record, filters, metrics
            )
        for definition in definitions:
            self._checkpoint(metrics)
            bitvector = _applied_filter(filters, definition)
            record.add("filter_check", relation.num_rows)
            probe = self._probe(bitvector, definition.probe_keys, relation)
            ranges = self._ranges(relation.num_rows)
            if ranges is None:
                relation = relation.mask(probe(0, relation.num_rows))
                continue
            # The only fan-out site.  Filters are immutable after
            # construction and the keys are read, so each morsel task
            # is a lock-free probe of one slice; the concatenated
            # offsets are the serial ``flatnonzero``.
            relation = relation.select_sorted(np.concatenate(
                self._map_ranges(
                    metrics, ranges,
                    lambda start, stop, probe=probe: (
                        np.flatnonzero(probe(start, stop)) + start
                    ),
                )
            ))
        return relation

    def _apply_member_bits(
        self,
        definitions: list[BitvectorDef],
        relation: Relation,
        record,
        filters: dict[int, BitvectorFilter],
        metrics: ExecutionMetrics,
    ) -> tuple[Relation, list[BitvectorDef]]:
        """Apply the leading run of ``definitions`` whose filters keep
        row bitmaps (:meth:`BitvectorFilter.member_bits`) of the probed
        column: one AND of packed bitmaps, one compaction.  Returns the
        narrowed relation and the filters left for the probe path.

        ``relation`` is a whole base table, so each filter's
        bitmap over its probe column is row-aligned with it.  Each
        filter is metered with the popcount of the AND before it — the
        rows it would have probed on the probe path.  The node span
        records ``bitmaps=built`` when a bitmap of the run was computed
        now (a first probe of that filter over that column), else
        ``bitmaps=hit``.
        """
        bits = None
        built = False
        taken = 0
        for definition in definitions:
            self._checkpoint(metrics)
            bitvector = _applied_filter(filters, definition)
            if (
                not bitvector.supports_member_bits
                or len(definition.probe_keys) != 1
            ):
                break
            dictionary = relation.column_dictionary(
                self._database, *definition.probe_keys[0]
            )
            if dictionary is None:
                break
            held = bitvector.holds_member_bits(dictionary)
            member = bitvector.member_bits(dictionary)
            if member is None:
                break
            record.add(
                "filter_check",
                relation.num_rows if bits is None
                else int(np.bitwise_count(bits).sum()),
            )
            bits = member if bits is None else np.bitwise_and(bits, member)
            built = built or not held
            taken += 1
        if bits is None:
            return relation, definitions
        if metrics.tracer is not None:
            metrics.tracer.annotate(bitmaps="built" if built else "hit")
        rows = np.unpackbits(bits, count=relation.num_rows).view(bool)
        return relation.select_sorted(np.flatnonzero(rows)), definitions[taken:]

    def _probe(self, bitvector: BitvectorFilter, probe_keys,
               relation: Relation):
        """One filter's probe of ``relation`` as ``probe(start, stop)``,
        the keep-mask of rows ``[start, stop)``.

        The probe keys are read here, once, from the whole relation:
        stored dictionary codes where the filter answers in code space
        (:meth:`_code_probe`), else the key columns, materialized and
        counted like any column read.  A probe then touches only slices
        of arrays in hand, so morsel tasks share them read-only and the
        counters see exactly what a whole-relation probe costs.
        """
        probe = self._code_probe(bitvector, probe_keys, relation)
        if probe is not None:
            return probe
        values = [relation.column(alias, column) for alias, column in probe_keys]
        return lambda start, stop: bitvector.contains(
            [column[start:stop] for column in values]
        )

    def _code_probe(self, bitvector: BitvectorFilter, probe_keys,
                    relation: Relation):
        """Code-space ``probe(start, stop)`` of ``relation``, or None
        (probe values).

        Filters that can answer in code space (the exact kind) take the
        relation's stored dictionary codes — one gather through the
        filter's memoized ``probe code -> member`` table, no value
        column materialized, no per-row search.  ``None`` for the hashed
        kind, for keys without table provenance or of float dtype, and
        for an exact filter in a fallback mode (its zero-row probe
        answers ``None``).
        """
        by_codes = getattr(bitvector, "contains_dictionary_codes", None)
        coded = None if by_codes is None else self._key_codes(
            relation, probe_keys
        )
        if coded is None:
            return None
        dictionaries, code_columns = coded

        def probe(start: int, stop: int) -> np.ndarray | None:
            return by_codes(
                dictionaries, [codes[start:stop] for codes in code_columns]
            )

        return None if probe(0, 0) is None else probe

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
            counts = None
            if any(a.function in ("count", "avg") for a in node.aggregates):
                counts = np.bincount(group_index, minlength=num_groups)
        else:
            num_groups = 1
            group_index = None
            counts = np.array([relation.num_rows], dtype=np.int64)
            output = {}

        def fold_index() -> np.ndarray:
            # One group: its all-zeros index is built only for the folds
            # that need one.
            nonlocal group_index
            if group_index is None:
                group_index = np.zeros(relation.num_rows, dtype=np.int64)
            return group_index

        for aggregate in node.aggregates:
            label = aggregate.label or str(aggregate)
            if aggregate.function == "count":
                output[label] = counts.astype(np.int64)
                continue
            assert aggregate.argument is not None
            column = relation.column(
                aggregate.argument.alias, aggregate.argument.column
            )
            if aggregate.function in ("sum", "avg"):
                summed = counts
                sums = None if node.group_by else _exact_total(column)
                if sums is None:
                    weights = column.astype(np.float64, copy=False)
                    sums = np.bincount(
                        fold_index(), weights=weights, minlength=num_groups
                    )
                    if np.isnan(sums).any():
                        sums, summed = _skip_nan(
                            fold_index(), weights, sums, counts
                        )
            if aggregate.function == "sum":
                output[label] = sums
            elif aggregate.function == "avg":
                with np.errstate(invalid="ignore", divide="ignore"):
                    output[label] = np.where(summed > 0, sums / summed, np.nan)
            elif aggregate.function in ("min", "max"):
                fill = np.inf if aggregate.function == "min" else -np.inf
                folded = np.full(num_groups, fill)
                ufunc = np.minimum if aggregate.function == "min" else np.maximum
                if relation.num_rows:
                    ufunc.at(
                        folded, fold_index(),
                        column.astype(np.float64, copy=False),
                    )
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

        Orders all rows by ``(keys..., row index)``.
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
        sort_keys: list[np.ndarray] = [
            np.arange(relation.num_rows, dtype=np.int64)
        ]
        for key in reversed(node.order_by):
            ref = key.target
            assert isinstance(ref, ColumnRef)
            values = np.asarray(relation.column(ref.alias, ref.column))
            sort_keys.append(_order_codes(values, key.ascending))
        selected = np.lexsort(sort_keys)
        if limit is not None:
            selected = selected[:limit]
        result = relation.gather(selected)
        record.rows_out = result.num_rows
        return result


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _exact_total(values: np.ndarray) -> np.ndarray | None:
    """The one-group ``SUM`` of integer ``values`` exactly as the
    sequential float ``np.bincount`` accumulates it, or None where only
    that accumulation gives it (float values, or sums that may leave the
    exactly representable integers).

    While ``max|v| * n < 2**53`` every partial sum of the sequential
    float accumulation is an integer below ``2**53``, so each addition
    is exact and the result equals the exact int64 sum — bit for bit.
    """
    if values.dtype.kind not in "iu":
        return None
    if not len(values):
        return np.zeros(1)
    bound = max(abs(int(values.min())), abs(int(values.max())))
    if bound * len(values) >= 2 ** 53:
        return None
    return np.array([float(values.sum(dtype=np.int64))])


def _skip_nan(
    group_index: np.ndarray,
    weights: np.ndarray,
    sums: np.ndarray,
    counts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(sums, counts)`` with every group whose sum is NaN summed and
    counted again over its non-NaN rows only: SQL skips the NULL that a
    NaN stands for.  Other groups keep their figures, bit for bit."""
    missing = np.isnan(weights)
    redo = np.isnan(sums)
    sums = np.where(
        redo,
        np.bincount(
            group_index,
            weights=np.where(missing, 0.0, weights),
            minlength=len(sums),
        ),
        sums,
    )
    if counts is not None:
        counts = np.where(
            redo,
            np.bincount(group_index[~missing], minlength=len(sums)),
            counts,
        )
    return sums, counts


def _applied_filter(
    filters: dict[int, BitvectorFilter], definition: BitvectorDef
) -> BitvectorFilter:
    bitvector = filters.get(definition.filter_id)
    if bitvector is None:
        raise ExecutionError(
            f"bitvector {definition!r} applied before creation; "
            "plan scheduling is broken"
        )
    return bitvector


def _morsel_task(fn, start: int, stop: int,
                 context: ExecutionContext | None):
    """One pool task for ``_map_ranges``: hook, checkpoint, wrap.

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
            return fn(start, stop)
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
    both directions (SQL ``NULLS LAST``).
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
