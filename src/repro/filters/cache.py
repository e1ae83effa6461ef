"""Cross-query bitvector filter cache.

Building a bitvector filter costs one pass over the build side — the
overhead the paper's Section 6.3 threshold exists to police.  In a
workload, many queries build the *same* filter: a dimension table,
filtered by the same local predicate, keyed on the same join columns.
This cache amortizes that construction cost across the workload.

A filter is reusable iff its build side is a bare table scan, so the
cache key is the triple the extended paper frames as the amortizable
unit::

    (build table, build key columns, local predicate structure)

plus the filter kind, since a Bloom filter and an exact filter built
from the same rows are different artifacts.
Predicate structure is encoded alias-free
(:func:`repro.expr.expressions.structural_key`), so two queries that
alias ``customer`` as ``c`` and ``cust`` share one filter.

The executor (:class:`repro.engine.executor.Executor`) consults the
cache only when the build side is a :class:`~repro.plan.nodes.ScanNode`
with no bitvectors applied to it — any upstream filtering would make
the built filter depend on the rest of the plan.  Invalidation on
schema change is owned by the caller (the service layer clears the
cache when :attr:`repro.storage.database.Database.schema_version`
moves); the underlying :class:`~repro.util.lru.LruCache` generation
guard keeps a build that raced a ``clear()`` from re-publishing a
stale filter.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.filters.base import BitvectorFilter
from repro.testing.faults import fault_point
from repro.util.lru import LruCache


class _PendingBuild:
    """One in-flight single-flight build: its barrier and its outcome.

    ``error`` is written (if at all) strictly before ``event.set()``,
    so any waiter released by the event sees either a published cache
    entry or the failure that prevented one — never a limbo state.
    """

    __slots__ = ("event", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.error: BaseException | None = None


def filter_cache_key(
    table_name: str,
    key_columns: tuple[str, ...],
    predicate_key: object,
    filter_kind: str,
) -> tuple:
    """Canonical, hashable cache key for one buildable filter."""
    return (table_name, key_columns, predicate_key, filter_kind)


class BitvectorFilterCache(LruCache):
    """Bounded LRU cache of built bitvector filters.

    Thread-safe, with *single-flight* construction (the same discipline
    as :meth:`repro.storage.database.Database.dictionary` and zone-map
    builds): the builder callback runs outside every lock, but
    concurrent requesters of one key wait on the in-flight build
    instead of duplicating it — a herd of ``run_many`` workers hitting
    one cold dimension filter produces exactly one construction, and
    :attr:`builds_deduped` counts the builds the others were spared.

    Failure handoff: a builder that raises stores the exception on the
    pending entry *before* waking the herd, so every concurrent waiter
    re-raises that same failure instead of serially re-running a build
    the workload just watched die (or worse, dangling forever on a dead
    event).  Nothing is published on failure — no poisoned entry — and
    because the pending slot is popped first, any caller arriving
    *after* the wake becomes a fresh builder, so the next query simply
    rebuilds.  A waiter whose builder succeeded but whose publish was
    dropped by a racing ``clear()`` still loops and rebuilds from fresh
    state, so stale builds are never served either.
    """

    def __init__(self, capacity: int = 64) -> None:
        super().__init__(capacity)
        self._cost_lock = threading.Lock()
        self._build_seconds: dict[tuple, float] = {}
        self._build_seconds_saved = 0.0
        self._pending_lock = threading.Lock()
        self._pending: dict[tuple, _PendingBuild] = {}
        self._builds_deduped = 0

    def get_or_build(
        self, key: tuple, builder: Callable[[], BitvectorFilter],
        tracer=None,
    ) -> tuple[BitvectorFilter, bool]:
        """Return ``(filter, was_cached)``, building and caching on miss.

        ``was_cached`` is True both for plain cache hits and for waits
        resolved by another thread's in-flight build — either way this
        caller paid no construction.

        ``tracer`` (an optional :class:`repro.obs.Tracer`) records a
        ``filter.cache.wait`` span around each single-flight wait, so
        time spent riding another query's in-flight build is visible in
        traces rather than silently folded into execute latency.
        """
        waited = False
        while True:
            cached = self.get(key)
            if cached is not None:
                with self._cost_lock:
                    self._build_seconds_saved += self._build_seconds.get(key, 0.0)
                    if waited:
                        self._builds_deduped += 1
                return cached, True
            with self._pending_lock:
                pending = self._pending.get(key)
                if pending is None:
                    pending = _PendingBuild()
                    self._pending[key] = pending
                    is_builder = True
                else:
                    is_builder = False
            if not is_builder:
                if tracer is None:
                    pending.event.wait()
                else:
                    with tracer.span("filter.cache.wait"):
                        pending.event.wait()
                if pending.error is not None:
                    # The build this caller was riding on failed; every
                    # rider shares its fate (one failure, not N retries
                    # of a doomed build).  Callers arriving after the
                    # wake find no pending entry and build fresh.
                    raise pending.error
                waited = True
                continue
            # Registered as builder — but a previous builder may have
            # published between our cache miss and the registration
            # (its put happens before its pending entry is popped, so
            # an absent entry proves any prior build is already
            # visible).  Counter-free membership check; the loop's
            # get() then serves (and accounts) the hit.
            if key in self:
                with self._pending_lock:
                    self._pending.pop(key, None)
                pending.event.set()
                continue
            generation = self.generation
            started = time.perf_counter()
            try:
                built = builder()
                elapsed = time.perf_counter() - started
                # Publication is a registered fault site: an injected
                # failure here must travel the failed-build path —
                # nothing published, waiters handed the error.
                fault_point("cache.publish")
            except BaseException as exc:
                # Store the failure, then wake the herd (order matters:
                # the event's release barrier makes the error visible).
                pending.error = exc
                with self._pending_lock:
                    self._pending.pop(key, None)
                pending.event.set()
                raise
            with self._cost_lock:
                self._build_seconds[key] = elapsed
                while len(self._build_seconds) > 4 * self.capacity:
                    self._build_seconds.pop(next(iter(self._build_seconds)))
            # Publish before waking waiters, so a woken thread's
            # re-check finds the value (or, if a clear() dropped the
            # put, rebuilds from fresh state itself).
            self.put(key, built, generation=generation)
            with self._pending_lock:
                self._pending.pop(key, None)
            pending.event.set()
            return built, False

    def clear(self) -> None:
        super().clear()
        with self._cost_lock:
            self._build_seconds.clear()

    @property
    def build_seconds_saved(self) -> float:
        """Construction time amortized away by cache hits so far."""
        with self._cost_lock:
            return self._build_seconds_saved

    @property
    def builds_deduped(self) -> int:
        """Duplicate constructions avoided by single-flight waits."""
        with self._cost_lock:
            return self._builds_deduped

    def size_bits(self) -> int:
        """Total memory footprint of all cached filter payloads."""
        return sum(entry.size_bits for entry in self.values())

    def resident_bytes(self) -> int:
        """Total bytes actually resident across cached filters —
        payloads plus auxiliary structures (presence tables, code sets,
        probe member tables, private dictionaries, fallback raw
        columns)."""
        return sum(entry.resident_bytes for entry in self.values())

    def mode_summary(self) -> dict[str, int]:
        """Cached-filter count per representation mode, for explain."""
        summary: dict[str, int] = {}
        for entry in self.values():
            mode = entry.describe().get("mode", type(entry).__name__)
            summary[mode] = summary.get(mode, 0) + 1
        return summary
