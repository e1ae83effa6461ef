"""Shared morsel worker pool for intra-query parallelism.

One process-wide thread pool serves every executor: morsel tasks are
short, numpy-kernel-dominated, and never block on each other, so a
single shared pool (grown to the widest ``parallelism`` requested so
far) beats per-executor pools that would multiply idle threads.  The
executor fans out one operator, the bitvector filter probe: each task
probes one slice of key codes or values through a filter built once on
the calling thread and shared read-only.  Worker threads release the
GIL inside the numpy kernels of that probe (the exact kind's member
table gather, the blocked Bloom kind's hashing and block gather), which
is where the parallel speedup comes from.

Deadlock discipline: a morsel task must never submit to the pool it
runs on.  The executor enforces this structurally — a task touches only
arrays read on the dispatching thread before the region, so nothing it
calls can re-enter the pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.engine.context import CancelToken
from repro.errors import QueryCancelled
from repro.testing.faults import fault_point

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_width = 0


def shared_worker_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide morsel pool, at least ``workers`` wide.

    The pool only ever grows: asking for more workers than the current
    width replaces the pool (in-flight tasks on the old pool finish;
    new submissions land on the wider one).  Callers should re-fetch
    the pool per parallel region rather than holding one reference for
    the executor's lifetime.
    """
    global _pool, _pool_width
    workers = max(int(workers), 1)
    with _pool_lock:
        if _pool is None or _pool_width < workers:
            retired = _pool
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-morsel"
            )
            _pool_width = workers
            if retired is not None:
                retired.shutdown(wait=False)
        return _pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests / interpreter shutdown)."""
    global _pool, _pool_width
    with _pool_lock:
        retired = _pool
        _pool = None
        _pool_width = 0
    if retired is not None:
        retired.shutdown(wait=True)


def run_morsel_tasks(
    workers: int,
    tasks: Sequence[Callable[[], object]],
    cancel_token: CancelToken | None = None,
) -> list:
    """Run ``tasks`` on the shared pool; results in task order.

    This is a barrier: it returns only after every task finished.  The
    first exception (in task order) propagates after all futures are
    awaited, so no worker is left writing into shared output buffers.
    A pool retired by a concurrent grow can reject new submissions
    (tasks it already accepted still run and their futures stay
    valid), so each rejected submit is retried individually on a fresh
    pool — never the whole batch, which would execute accepted tasks
    twice.

    With a ``cancel_token``, the region cancels cooperatively: a task
    that raises trips the token, and every not-yet-started sibling
    short-circuits with :class:`~repro.errors.QueryCancelled` instead
    of running doomed work.  The barrier then prefers the *root cause*
    — the first non-cancellation error in task order (a task's own
    failure, or a :class:`~repro.errors.QueryTimeout` from a deadline
    checkpoint) — over the secondary cancellation signals, so callers
    always see why the region died, not that it was told to stop.
    """
    if len(tasks) == 1:
        return [tasks[0]()]
    fault_point("pool.submit")
    if cancel_token is not None:
        tasks = [_cancellable(task, cancel_token) for task in tasks]
    pool = shared_worker_pool(workers)
    futures = []
    for task in tasks:
        try:
            futures.append(pool.submit(task))
        except RuntimeError:
            pool = shared_worker_pool(workers)
            futures.append(pool.submit(task))
    results = []
    error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if error is None or (
                isinstance(error, QueryCancelled)
                and not isinstance(exc, QueryCancelled)
            ):
                error = exc
            results.append(None)
    if error is not None:
        raise error
    return results


def _cancellable(
    task: Callable[[], object], token: CancelToken
) -> Callable[[], object]:
    """Wrap ``task`` so the region short-circuits after a sibling dies."""

    def run() -> object:
        if token.cancelled:
            raise QueryCancelled(
                f"morsel task short-circuited: {token.reason}"
            )
        try:
            return task()
        except BaseException as exc:
            # First failure wins; idempotent for later ones.
            token.cancel(f"{type(exc).__name__}: {exc}")
            raise

    return run
