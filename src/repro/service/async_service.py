"""`asyncio` facade over :class:`QueryService` with admission control.

:class:`AsyncQueryService` is the overload-safe front door the ROADMAP's
"millions of users" north star asks for: an awaitable ``execute`` whose
concurrency is bounded by a fixed pool of executor threads, fronted by
an :class:`~repro.service.admission.AdmissionController` (bounded
priority queue, per-client token buckets, deadline shed-on-arrival,
per-fingerprint failure-rate breakers).  Under load beyond capacity the
service keeps answering a capacity's worth of traffic at predictable
latency and refuses the rest in microseconds with a typed
:class:`~repro.errors.QueryShed` carrying a retry-after hint — it never
queues unbounded work.

Event-loop discipline:

* Admission decisions and dispatch run *on the event loop thread* —
  they are pure bookkeeping (microseconds), so sheds return fast even
  while every executor thread is busy.
* Query execution runs on a private ``ThreadPoolExecutor`` exactly
  ``max_concurrency`` wide, through the same :class:`QueryService`
  statement slot as ``run_many`` (the service's retry policy applies;
  a failure comes back typed); the underlying (thread-safe) service
  keeps its plan/filter caches shared across all in-flight queries.
* The request's :class:`~repro.engine.context.Deadline` starts at
  *arrival*, before queueing, and is handed to the engine's cooperative
  checkpoints — a query consumes its deadline while waiting, and a
  ticket that out-waits its deadline is shed at dispatch instead of
  burning an executor slot.

One :class:`AsyncQueryService` belongs to one event loop; drive it from
the loop that first awaits it.  ``close()`` is graceful and idempotent:
queued admissions are cancelled with a typed
:class:`~repro.errors.ServiceClosed`, in-flight queries finish, and
later submissions are refused.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.engine.context import Deadline
from repro.errors import QueryShed, ServiceClosed, ServiceError
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRequest,
)
from repro.service.service import QueryService, ServiceResult
from repro.sql.parameterize import fingerprint_sql


class AsyncQueryService:
    """Awaitable, admission-controlled query serving.

    Parameters
    ----------
    database:
        Build a private :class:`QueryService` over this database
        (``**service_kwargs`` pass through — ``parallelism``,
        ``deadline_seconds``, ``tracer``, ...).  Mutually exclusive
        with ``service``.
    service:
        Adopt an existing (already configured) :class:`QueryService`.
        The caller keeps ownership: :meth:`close` closes it only when
        this facade created it.
    max_concurrency:
        Executor threads — the number of queries running at once.  This
        is the capacity every admission policy is anchored to.
    admission:
        An :class:`~repro.service.admission.AdmissionConfig`; defaults
        are sized for small deployments (queue of 32, no quotas).
    clock:
        Monotonic clock injected into the admission controller (tests
        substitute a fake one).
    """

    def __init__(
        self,
        database=None,
        *,
        service: QueryService | None = None,
        max_concurrency: int = 4,
        admission: AdmissionConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        **service_kwargs,
    ) -> None:
        if (database is None) == (service is None):
            raise ServiceError(
                "pass exactly one of database= or service= to "
                "AsyncQueryService"
            )
        self._owns_service = service is None
        self.service = (
            QueryService(database, **service_kwargs)
            if service is None
            else service
        )
        if not self._owns_service and service_kwargs:
            raise ServiceError(
                "service_kwargs apply only when AsyncQueryService builds "
                "its own QueryService"
            )
        self.admission = AdmissionController(
            max_concurrency,
            config=admission,
            clock=clock,
            telemetry=self.service.telemetry,
        )
        self.max_concurrency = self.admission.max_concurrency
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="svc-admit",
        )
        self._closed = False
        self._sequence = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    async def execute(
        self,
        sql: str,
        name: str | None = None,
        *,
        client: str = "default",
        priority: str = "normal",
        pipeline: str | None = None,
        deadline_seconds: float | None = None,
    ) -> ServiceResult:
        """Admit, queue, and execute ``sql``; await the answer.

        ``client`` selects the token bucket charged for this query and
        ``priority`` its queue class (``"interactive"`` / ``"normal"``
        / ``"batch"``).  ``deadline_seconds`` starts the wall-clock at
        *arrival* (``None`` inherits the underlying service default):
        time spent queued counts against it, the admission controller
        sheds on arrival when the remaining budget cannot cover the
        estimated wait plus one execution, and the engine's cooperative
        checkpoints enforce whatever remains during the run.

        Raises :class:`~repro.errors.QueryShed` (typed, with
        ``reason`` and ``retry_after``) when admission refuses, and
        :class:`~repro.errors.ServiceClosed` after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosed(
                f"query {name or 'query'!r} refused: service is closed"
            )
        loop = asyncio.get_running_loop()
        if name is None:
            self._sequence += 1
            name = f"async_{self._sequence}"
        seconds = (
            self.service.deadline_seconds
            if deadline_seconds is None
            else deadline_seconds
        )
        deadline = Deadline.after(seconds) if seconds is not None else None
        fingerprint = fingerprint_sql(sql)
        request = AdmissionRequest(
            name=name,
            client=client,
            priority=priority,
            fingerprint=fingerprint.digest,
            deadline=deadline,
        )
        try:
            ticket = self.admission.admit(request)
        except QueryShed as shed:
            self._record_shed(name, shed)
            raise
        ticket.waiter = loop.create_future()
        self._dispatch()
        try:
            await ticket.waiter
        except QueryShed as shed:
            self._record_shed(name, shed)
            raise
        # Dispatched: the ticket owns an execution slot until released.
        try:
            outcome = await loop.run_in_executor(
                self._pool,
                self._run_sync,
                sql,
                fingerprint,
                name,
                pipeline,
                deadline,
            )
        except BaseException:
            self.admission.release(ticket, "error")
            raise
        else:
            self.admission.release(ticket, "ok")
            return outcome
        finally:
            self._dispatch()

    def _run_sync(self, sql, fingerprint, name, pipeline, deadline) -> ServiceResult:
        # The service's one statement slot: retries applied, failure
        # returned as a record.  Admission already tokenized the
        # statement, so the worker does not lex it again.
        outcome = self.service._slot(sql, name, pipeline, deadline, fingerprint)
        if outcome.error is not None:
            raise outcome.error
        return outcome

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Move queued tickets into free execution slots.

        Runs on the event loop thread (called after every admission and
        every completion), so waiter futures are always resolved on
        their own loop.  Tickets carrying a ``dequeue_error`` — an
        expired deadline or an injected ``service.dequeue`` fault — get
        the typed error delivered and their slot released immediately.
        """
        while True:
            ticket = self.admission.next_ready()
            if ticket is None:
                return
            waiter = ticket.waiter
            error = ticket.dequeue_error
            if error is not None:
                self.admission.release(ticket, "shed")
                if waiter is not None and not waiter.done():
                    waiter.set_exception(error)
                continue
            if waiter is None or waiter.done():
                # The caller abandoned the wait (e.g. asyncio timeout
                # cancelled it); give the slot straight back.
                self.admission.release(ticket, "shed")
                continue
            waiter.set_result(ticket)

    def _record_shed(self, name: str, shed: QueryShed) -> None:
        tracer = self.service.tracer
        if tracer is not None:
            tracer.event(
                "resilience.shed",
                query=name,
                reason=shed.reason,
                retry_after=shed.retry_after,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        """The underlying :meth:`QueryService.stats` snapshot."""
        return self.service.stats()

    def admission_stats(self):
        """Snapshot of the admission counters (sheds by reason, queue
        depth high-water mark, wait time, breaker trips)."""
        return self.admission.stats()

    def telemetry_snapshot(self) -> dict:
        """Histogram summaries including ``admission_wait_seconds`` and
        ``queue_depth`` (see :meth:`QueryService.telemetry_snapshot`)."""
        return self.service.telemetry_snapshot()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Graceful, idempotent shutdown.

        New submissions are refused with
        :class:`~repro.errors.ServiceClosed`; queued admissions are
        cancelled with the same typed error (never an opaque pool
        ``RuntimeError``); queries already executing drain to
        completion before the executor pool is torn down.  The
        underlying :class:`QueryService` is closed only if this facade
        created it.
        """
        self._closed = True
        cancelled = self.admission.close()
        for ticket in cancelled:
            waiter = ticket.waiter
            if waiter is not None and not waiter.done():
                waiter.set_exception(
                    ServiceClosed(
                        f"query {ticket.request.name!r} cancelled: service "
                        "closed while it was queued"
                    )
                )
        while self.admission.running:
            await asyncio.sleep(0.005)
        self._pool.shutdown(wait=True)
        if self._owns_service:
            self.service.close()

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
