"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """Raised when a schema definition or lookup is invalid.

    Examples: duplicate table names, unknown columns, foreign keys that
    reference columns that do not exist, or key column type mismatches.
    """


class DataError(ReproError):
    """Raised when table data violates schema constraints.

    Examples: ragged columns, duplicate primary-key values, foreign-key
    values that do not appear in the referenced key.
    """


class QueryError(ReproError):
    """Raised when a query specification is malformed.

    Examples: predicates over unknown aliases, join edges with mismatched
    column counts, disconnected join graphs where connectivity is required.
    """


class SqlError(QueryError):
    """Raised for SQL lexing, parsing, or binding failures."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class PlanError(ReproError):
    """Raised when a physical plan is structurally invalid.

    Examples: a join whose key columns are not produced by its children,
    or a bitvector filter applied at a node that lacks its columns.
    """


class OptimizerError(ReproError):
    """Raised when the optimizer cannot produce a plan.

    Examples: join graphs with no valid right-deep order, or plan spaces
    that are empty after pruning.
    """


class ExecutionError(ReproError):
    """Raised when the execution engine encounters an invalid state."""


class MorselTaskError(ExecutionError):
    """A morsel worker task failed.

    Wraps the worker's original exception (available as ``__cause__``)
    with the query name and morsel row range, so a failure deep inside
    a parallel region is diagnosable from the message alone.  Policy
    errors (:class:`ResilienceError` subclasses) are *not* wrapped —
    they already carry query context and must keep their type for the
    service layer's accounting and degradation logic.
    """


class ServiceError(ReproError):
    """Raised by the query service layer (:mod:`repro.service`).

    Examples: a cached plan whose parameter count disagrees with the
    incoming query's fingerprint (an internal invariant violation), or
    service misconfiguration.
    """


class ServiceClosed(ServiceError):
    """Raised when a query reaches a service that has been closed.

    :meth:`repro.service.QueryService.close` and
    :meth:`repro.service.AsyncQueryService.close` are terminal and
    idempotent: in-flight queries complete, queued admissions are
    cancelled with this error, and every later submission raises it
    immediately instead of touching a dead pool.
    """


class ResilienceError(ReproError):
    """Base for resource-policy failures of one in-flight query.

    Raised cooperatively at checkpoint boundaries (morsel tasks, plan
    nodes, filter builds, optimizer enumeration steps), never
    asynchronously, so shared state — the worker pool, plan cache, and
    bitvector filter cache — is always left clean for the next query.

    ``partial_metrics`` carries the
    :class:`~repro.engine.metrics.ExecutionMetrics` accumulated up to
    the abort (attached by the executor), so callers can account the
    work a killed query still performed.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.partial_metrics = None


class QueryTimeout(ResilienceError):
    """Raised when a query exceeds its wall-clock deadline.

    The deadline is carried by an
    :class:`~repro.engine.context.ExecutionContext` and checked
    cooperatively; tripping it cancels the query's
    :class:`~repro.engine.context.CancelToken` so sibling morsel tasks
    short-circuit instead of finishing doomed work.
    """


class QueryCancelled(ResilienceError):
    """Raised at a checkpoint after the query's cancel token tripped.

    Workers observe cancellation *after* the root cause (a deadline
    trip, a sibling task's failure, or an explicit ``cancel()``) — the
    barrier in :func:`repro.engine.parallel.run_morsel_tasks` prefers
    the root cause over this secondary signal when both arrive.
    """


class ResourceExhausted(ResilienceError):
    """Raised when a query breaches its per-query resource budget.

    Budgets bound materialized rows and gathered bytes (the engine's
    ``rows_copied`` / ``bytes_gathered`` counters — see
    :class:`~repro.engine.context.ResourceBudget`).  The service layer
    can instead degrade the query to the serial path when configured
    with ``degrade="serial"``.
    """


class QueryShed(ResilienceError):
    """Raised when admission control refuses a query under overload.

    Shedding is the service tier protecting the queries it already
    accepted: a shed response returns in microseconds instead of
    queueing doomed work.  ``reason`` names the policy that refused
    admission (``"quota"``, ``"queue"``, ``"deadline"``, ``"breaker"``)
    and ``retry_after`` is the controller's hint, in seconds, for when
    a retry has a realistic chance of being admitted (``None`` when the
    controller cannot estimate one).
    """

    def __init__(
        self,
        message: str,
        reason: str = "overload",
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after
