"""Per-query execution context: deadlines, cancellation, budgets.

The resilience substrate the service tier sits on.  One
:class:`ExecutionContext` travels with a query through optimization and
execution; engine code calls its checkpoints at natural task boundaries
(plan-node dispatch, morsel tasks, filter builds, optimizer
enumeration steps).  Everything here is *cooperative*: nothing is ever
interrupted mid-kernel, so a query that trips a limit always leaves the
shared worker pool, plan cache, and filter cache in a clean state.

Design constraints:

* **Zero overhead when disabled.**  The default context is ``None``
  everywhere; hot paths pay one attribute load and a ``None`` test.
  An armed checkpoint is one monotonic-clock read and two compares.
* **First failure wins.**  The deadline check runs before the
  cancellation check, so every worker that observes an expired
  deadline raises :class:`~repro.errors.QueryTimeout` itself; the
  token exists to short-circuit *siblings* of a failed task, and the
  barrier prefers root causes over secondary
  :class:`~repro.errors.QueryCancelled` signals.
* **Budgets meter real work.**  :class:`ResourceBudget` is enforced
  against the engine's existing ``rows_copied`` / ``bytes_gathered``
  counters — the same accounting the zero-copy benchmarks report — so
  a breach means actual materialization happened, not an estimate.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.errors import QueryCancelled, QueryTimeout, ResourceExhausted


class Deadline:
    """An absolute wall-clock limit, compared against a monotonic clock.

    >>> d = Deadline.after(60.0)
    >>> d.expired()
    False
    >>> d.remaining() <= 60.0
    True
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float, *, start: float | None = None) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be a positive number of seconds")
        self.seconds = float(seconds)
        began = time.monotonic() if start is None else start
        self._expires_at = began + self.seconds

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(seconds)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline({self.seconds:.3f}s, {self.remaining():.3f}s left)"


class CancelToken:
    """Thread-safe cooperative cancellation flag shared by one query.

    ``cancel()`` is idempotent and records only the *first* reason —
    the root cause a post-mortem wants.  Reading :attr:`cancelled` is a
    single attribute load (no lock), cheap enough for per-morsel
    checks.
    """

    __slots__ = ("_lock", "_cancelled", "_reason")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str | None:
        return self._reason


@dataclasses.dataclass(frozen=True)
class ResourceBudget:
    """Per-query caps on materialized work.

    Enforced against :class:`~repro.engine.metrics.ExecutionMetrics`
    counters at checkpoint boundaries: ``max_rows_copied`` bounds rows
    gathered into materialized columns, ``max_bytes_gathered`` bounds
    the bytes those gathers moved.  ``None`` disables a cap.
    """

    max_rows_copied: int | None = None
    max_bytes_gathered: int | None = None

    def breach(self, metrics) -> str | None:
        """Description of the first breached cap, or ``None``."""
        if (
            self.max_rows_copied is not None
            and metrics.rows_copied > self.max_rows_copied
        ):
            return (
                f"rows_copied {metrics.rows_copied} exceeds budget "
                f"{self.max_rows_copied}"
            )
        if (
            self.max_bytes_gathered is not None
            and metrics.bytes_gathered > self.max_bytes_gathered
        ):
            return (
                f"bytes_gathered {metrics.bytes_gathered} exceeds budget "
                f"{self.max_bytes_gathered}"
            )
        return None


class ExecutionContext:
    """Everything one query carries for resilience enforcement.

    Parameters
    ----------
    query:
        Name used in error messages and metrics.
    deadline:
        A :class:`Deadline`, or a float of seconds (converted with
        :meth:`Deadline.after`), or ``None`` (no wall-clock limit).
    budget:
        A :class:`ResourceBudget` or ``None`` (no caps).
    cancel_token:
        Shared token; created fresh when omitted.
    """

    __slots__ = ("query", "deadline", "budget", "cancel_token")

    def __init__(
        self,
        query: str = "query",
        deadline: Deadline | float | None = None,
        budget: ResourceBudget | None = None,
        cancel_token: CancelToken | None = None,
    ) -> None:
        self.query = query
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline.after(float(deadline))
        self.deadline = deadline
        self.budget = budget
        self.cancel_token = cancel_token if cancel_token is not None else CancelToken()

    @property
    def enabled(self) -> bool:
        """Whether any enforcement is armed (contexts with nothing to
        enforce can be dropped entirely, restoring the zero-cost path)."""
        return self.deadline is not None or self.budget is not None

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token; every later checkpoint raises
        :class:`~repro.errors.QueryCancelled`."""
        self.cancel_token.cancel(reason)

    def check(self) -> None:
        """Deadline + cancellation checkpoint (raises on violation).

        Deadline first: a worker that finds the clock expired raises
        :class:`~repro.errors.QueryTimeout` itself (and trips the token
        for its siblings) rather than reporting a derived cancellation.
        """
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            overshoot = -deadline.remaining()
            self.cancel_token.cancel(
                f"deadline of {deadline.seconds:.3f}s exceeded"
            )
            raise QueryTimeout(
                f"query {self.query!r} exceeded its deadline of "
                f"{deadline.seconds:.3f}s (by {overshoot:.3f}s)"
            )
        token = self.cancel_token
        if token.cancelled:
            raise QueryCancelled(
                f"query {self.query!r} cancelled: {token.reason}"
            )

    def check_budget(self, metrics) -> None:
        """Resource-budget checkpoint against live counters."""
        budget = self.budget
        if budget is None:
            return
        breach = budget.breach(metrics)
        if breach is not None:
            self.cancel_token.cancel(f"resource budget breached: {breach}")
            raise ResourceExhausted(
                f"query {self.query!r} breached its resource budget: {breach}"
            )

    def checkpoint(self, metrics) -> None:
        """The full per-boundary check: deadline, cancellation, budget."""
        self.check()
        self.check_budget(metrics)
