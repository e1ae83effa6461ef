"""Bounded retry with decorrelated-jitter backoff for transient errors.

Both concurrent front doors of the service —
:meth:`repro.service.QueryService.run_many` and
:class:`repro.service.AsyncQueryService` — run each statement through
one service slot, which may absorb a *transient* failure — a fault the
next attempt has every reason to survive — by re-running the statement
a bounded number of times.  Two disciplines keep this safe in a serving tier:

* **Whitelist, not blacklist.**  Only exception types the caller
  explicitly declared transient are retried, and *policy* errors
  (:class:`~repro.errors.ResilienceError`: deadlines, budgets,
  cancellation) are never retried even if a whitelisted type appears in
  their cause chain — retrying a query that just blew its deadline only
  doubles the damage.  Because the engine wraps worker failures in
  :class:`~repro.errors.MorselTaskError`, the whitelist check walks the
  ``__cause__`` chain to see the original exception.
* **Decorrelated jitter.**  Synchronized retries from a batch of
  workers re-create the very contention that failed them; each delay is
  drawn as ``min(cap, uniform(base, previous * 3))`` from a seeded
  stream (:func:`repro.util.rng.derive_rng`), so backoff is spread out
  yet exactly reproducible in tests.
* **Deadline-aware backoff.**  A retry loop that carries a
  :class:`~repro.engine.context.Deadline` never sleeps past it: a
  backoff the remaining budget cannot cover raises
  :class:`~repro.errors.QueryTimeout` at once instead of burning the
  deadline asleep.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

from repro.engine.context import Deadline
from repro.errors import QueryTimeout, ResilienceError
from repro.testing.faults import TransientFault
from repro.util.rng import derive_rng


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How many times, for which errors, and with what backoff.

    ``max_attempts`` counts *total* attempts (1 = no retries).  The
    default whitelist contains only
    :class:`~repro.testing.faults.TransientFault` — the injected
    transient condition the chaos suite exercises; deployments extend
    ``retryable`` with their own transient types.
    """

    max_attempts: int = 3
    base_seconds: float = 0.005
    cap_seconds: float = 0.25
    seed: int = 0
    retryable: tuple[type, ...] = (TransientFault,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether one more attempt is allowed to absorb ``exc``.

        Walks the ``__cause__`` chain (the engine wraps worker errors
        with morsel context), but refuses outright when any link is a
        :class:`~repro.errors.ResilienceError` — policy enforcement is
        final.
        """
        seen: set[int] = set()
        node: BaseException | None = exc
        matched = False
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, ResilienceError):
                return False
            if isinstance(node, self.retryable):
                matched = True
            node = node.__cause__
        return matched

    def call(
        self,
        fn: Callable[[], object],
        sleep: Callable[[float], None] = time.sleep,
        deadline: Deadline | None = None,
    ) -> tuple[object, int]:
        """Run ``fn`` with retries; return ``(result, retries_used)``.

        Non-retryable failures (and the last allowed attempt's failure)
        propagate unchanged.  The jitter stream is derived fresh per
        call, so one statement's retries never perturb another's.

        With a ``deadline``, every backoff sleep is checked against
        :meth:`~repro.engine.context.Deadline.remaining` *before* it is
        taken: a sleep the remaining budget cannot cover raises
        :class:`~repro.errors.QueryTimeout` immediately (chaining the
        attempt's failure as ``__cause__``) rather than burning the
        budget asleep only to time out on the next attempt anyway.
        """
        rng = derive_rng(self.seed, "retry:backoff")
        previous = self.base_seconds
        attempt = 0
        while True:
            try:
                return fn(), attempt
            except Exception as exc:
                attempt += 1
                if attempt >= self.max_attempts or not self.is_retryable(exc):
                    raise
                previous = min(
                    self.cap_seconds,
                    float(rng.uniform(self.base_seconds, previous * 3)),
                )
                if deadline is not None and previous >= deadline.remaining():
                    raise QueryTimeout(
                        f"retry backoff of {previous:.3f}s exceeds the "
                        f"remaining deadline of {deadline.remaining():.3f}s "
                        f"(after {attempt} failed attempt(s))"
                    ) from exc
                sleep(previous)
