"""Seeded, deterministic fault injection for the execution tier.

The chaos suite needs to prove a *negative*: that no failure at any
internal boundary can poison shared state (worker pool, plan cache,
bitvector filter cache) for the queries that follow.  That requires
failures that are (a) injectable at named internal sites, (b) exactly
reproducible run-to-run, and (c) free when disabled — production code
paths must not slow down for a testing facility.

Registered sites (the engine's ``fault_point(site)`` calls):

========================  =====================================================
``"pool.submit"``         one batch submission to the shared morsel pool
                          (:func:`repro.engine.parallel.run_morsel_tasks`)
``"morsel.task"``         one morsel worker task, in dispatch order
                          (:meth:`repro.engine.executor.Executor._map_ranges`)
``"filter.build"``        one bitvector filter build, of any kind, before
                          any key is read
                          (:meth:`repro.engine.executor.Executor._build_join_filter`)
``"cache.publish"``       publication of a built filter into the
                          :class:`~repro.filters.cache.BitvectorFilterCache`
``"service.admit"``       one admission decision in the service front-end
                          (:meth:`repro.service.admission.AdmissionController.admit`)
``"service.dequeue"``     dispatch of one queued admission ticket
                          (:meth:`repro.service.admission.AdmissionController.next_ready`)
========================  =====================================================

Each site keeps an invocation counter; rules trigger on exact
invocation indices (``raise_at(site, invocation=N)``) or on a seeded
per-site Bernoulli draw (``raise_with_probability``), so a given
``(FaultPlan(seed), workload)`` pair always fires the same faults.

Zero overhead when disabled: :func:`fault_point` is one module-global
load and a ``None`` test.  Plans are installed process-wide with
:func:`inject` (a context manager), mirroring how a chaos test wraps
one query.

>>> plan = FaultPlan(seed=7).raise_at("morsel.task", invocation=2)
>>> with inject(plan):
...     fault_point("morsel.task")  # invocation 0: no fire
...     fault_point("morsel.task")  # invocation 1: no fire
...     try:
...         fault_point("morsel.task")  # invocation 2: fires
...     except InjectedFault:
...         print("fired")
fired
>>> fault_point("morsel.task")  # uninstalled: free no-op
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time

from repro.errors import ReproError
from repro.util.rng import derive_rng

#: Sites the engine currently registers; plans may name others (they
#: simply never fire), but tests iterate this tuple for coverage.
REGISTERED_SITES = (
    "pool.submit",
    "morsel.task",
    "filter.build",
    "cache.publish",
    "service.admit",
    "service.dequeue",
)

#: The subset of sites reached by a plain (non-admission-controlled)
#: ``Executor`` / ``QueryService`` execution; the ``service.*`` sites
#: fire only on the admission-controlled async path
#: (:class:`repro.service.AsyncQueryService`).
ENGINE_SITES = tuple(
    site for site in REGISTERED_SITES if not site.startswith("service.")
)


class InjectedFault(ReproError):
    """A deliberately injected failure (chaos testing only)."""


class TransientFault(InjectedFault):
    """An injected failure modeling a transient condition.

    The retry whitelist in :class:`repro.service.retry.RetryPolicy`
    examples uses this type: it is the kind of error a bounded
    backoff-and-retry is allowed to absorb.
    """


@dataclasses.dataclass(frozen=True)
class FaultRecord:
    """One fired fault, for post-run assertions."""

    site: str
    invocation: int
    action: str
    detail: str


class _Rule:
    """One trigger: exact invocations and/or a seeded probability."""

    __slots__ = ("action", "invocations", "probability", "exc_type",
                 "message", "seconds", "max_fires", "fires")

    def __init__(
        self,
        action: str,
        invocations: frozenset[int],
        probability: float,
        exc_type: type,
        message: str | None,
        seconds: float,
        max_fires: int | None,
    ) -> None:
        self.action = action
        self.invocations = invocations
        self.probability = probability
        self.exc_type = exc_type
        self.message = message
        self.seconds = seconds
        self.max_fires = max_fires
        self.fires = 0


class FaultPlan:
    """A deterministic schedule of failures and stalls by site.

    Thread-safe: site counters and rule bookkeeping are updated under
    one lock; the injected action (raise / sleep) runs outside it.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._rules: dict[str, list[_Rule]] = {}
        self._rngs: dict[str, object] = {}
        self.fired: list[FaultRecord] = []

    # -- rule registration (chainable) ---------------------------------

    def raise_at(
        self,
        site: str,
        invocation: int = 0,
        exc_type: type = InjectedFault,
        message: str | None = None,
    ) -> "FaultPlan":
        """Raise ``exc_type`` at the ``invocation``-th hit of ``site``."""
        self._rules.setdefault(site, []).append(
            _Rule("raise", frozenset({invocation}), 0.0, exc_type,
                  message, 0.0, None)
        )
        return self

    def stall_at(
        self, site: str, invocation: int = 0, seconds: float = 0.05
    ) -> "FaultPlan":
        """Sleep ``seconds`` at the ``invocation``-th hit of ``site``
        (models a stalled worker; pairs with deadlines)."""
        self._rules.setdefault(site, []).append(
            _Rule("stall", frozenset({invocation}), 0.0, InjectedFault,
                  None, float(seconds), None)
        )
        return self

    def raise_with_probability(
        self,
        site: str,
        probability: float,
        exc_type: type = InjectedFault,
        message: str | None = None,
        max_fires: int | None = None,
    ) -> "FaultPlan":
        """Raise on a seeded per-invocation Bernoulli draw.

        Draws come from a per-site stream derived from the plan seed
        (:func:`repro.util.rng.derive_rng`), consumed in invocation
        order — same seed, same workload, same firings.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self._rules.setdefault(site, []).append(
            _Rule("raise", frozenset(), float(probability), exc_type,
                  message, 0.0, max_fires)
        )
        return self

    # -- engine-facing --------------------------------------------------

    def fire(self, site: str) -> None:
        """Called by :func:`fault_point`; performs any matching action."""
        action = None
        with self._lock:
            invocation = self._counts.get(site, 0)
            self._counts[site] = invocation + 1
            for rule in self._rules.get(site, ()):
                if rule.max_fires is not None and rule.fires >= rule.max_fires:
                    continue
                matched = invocation in rule.invocations
                if not matched and rule.probability > 0.0:
                    rng = self._rngs.get(site)
                    if rng is None:
                        rng = derive_rng(self.seed, f"fault:{site}")
                        self._rngs[site] = rng
                    matched = float(rng.random()) < rule.probability
                if matched:
                    rule.fires += 1
                    detail = rule.message or (
                        f"injected {rule.action} at {site}#{invocation}"
                    )
                    self.fired.append(
                        FaultRecord(site, invocation, rule.action, detail)
                    )
                    action = rule
                    break
        if action is None:
            return
        if action.action == "stall":
            time.sleep(action.seconds)
            return
        detail = action.message or (
            f"injected fault at site {site!r} (invocation "
            f"{self.fired[-1].invocation})"
        )
        raise action.exc_type(detail)

    # -- introspection --------------------------------------------------

    def count(self, site: str) -> int:
        """Invocations of ``site`` observed so far."""
        with self._lock:
            return self._counts.get(site, 0)

    @property
    def total_fired(self) -> int:
        with self._lock:
            return len(self.fired)


_active: FaultPlan | None = None
_install_lock = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (prefer the :func:`inject` manager)."""
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError("a fault plan is already installed")
        _active = plan


def uninstall() -> None:
    """Disarm any installed plan (idempotent)."""
    global _active
    with _install_lock:
        _active = None


@contextlib.contextmanager
def inject(plan: FaultPlan):
    """Arm ``plan`` for the duration of the block, then disarm."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def fault_point(site: str) -> None:
    """Hot-path hook: no-op unless a plan is installed.

    Engine code calls this at the registered sites; the disabled cost
    is one global load and a ``None`` comparison.
    """
    plan = _active
    if plan is not None:
        plan.fire(site)
