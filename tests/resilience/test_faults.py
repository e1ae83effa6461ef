"""The fault-injection harness itself: deterministic, bounded, free
when disabled.

These tests drive :func:`repro.testing.fault_point` directly (no
engine involved) so the contract of the harness — exact-invocation
rules, seeded Bernoulli draws, stall actions, install/uninstall
hygiene — is pinned independently of where the engine places its
sites.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ReproError
from repro.testing import FaultPlan, InjectedFault, TransientFault, fault_point, inject
from repro.testing.faults import REGISTERED_SITES, install, uninstall


def test_raise_at_fires_exactly_once_at_named_invocation():
    plan = FaultPlan(seed=1).raise_at("morsel.task", invocation=2)
    with inject(plan):
        fault_point("morsel.task")
        fault_point("morsel.task")
        with pytest.raises(InjectedFault, match="morsel.task"):
            fault_point("morsel.task")
        fault_point("morsel.task")  # invocation 3: rule spent
    assert plan.count("morsel.task") == 4
    assert plan.total_fired == 1
    record = plan.fired[0]
    assert (record.site, record.invocation, record.action) == (
        "morsel.task", 2, "raise",
    )


def test_custom_exception_type_and_message():
    plan = FaultPlan().raise_at(
        "cache.publish", exc_type=TransientFault, message="flaky publish"
    )
    with inject(plan), pytest.raises(TransientFault, match="flaky publish"):
        fault_point("cache.publish")


def test_injected_fault_taxonomy():
    assert issubclass(TransientFault, InjectedFault)
    assert issubclass(InjectedFault, ReproError)


def test_stall_sleeps_without_raising():
    plan = FaultPlan().stall_at("morsel.task", seconds=0.05)
    with inject(plan):
        started = time.perf_counter()
        fault_point("morsel.task")  # stalls, returns normally
        elapsed = time.perf_counter() - started
    assert elapsed >= 0.04
    assert plan.fired[0].action == "stall"


def test_probability_draws_are_seed_deterministic():
    def run(seed):
        plan = FaultPlan(seed=seed).raise_with_probability(
            "filter.build", probability=0.3
        )
        fired = []
        with inject(plan):
            for invocation in range(60):
                try:
                    fault_point("filter.build")
                except InjectedFault:
                    fired.append(invocation)
        return fired

    first, second = run(seed=9), run(seed=9)
    assert first == second
    assert first  # 60 draws at p=0.3: fires with overwhelming probability


def test_max_fires_bounds_probabilistic_rules():
    plan = FaultPlan(seed=4).raise_with_probability(
        "pool.submit", probability=1.0, max_fires=3
    )
    with inject(plan):
        for _ in range(10):
            try:
                fault_point("pool.submit")
            except InjectedFault:
                pass
    assert plan.total_fired == 3
    assert plan.count("pool.submit") == 10


def test_probability_validation():
    with pytest.raises(ValueError):
        FaultPlan().raise_with_probability("morsel.task", probability=1.5)


def test_install_is_exclusive():
    plan = FaultPlan()
    with inject(plan):
        with pytest.raises(RuntimeError, match="already installed"):
            install(FaultPlan())
    uninstall()  # idempotent


def test_fault_point_is_noop_when_disarmed():
    plan = FaultPlan().raise_at("morsel.task", invocation=0)
    for site in REGISTERED_SITES:
        fault_point(site)  # nothing installed: free no-op
    with inject(plan):
        pass
    fault_point("morsel.task")  # plan was disarmed on exit
    assert plan.count("morsel.task") == 0


def test_disarm_after_exception_inside_inject():
    with pytest.raises(InjectedFault):
        with inject(FaultPlan().raise_at("morsel.task")):
            fault_point("morsel.task")
    fault_point("morsel.task")  # the manager disarmed on the error path
