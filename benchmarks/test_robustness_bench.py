"""Robustness benchmark gate — enforcement is cheap, sheds and
degradations actually happen, recovery is clean.

Runs :func:`repro.bench.robustness.run_robustness` at a small scale
and asserts what does not depend on the clock:

* answers with a deadline armed are checksum-identical to answers
  without; the deadline-check overhead on the warm path is printed and
  recorded, not asserted (the < 15% gate that used to sit here is a
  wall-clock ratio over a ~20 ms pass and failed 1 standalone run in 12
  on a busy 2-core box, ROADMAP 6b; the committed
  ``BENCH_robustness.json`` artifact, generated on a quiet machine at
  the default scale, carries the tight < 2% number);
* the stress scenario records a non-zero enforced-timeout count and a
  non-zero graceful-degradation count, with zero failures in degrade
  mode (every budget breach still produced an answer);
* recovery answers after injected faults are checksum-identical to a
  serial oracle.
"""

from __future__ import annotations

import pytest

from repro.bench.robustness import run_robustness


@pytest.fixture(scope="module")
def payload():
    return run_robustness(scale=0.04, rounds=3, chaos_rounds=3)


def test_deadline_overhead_is_small_and_answers_identical(
    payload, record_property
):
    overhead = payload["deadline_overhead"]
    assert overhead["checksums_identical"]
    fraction = overhead["overhead_fraction"]
    record_property("deadline_overhead_fraction", round(fraction, 4))
    print(f"deadline-check overhead: {fraction:+.1%} (reported, not gated)")


def test_stress_records_sheds_and_degradations(payload):
    stress = payload["stress"]
    assert stress["enforced_timeouts"] > 0
    assert stress["degradations"] > 0
    assert stress["degraded_failures"] == 0
    assert stress["answered_under_degradation"] == stress["degradations"]
    assert stress["shed_matches_slice"]


def test_recovery_is_clean_and_bounded(payload):
    recovery = payload["recovery"]
    assert recovery["answers_identical_to_serial_oracle"]
    assert recovery["max_recovery_seconds"] < 30.0  # sanity, not perf
