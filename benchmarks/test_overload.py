"""Overload benchmark gate — shedding is graceful, goodput holds.

Runs :func:`repro.bench.overload.run_overload` at a reduced scale with
short levels and asserts the acceptance bar with CI-noise-tolerant
thresholds (the committed ``BENCH_overload.json``, generated on a quiet
machine at the default scale, carries the tight numbers gated by
``tools/check_overload.py``):

* the 1x level admits everything; every overloaded level sheds;
* sheds always carry a retry-after hint;
* wall-clock figures are printed and recorded, not asserted: each
  level's shed p99 (the committed artifact's is gated by
  ``tools/check_overload.py``), and goodput at 16x offered load
  relative to 1x — the >= 50% gate that used to sit here failed about
  one tier-1 run in three on a busy 2-core box (ROADMAP 6b); the
  committed artifact's >= 80% is still gated by the same tool;
* every admitted answer is checksum-identical to the serial oracle.
"""

from __future__ import annotations

import pytest

from repro.bench.overload import run_overload


@pytest.fixture(scope="module")
def payload():
    return run_overload(scale=0.3, level_seconds=1.0)


def test_capacity_traffic_is_admitted_and_overload_sheds(payload):
    levels = {level["factor"]: level for level in payload["levels"]}
    assert levels[1]["shed_rate"] <= 0.05
    assert levels[16]["sheds"] > 0
    assert all(
        level["sheds_without_hint"] == 0 for level in payload["levels"]
    )


def test_sheds_are_refusals_not_work(payload, record_property):
    # A shed's latency is wall-clock: recorded and printed, not gated.
    for level in payload["levels"]:
        if level["sheds"]:
            name = f"shed_p99_seconds_{level['factor']}x"
            record_property(name, level["shed_p99_seconds"])
            print(f"{name}: {level['shed_p99_seconds']:.4f} (reported, not gated)")


def test_goodput_does_not_collapse_under_overload(payload, record_property):
    levels = {level["factor"]: level for level in payload["levels"]}
    # Overload still completes work at all: a counter, not a clock.
    assert levels[16]["goodput_qps"] > 0
    ratio = levels[16]["goodput_qps"] / levels[1]["goodput_qps"]
    record_property("goodput_16x_over_1x", round(ratio, 3))
    print(f"goodput at 16x / 1x offered load: {ratio:.2f} (reported, not gated)")


def test_answers_identical_to_serial_oracle(payload):
    assert all(level["checksums_identical"] for level in payload["levels"])
