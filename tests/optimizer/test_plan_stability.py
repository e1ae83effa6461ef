"""Plan-stability golden: no optimizer change may silently move a plan.

For every statement of the four bundled workloads, under five pipelines,
the golden pins a digest of ``OptimizedPlan.signature`` and
``repr(estimated_cout)``.  A change that is meant to be a pure
optimizer-speed change keeps ``plan_stability_golden.json`` byte
identical; a change that is meant to move plans regenerates it with

    PYTHONPATH=src python tests/optimizer/test_plan_stability.py

and says so.  (``perf/golden/`` digests *answers*; this digests *plans*.)
The data is seeded, so the figures repeat bit for bit on one NumPy
version; a NumPy upgrade that changes a generator stream is the other
legitimate reason to regenerate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.optimizer.pipelines import optimize_query
from repro.workloads import customer_lite, job_lite, star, tpcds_lite

GOLDEN_PATH = Path(__file__).with_name("plan_stability_golden.json")
PIPELINES = ("bqo", "original", "original_nobv", "bqo_allfilters", "dp")
# Same scales as the session fixtures in tests/conftest.py.
WORKLOADS = {
    "tpcds_lite": (tpcds_lite, 0.02),
    "job_lite": (job_lite, 0.02),
    "customer_lite": (customer_lite, 0.05),
    "star": (star, 0.05),
}


def plan_digests(workload: str) -> dict[str, str]:
    """``{"<statement>/<pipeline>": "<signature sha256[:16]> <cout>"}``."""
    module, scale = WORKLOADS[workload]
    database, specs = module.build(scale=scale)
    out: dict[str, str] = {}
    for spec in specs:
        for pipeline in PIPELINES:
            optimized = optimize_query(database, spec, pipeline)
            signature = hashlib.sha256(
                optimized.signature.encode("utf-8")
            ).hexdigest()[:16]
            out[f"{spec.name}/{pipeline}"] = (
                f"{signature} {optimized.estimated_cout!r}"
            )
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plans_match_golden(workload):
    golden = json.loads(GOLDEN_PATH.read_text())[workload]
    got = plan_digests(workload)
    assert sorted(got) == sorted(golden)
    moved = {
        key: (golden[key], value)
        for key, value in got.items()
        if golden[key] != value
    }
    assert not moved, f"(golden, got) per moved plan: {moved}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {name: plan_digests(name) for name in sorted(WORKLOADS)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
