#!/usr/bin/env python3
"""Count the statements where BQO's plan loses to the blind optimizer's.

For each benchmark workload (``perf/perf_workloads.py``: the TPC-DS,
JOB, CUSTOMER and star schemas with their statement streams), this
plans every distinct statement afresh under the ``bqo`` and the
``original`` pipelines and counts two inversions:

* **estimated**: BQO's plan has a higher estimated ``C_out`` than the
  blind plan, the model ranking its own pick below the one it rejected;
* **metered**: executing BQO's plan meters more CPU than executing the
  blind plan (one serial executor per plan, exact filters, no caches).

The counts are a record, not a gate: a cost model that prices what the
engine runs should drive both towards zero.  Run::

    PYTHONPATH=src python tools/bqo_inversions.py            # smoke scale
    PYTHONPATH=src python tools/bqo_inversions.py --scale 1  # benchmark scale

``--scale`` multiplies each workload's benchmark data scale (default
0.05, the benchmark's ``--smoke`` scale).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIPELINES = ("bqo", "original")


def _import_workloads():
    """``perf_workloads`` with ``repro`` importable from ``src/``."""
    for path in (ROOT / "src", ROOT / "perf"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import perf_workloads
    return perf_workloads


def count_inversions(workload, seed: int, scale: float) -> dict[str, int]:
    """Distinct statements, and those whose BQO plan is priced or metered
    above the blind plan."""
    from repro import Executor, optimize_query

    database = workload.build(seed, scale)
    distinct = {}
    for client in workload.make_stream(database, seed):
        for statement in client:
            distinct.setdefault(statement.key, statement.spec)
    counts = {"statements": len(distinct), "estimated": 0, "metered": 0}
    for spec in distinct.values():
        plans = {
            pipeline: optimize_query(database, spec, pipeline)
            for pipeline in PIPELINES
        }
        bqo, blind = (plans[pipeline] for pipeline in PIPELINES)
        counts["estimated"] += bqo.estimated_cout > blind.estimated_cout
        metered = {
            pipeline: Executor(database).execute(plans[pipeline].plan)
            .metrics.metered_cpu()
            for pipeline in PIPELINES
        }
        counts["metered"] += metered["bqo"] > metered["original"]
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = _import_workloads().WORKLOADS
    print(f"{'workload':<20} {'statements':>10} {'estimated':>10} {'metered':>10}")
    for name, workload in workloads.items():
        counts = count_inversions(workload, args.seed, args.scale)
        print(
            f"{name:<20} {counts['statements']:>10} "
            f"{counts['estimated']:>10} {counts['metered']:>10}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
