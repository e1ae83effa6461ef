#!/usr/bin/env python3
"""Compare two suite results of perf/run.py, A (the base) against B.

    python3 perf/compare.py perf/out/a/suite.json perf/out/b/suite.json

One row per workload x end-to-end metric: both values, the ratio B/A,
the bound from BENCHMARK.json and a verdict.  ``worse`` / ``better``:
B differs from A by more than the bound and more than either side's own
spread.  ``unresolved``: the difference is inside a spread that is
itself wider than the bound, so the run cannot tell.  A side's spread is
the distance between the quartiles of its samples over its value; for a
best-of-N value, which lies below its samples' first quartile, it is the
gap up to that quartile (how alone the best sample stands).  Exits 1 on
any ``worse`` and on a higher share of failed statements.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(m: dict) -> float:
    if m["q1"] < m["value"] <= m["q3"]:
        return (m["q3"] - m["q1"]) / m["value"]
    return abs(m["q1"] - m["value"]) / m["value"]


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    noise = max(spread(a), spread(b))
    change = b["value"] / a["value"] - 1.0
    worse_by = change if better == "lower" else -change
    if worse_by > max(bound, noise):
        return "worse"
    if -worse_by > max(bound, noise):
        return "better"
    return "unresolved" if noise > bound else "same"


def failed_share(run: dict) -> float:
    return run["failed"] / run["attempted"]


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[dict], bool]:
    """Rows for every workload x end-to-end metric, and whether B passes."""
    rows, ok = [], True
    for workload in (w["name"] for w in benchmark["workloads"]):
        run_a = a["workloads"][workload]["end_to_end"]
        run_b = b["workloads"][workload]["end_to_end"]
        for metric in benchmark["end_to_end"]:
            m_a = run_a["metrics"][metric["name"]]
            m_b = run_b["metrics"][metric["name"]]
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "a": m_a["value"], "b": m_b["value"],
                "ratio": m_b["value"] / m_a["value"], "bound": metric["bound"],
                "verdict": verdict(
                    m_a, m_b, metric["bound"], metric["better"]
                ),
            })
            ok = ok and rows[-1]["verdict"] != "worse"
        shares = failed_share(run_a), failed_share(run_b)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "a": shares[0], "b": shares[1], "ratio": None, "bound": 0.0,
            "verdict": "worse" if shares[1] > shares[0] else "same",
        })
        ok = ok and shares[1] <= shares[0]
    return rows, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    benchmark = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    rows, ok = compare(a, b, benchmark)
    print(f"A = {argv[0]} (commit {a.get('commit')}, seed {a['seed']})")
    print(f"B = {argv[1]} (commit {b.get('commit')}, seed {b['seed']})")
    print(f"{'workload':18s} {'metric':18s} {'A':>11s} {'B':>11s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['workload']:18s} {row['metric']:18s} "
              f"{row['a']:11.5g} {row['b']:11.5g} {ratio:>7s} "
              f"{row['bound']:6.2f}  {row['verdict']} ({row['unit']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
