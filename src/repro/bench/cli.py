"""Command-line experiment runner.

Regenerates the paper's workload-level figures/tables without pytest::

    python -m repro.bench --workload tpcds --scale 0.15
    python -m repro.bench --workload all --scale 0.1 --pipelines original bqo dp

Prints Figure 8 (CPU by selectivity group), Figure 9 (tuples by
operator), Figure 10 (top queries), and Table 4 (filters on/off) for
each requested workload.
"""

from __future__ import annotations

import argparse

from repro.bench.harness import run_workload
from repro.bench.reporting import (
    figure8_rows,
    figure9_rows,
    figure10_rows,
    render_table,
    table3_rows,
    table4_rows,
)
from repro.workloads import WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's workload experiments.",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS) + ["all"],
        default="tpcds",
        help="which synthetic workload to run (default: tpcds)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.15,
        help="data scale factor (default: 0.15)",
    )
    parser.add_argument(
        "--pipelines", nargs="+",
        default=["original", "bqo", "original_nobv"],
        help="pipelines to compare (default: original bqo original_nobv)",
    )
    parser.add_argument(
        "--top", type=int, default=15,
        help="queries shown in the Figure 10 table (default: 15)",
    )
    return parser


def run_one(name: str, scale: float, pipelines: list[str], top: int) -> None:
    module = WORKLOADS[name]
    database, queries = module.build(scale=scale)
    print(render_table(
        table3_rows([(name, database, queries)]),
        f"\n=== {name} (scale {scale}) — Table 3 statistics ===",
    ))
    result = run_workload(name, database, queries, pipelines=tuple(pipelines))
    if "original" in pipelines and "bqo" in pipelines:
        print()
        print(render_table(figure8_rows(result), "Figure 8 — CPU by group"))
        print()
        print(render_table(figure9_rows(result), "Figure 9 — tuples by operator"))
        print()
        print(render_table(
            [
                {
                    "query": r["query"],
                    "original": round(r["original"], 4),
                    "bqo": round(r["bqo"], 4),
                    "speedup": round(r["speedup"], 2),
                }
                for r in figure10_rows(result, top=top)
            ],
            "Figure 10 — top queries",
        ))
    if "original" in pipelines and "original_nobv" in pipelines:
        print()
        print(render_table(table4_rows(result), "Table 4 — filters on/off"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_one(name, args.scale, list(args.pipelines), args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
