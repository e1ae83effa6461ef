"""Command-line experiment runner.

Regenerates the paper's workload-level figures/tables without pytest::

    python -m repro.bench --workload tpcds --scale 0.15
    python -m repro.bench --workload all --scale 0.1 --pipelines original bqo dp

Prints Figure 8 (CPU by selectivity group), Figure 9 (tuples by
operator), Figure 10 (top queries), and Table 4 (filters on/off) for
each requested workload.

Beyond the paper figures, ``--experiment`` selects a named engine
experiment (see :data:`EXPERIMENTS` — the argparse help enumerates
them), each writing a JSON perf artifact the repo tracks over time::

    python -m repro.bench --experiment parallel-scaling \
        --output BENCH_parallel_scaling.json
    python -m repro.bench --experiment zonemap-pruning \
        --output BENCH_zonemap_pruning.json
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
        "--scale", type=float, default=None,
        help="data scale factor (default: 0.15 for paper figures, "
        "1.0 for parallel-scaling)",
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
    parser.add_argument(
        "--experiment",
        choices=sorted(EXPERIMENTS),
        default="paper",
        help="which experiment to run: "
        + "; ".join(
            f"{name!r} = {entry.description}"
            for name, entry in sorted(EXPERIMENTS.items())
        ),
    )
    parser.add_argument(
        "--parallelism", type=int, nargs="+", default=None,
        help="worker counts for the parallel-scaling (default: 1 2 4), "
        "zonemap-pruning, and build-parallel (default: 1 4) experiments",
    )
    parser.add_argument(
        "--morsel-rows", type=int, default=16384,
        help="target rows per morsel for the engine experiments",
    )
    parser.add_argument(
        "--output", default=None,
        help="JSON artifact path (default: the experiment's canonical "
        "BENCH_*.json name)",
    )
    return parser


def _artifact_path(args) -> str:
    if args.output is not None:
        return args.output
    return EXPERIMENTS[args.experiment].artifact


def run_scaling(args) -> None:
    from repro.bench.scaling import run_parallel_scaling, write_scaling_report

    payload = run_parallel_scaling(
        scale=args.scale if args.scale is not None else 1.0,
        parallelism_levels=tuple(args.parallelism or (1, 2, 4)),
        morsel_rows=args.morsel_rows,
    )
    rows = [
        {
            "parallelism": level["parallelism"],
            "warm_seconds": level["warm_seconds"],
            "speedup": level["speedup"],
        }
        for level in payload["levels"]
    ]
    print(render_table(
        rows,
        f"\n=== parallel scaling — star-20q (scale {payload['scale']}, "
        f"{payload['cpu_cores']} cores, morsels of {payload['morsel_rows']}) ===",
    ))
    print(f"checksums identical: {payload['checksums_identical']}")
    path = write_scaling_report(payload, _artifact_path(args))
    print(f"wrote {path}")


def run_build_parallel(args) -> None:
    from repro.bench.build_parallel import (
        DEFAULT_DIM_ROWS,
        DEFAULT_FACT_ROWS,
        run_build_parallel as run_experiment,
        write_build_parallel_report,
    )

    scale = args.scale if args.scale is not None else 1.0
    payload = run_experiment(
        dim_rows=max(int(DEFAULT_DIM_ROWS * scale), 1),
        fact_rows=max(int(DEFAULT_FACT_ROWS * scale), 1),
        parallelism_levels=tuple(args.parallelism or (1, 4)),
        morsel_rows=args.morsel_rows,
    )
    for kind, entry in payload["kinds"].items():
        rows = [
            {
                "parallelism": level["parallelism"],
                "build_s": level["build_seconds"],
                "total_s": level["total_seconds"],
                "build_speedup": level["build_speedup"],
                "partitioned": level["partitioned_builds"],
            }
            for level in entry["levels"]
        ]
        print(render_table(
            rows,
            f"\n=== parallel filter builds — {kind} "
            f"({payload['dim_rows']} dim rows, {payload['fact_rows']} fact "
            f"rows, {payload['cpu_cores']} cores) ===",
        ))
    print(f"results identical: {payload['results_identical']}")
    print(
        f"exact build phase, serial / {payload['top_parallelism']} "
        f"workers: {payload['build_speedup_at_top']}x (code-space build, "
        "never partitioned)"
    )
    path = write_build_parallel_report(payload, _artifact_path(args))
    print(f"wrote {path}")


def run_pruning(args) -> None:
    from repro.bench.pruning import (
        DEFAULT_ROWS,
        run_zonemap_pruning,
        write_pruning_report,
    )

    scale = args.scale if args.scale is not None else 1.0
    payload = run_zonemap_pruning(
        rows=max(int(DEFAULT_ROWS * scale), 1),
        parallelism_levels=tuple(args.parallelism or (1, 4)),
        morsel_rows=args.morsel_rows,
    )
    for layout, entry in payload["layouts"].items():
        rows = [
            {
                "parallelism": level["parallelism"],
                "zone_on_s": level["zone_on_seconds"],
                "zone_off_s": level["zone_off_seconds"],
                "speedup": level["speedup"],
                "skip_fraction": level["skip_fraction"],
            }
            for level in entry["levels"]
        ]
        print(render_table(
            rows,
            f"\n=== zone-map pruning — {layout} layout "
            f"({payload['rows']} rows, morsels of {payload['morsel_rows']}, "
            f"{payload['cpu_cores']} cores) ===",
        ))
    print(f"checksums identical: {payload['checksums_identical']}")
    print(
        f"clustered speedup {payload['clustered_speedup']}x at "
        f"{payload['clustered_skip_fraction'] * 100:.1f}% rows skipped; "
        f"shuffled overhead "
        f"{payload['shuffled_overhead_fraction'] * 100:+.1f}%"
    )
    path = write_pruning_report(payload, _artifact_path(args))
    print(f"wrote {path}")


def run_plan_quality(args) -> None:
    from repro.bench.plan_quality import (
        DEFAULT_SCALE,
        run_plan_quality as run_experiment,
        write_plan_quality_report,
    )

    payload = run_experiment(
        scale=args.scale if args.scale is not None else DEFAULT_SCALE,
    )
    for mode, report in payload["mode_reports"].items():
        rows = [
            {
                "query": entry["query"],
                "operators": entry["operators"],
                "median_q": entry["median_q_error"],
                "max_q": entry["max_q_error"],
            }
            for entry in report["per_query"]
        ]
        print(render_table(
            rows,
            f"\n=== plan quality — q-error per query, mode {mode!r} "
            f"(scale {payload['scale']}) ===",
        ))
        print(
            f"{mode}: median q-error {report['median_q_error']}, "
            f"p90 {report['p90_q_error']}, max {report['max_q_error']} "
            f"over {report['operators']} operators"
        )
    topk = payload["topk_early_exit"]
    print(
        f"top-k early exit: {topk['total_morsels_pruned']} morsels pruned, "
        f"answers identical: {topk['all_identical']}"
    )
    path = write_plan_quality_report(payload, _artifact_path(args))
    print(f"wrote {path}")


def run_robustness(args) -> None:
    from repro.bench.robustness import (
        DEFAULT_SCALE,
        run_robustness as run_experiment,
        write_robustness_report,
    )

    payload = run_experiment(
        scale=args.scale if args.scale is not None else DEFAULT_SCALE,
    )
    overhead = payload["deadline_overhead"]
    stress = payload["stress"]
    recovery = payload["recovery"]
    print(render_table(
        [
            {
                "scenario": "warm tpcds_lite",
                "baseline_s": overhead["baseline_seconds"],
                "armed_s": overhead["deadline_armed_seconds"],
                "overhead": f"{overhead['overhead_fraction'] * 100:+.2f}%",
                "identical": overhead["checksums_identical"],
            }
        ],
        "\n=== robustness — deadline-check overhead (warm path) ===",
    ))
    print(
        f"stress: {stress['enforced_timeouts']} enforced timeouts "
        f"({stress['shed_rate'] * 100:.0f}% shed), "
        f"{stress['degradations']} graceful degradations "
        f"({stress['degrade_rate'] * 100:.0f}% of the batch), "
        f"{stress['degraded_failures']} failures under degradation"
    )
    print(
        f"recovery: mean {recovery['mean_recovery_seconds'] * 1e3:.2f} ms, "
        f"max {recovery['max_recovery_seconds'] * 1e3:.2f} ms after "
        f"{recovery['chaos_rounds']} injected faults; oracle identical: "
        f"{recovery['answers_identical_to_serial_oracle']}"
    )
    path = write_robustness_report(payload, _artifact_path(args))
    print(f"wrote {path}")


def run_trace_overhead(args) -> None:
    from repro.bench.trace_overhead import (
        DEFAULT_PARALLELISM,
        DEFAULT_SCALE,
        run_trace_overhead as run_experiment,
        write_trace_overhead_report,
    )

    parallelism = (
        args.parallelism[0] if args.parallelism else DEFAULT_PARALLELISM
    )
    payload = run_experiment(
        scale=args.scale if args.scale is not None else DEFAULT_SCALE,
        parallelism=parallelism,
    )
    overhead = payload["overhead"]
    identity = payload["identity"]
    print(render_table(
        [
            {
                "scenario": "warm tpcds_lite (service)",
                "disarmed_s": overhead["disarmed_seconds"],
                "armed_s": overhead["armed_seconds"],
                "armed": f"{overhead['armed_overhead_fraction'] * 100:+.2f}%",
                "noise": f"{overhead['disarmed_noise_fraction'] * 100:.2f}%",
                "spans": overhead["spans_per_round"],
            }
        ],
        "\n=== trace overhead — tracer armed vs. off (warm path) ===",
    ))
    for level in identity["levels"]:
        print(
            f"parallelism {level['parallelism']}: checksums identical "
            f"(on vs. off): {level['checksums_identical']}"
        )
    telemetry = payload["surfaces"]["telemetry"]
    execute = telemetry.get("execute_seconds", {})
    if execute.get("count"):
        print(
            f"telemetry: execute_seconds p50 {execute['p50'] * 1e3:.2f} ms, "
            f"p95 {execute['p95'] * 1e3:.2f} ms over {execute['count']} queries"
        )
    path = write_trace_overhead_report(payload, _artifact_path(args))
    print(f"wrote {path}")


def run_overload(args) -> None:
    from repro.bench.overload import (
        DEFAULT_SCALE,
        run_overload as run_experiment,
        write_overload_report,
    )

    payload = run_experiment(
        scale=args.scale if args.scale is not None else DEFAULT_SCALE,
    )
    rows = [
        {
            "load": f"{level['factor']}x",
            "clients": level["clients"],
            "goodput_qps": level["goodput_qps"],
            "p50_ms": round(level["admitted_p50_seconds"] * 1e3, 2),
            "p99_ms": round(level["admitted_p99_seconds"] * 1e3, 2),
            "shed_rate": f"{level['shed_rate'] * 100:.1f}%",
            "shed_p99_ms": round(level["shed_p99_seconds"] * 1e3, 3),
            "identical": level["checksums_identical"],
        }
        for level in payload["levels"]
    ]
    print(render_table(
        rows,
        f"\n=== overload — closed-loop load vs. capacity "
        f"({payload['max_concurrency']} slots, queue of "
        f"{payload['queue_capacity']}, deadline "
        f"{payload['deadline_seconds'] * 1e3:.0f} ms) ===",
    ))
    base = payload["levels"][0]["goodput_qps"]
    peak = payload["levels"][-1]
    if base:
        print(
            f"goodput at {peak['factor']}x load: "
            f"{peak['goodput_qps'] / base * 100:.1f}% of the 1x level"
        )
    path = write_overload_report(payload, _artifact_path(args))
    print(f"wrote {path}")


class _Experiment:
    """One registry entry: help text, artifact default, and dispatch."""

    __slots__ = ("description", "artifact", "runner")

    def __init__(self, description: str, artifact: str | None, runner) -> None:
        self.description = description
        self.artifact = artifact
        self.runner = runner


# Named experiments.  The argparse help/error text AND main()'s
# dispatch are both driven from this registry, so an unknown
# --experiment fails with the full list of valid names, and a
# registered experiment can never silently fall through to the wrong
# runner.  ``runner=None`` marks the default paper-figures path.
EXPERIMENTS: dict[str, _Experiment] = {
    "paper": _Experiment(
        "the paper's figures/tables (default)", None, None
    ),
    "parallel-scaling": _Experiment(
        "morsel-driven parallel execution vs. serial",
        "BENCH_parallel_scaling.json",
        run_scaling,
    ),
    "zonemap-pruning": _Experiment(
        "zone-map morsel skipping on clustered vs. shuffled layouts",
        "BENCH_zonemap_pruning.json",
        run_pruning,
    ),
    "build-parallel": _Experiment(
        "partitioned bitvector filter builds vs. serial (build phase)",
        "BENCH_build_parallel.json",
        run_build_parallel,
    ),
    "plan-quality": _Experiment(
        "estimator q-error vs. observed cardinalities, full vs. shallow",
        "BENCH_plan_quality.json",
        run_plan_quality,
    ),
    "robustness": _Experiment(
        "deadline-check overhead, shed/degrade rates, fault recovery",
        "BENCH_robustness.json",
        run_robustness,
    ),
    "trace-overhead": _Experiment(
        "structured tracing armed vs. off: overhead and answer identity",
        "BENCH_trace_overhead.json",
        run_trace_overhead,
    ),
    "overload": _Experiment(
        "closed-loop load beyond capacity: shed rate, goodput, latency",
        "BENCH_overload.json",
        run_overload,
    ),
}


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
    runner = EXPERIMENTS[args.experiment].runner
    if runner is not None:
        runner(args)
        return 0
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    scale = args.scale if args.scale is not None else 0.15
    for name in names:
        run_one(name, scale, list(args.pipelines), args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
