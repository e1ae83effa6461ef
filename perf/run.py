#!/usr/bin/env python3
"""The repo's one benchmark: BQO-vs-blind wall-clock with a per-layer split.

One run (what BENCHMARK.json's command invokes)::

    python3 perf/run.py --workload tpcds_warm --seed 3 --seconds 10 --trace 0

prints every metric by name with its unit, checks every answer, and ends
with one JSON line.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` makes traced passes and prints the per-layer
metrics.  Without ``--workload`` it is the suite: every workload, each
run in its own fresh subprocess one after another, results under
``perf/out/``.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_PROCESS_STARTED = time.perf_counter()

# One compute thread per process: the load is this process's own client
# threads, never a BLAS pool.  Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
#: Complete set-ups per end-to-end run; setup_s is their median.  A timed
#: round follows each, so the timed passes span the whole run.
SETUP_REPS = 2
#: --smoke checks the plumbing in seconds and measures nothing: data scale
#: x 0.05, the first few statements of each client, a single set-up.
SMOKE_SCALE = 0.05
SMOKE_STATEMENTS = 3
TRACE_RING = 2 ** 18

_clock = time.perf_counter


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


WORKLOAD_NAMES = tuple(w["name"] for w in load_benchmark()["workloads"])


def exact_counts(benchmark: dict) -> list[str]:
    """Per-layer counts that must repeat exactly for a fixed seed.

    Everything that is not a time or a ratio of times.
    """
    return [
        m["name"] for m in benchmark["per_layer"]
        if m["unit"] not in ("s", "ratio")
    ]


def _import_program():
    """Import ``repro`` (from ``src/`` beside this directory) and helpers."""
    source = ROOT / "src"
    if (source / "repro").is_dir() and str(source) not in sys.path:
        sys.path.insert(0, str(source))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import perf_workloads
    return perf_workloads


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def typical(values: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the values.

    Stands in for the median where the median sits on a cliff: in
    ``star_clients`` half the statements carry a selective supplier filter
    and half do not, so the plain p50 flipped between 8 and 12 ms from
    seed to seed (ten-seed spread 29 %) where this spreads 10 %."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def sampled(values: list[float], value: float | None = None) -> dict:
    """A metric (default: the median) with the spread of its samples."""
    q1, q3 = quartiles(values)
    return {
        "value": statistics.median(values) if value is None else value,
        "q1": q1, "q3": q3, "samples": len(values),
    }


def fastest(values: list[float]) -> dict:
    """Best of N.  On the shared 2-core sandbox the host slows a guest by
    up to 2x for ~20 s at a time; such an episode swallows a 10 s window
    whole, so a median of passes cannot reject it, while interference
    only ever adds time and the minimum is untouched unless every sample
    is hit."""
    return sampled(values, min(values))


def single(value: float) -> dict:
    return {"value": value, "q1": value, "q3": value, "samples": 1}


# ----------------------------------------------------------------------
# Set-up, checking
# ----------------------------------------------------------------------


def set_up(workload, seed: int, smoke: bool, timings=None):
    """Everything before the first timed pass, once.

    Data generation, table statistics, statement binding, one service or
    executor per pipeline, and one cold pass of the stream per pipeline
    (pays the lazy dictionary / zone-map builds, fills plan and filter
    caches).  A traced run passes ``timings`` to get the seconds per step.
    """
    from perf_workloads import PIPELINES

    started = _clock()
    database = workload.build(seed, SMOKE_SCALE if smoke else 1.0)
    built = _clock()
    for table in database.table_names:
        database.stats(table)
    analyzed = _clock()
    if timings is not None:
        timings["workloads.build_database_s"] = built - started
        timings["stats.build_s"] = analyzed - built
        builds: list[tuple[str, float]] = []
        _time_builds(database, builds)
    stream = workload.make_stream(database, seed)
    if smoke:
        stream = [client[:SMOKE_STATEMENTS] for client in stream]
    runners = {p: workload.make_runner(database, p) for p in PIPELINES}
    for runner in runners.values():
        runner.run_pass(stream)
    if timings is not None:
        del database.dictionary, database.zone_map  # drop the wrappers
        for key in ("storage.dictionary_build_s", "storage.zone_map_build_s"):
            timings[key] = sum(s for k, s in builds if k == key)
        timings["storage.dictionaries_built"] = database.dictionary_builds
        timings["storage.zone_maps_built"] = database.zone_map_builds
    return database, stream, runners


def _time_builds(database, builds: list) -> None:
    """Time the lazy dictionary / zone-map builds from outside.

    Wraps the two public accessors on this one instance; a call counts
    as a build when the database's own build counter moved during it.
    """
    for method, counter, key in (
        ("dictionary", "dictionary_builds", "storage.dictionary_build_s"),
        ("zone_map", "zone_map_builds", "storage.zone_map_build_s"),
    ):
        def timed(*args, _inner=getattr(database, method), _counter=counter,
                  _key=key, **kwargs):
            before = getattr(database, _counter)
            started = _clock()
            out = _inner(*args, **kwargs)
            if getattr(database, _counter) != before:
                builds.append((_key, _clock() - started))
            return out

        setattr(database, method, timed)


def _close(runners) -> None:
    for runner in runners.values():
        runner.close()


class Checker:
    """Digests answers as passes finish; verifies them at the end.

    References are computed *after* measuring, so the reference plans'
    intermediates never show up in ``peak_rss_mb`` or the timed passes.
    """

    def __init__(self):
        self._pending: list[tuple[str, str, str, list[float]]] = []
        self.attempted = 0
        self.errors: list[str] = []

    def take(self, pipeline: str, a_pass) -> None:
        for answer in a_pass.answers:
            self.attempted += 1
            if answer.error is not None:
                self.errors.append(
                    f"{pipeline} {answer.statement.name}: {answer.error}"
                )
                continue
            self._pending.append((
                pipeline, answer.statement.name, answer.statement.key,
                answer.digest,
            ))

    def verify(self, workload, database, stream, seed, smoke):
        from perf_workloads import digests_match, reference_digests

        reference = reference_digests(database, stream)
        for pipeline, name, key, got in self._pending:
            if not digests_match(got, reference[key]):
                self.errors.append(f"{pipeline} {name}: wrong answer")
        if seed == DEFAULT_SEED and not smoke:
            golden_path = HERE / "golden" / f"{workload.name}.json"
            golden = json.loads(golden_path.read_text(encoding="utf-8"))
            for key, want in golden["digests"].items():
                if not digests_match(reference.get(key, []), want):
                    self.errors.append(f"reference differs from golden: {key}")

    @property
    def failed(self) -> int:
        return len(self.errors)


# ----------------------------------------------------------------------
# End-to-end run (tracing off)
# ----------------------------------------------------------------------


def run_end_to_end(workload, seed, seconds, smoke, import_seconds):
    from perf_workloads import PIPELINES

    checker = Checker()
    walls = {p: [] for p in PIPELINES}
    # Latencies in ms: by statement across passes, and pass by pass.
    by_statement = {p: {} for p in PIPELINES}
    per_pass = {p: [] for p in PIPELINES}

    def timed_round(runners, stream) -> float:
        """One pass per pipeline, order flipped every round."""
        started = _clock()
        flip = len(walls["bqo"]) % 2 == 1
        for pipeline in PIPELINES[::-1] if flip else PIPELINES:
            gc.collect()
            a_pass = runners[pipeline].run_pass(stream)
            walls[pipeline].append(a_pass.wall)
            answered = [a for a in a_pass.answers if a.error is None]
            per_pass[pipeline].append([a.latency * 1e3 for a in answered])
            for a in answered:
                by_statement[pipeline].setdefault(a.statement.name, []).append(
                    a.latency * 1e3
                )
            checker.take(pipeline, a_pass)
        return _clock() - started

    setups: list[float] = []
    measured = 0.0
    reps = 1 if smoke else SETUP_REPS
    for rep in range(reps):
        started = _clock()
        database, stream, runners = set_up(workload, seed, smoke)
        setups.append(import_seconds + _clock() - started)
        if rep < reps - 1:
            measured += timed_round(runners, stream)
            _close(runners)
            del database, stream, runners
            gc.collect()
    while True:
        measured += timed_round(runners, stream)
        if measured >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.verify(workload, database, stream, seed, smoke)
    _close(runners)

    def latency(pipeline, statistic):
        """``statistic`` across the stream's statements of each statement's
        fastest latency over the passes; spread: pass by pass."""
        best = [min(ms) for ms in by_statement[pipeline].values()]
        samples = sum(len(ms) for ms in by_statement[pipeline].values())
        return sampled(
            [statistic(ms) for ms in per_pass[pipeline] if ms],
            statistic(best),
        ) | {"samples": samples}

    def p95(values):
        return percentile(values, 95)

    metrics = {
        "setup_s": sampled(setups),
        "bqo_pass_s": fastest(walls["bqo"]),
        "orig_pass_s": fastest(walls["original"]),
        "bqo_query_p50_ms": latency("bqo", typical),
        "bqo_query_p95_ms": latency("bqo", p95),
        "orig_query_p95_ms": latency("original", p95),
        "peak_rss_mb": single(peak_rss_mb),
    }
    bqo, orig = metrics["bqo_pass_s"]["value"], metrics["orig_pass_s"]["value"]
    info = {
        "bqo_speedup": {
            "value": orig / bqo, "unit": "ratio",
            "note": f"orig_pass_s {orig:.4f} s / bqo_pass_s {bqo:.4f} s",
        },
        "failed_share": {
            "value": checker.failed / checker.attempted, "unit": "ratio",
            "note": f"{checker.failed} failed / {checker.attempted} attempted",
        },
        "passes_per_pipeline": {"value": len(walls["bqo"]), "unit": "count"},
        "statements_per_pass": {
            "value": sum(len(s) for s in stream), "unit": "count",
        },
    }
    return metrics, info, checker, {}


# ----------------------------------------------------------------------
# Traced run (per-layer metrics)
# ----------------------------------------------------------------------


def run_traced(workload, seed, seconds, smoke, out_dir):
    import perf_layers
    from perf_workloads import PIPELINES
    from repro import optimize_query, parse_query
    from repro.obs import Tracer
    from repro.plan.nodes import HashJoinNode
    from repro.sql import fingerprint_sql

    once: dict[str, float] = {}
    database, stream, runners = set_up(workload, seed, smoke, once)
    statements = [s for client in stream for s in client]
    sqls = [s for s in statements if s.sql is not None]
    once["sql.statements"] = len(statements)
    tracers = {p: Tracer(max_spans_per_thread=TRACE_RING) for p in PIPELINES}
    checker = Checker()

    def direct(fn, items) -> float:
        started = _clock()
        for item in items:
            fn(item)
        return _clock() - started

    def checked_pass(runner, pipeline, a_stream, tracer=None):
        gc.collect()
        a_pass = runner.run_pass(a_stream, tracer=tracer)
        counts = perf_layers.engine_counts(a_pass.answers)
        checker.take(pipeline, a_pass)
        return a_pass, counts

    deadline = _clock() + seconds
    parallel = workload.make_runner(database, "bqo", 2)
    parallel.run_pass(stream)
    rounds: list[dict[str, float]] = []
    layers = {p: [] for p in PIPELINES}
    traced_answers = {}
    while True:
        m: dict[str, float] = {
            "sql.parse_bind_s": direct(
                lambda s: parse_query(database, s.sql, s.name), sqls
            ),
            "sql.fingerprint_s": direct(
                lambda s: fingerprint_sql(s.sql), sqls
            ),
        }
        for pipeline, suffix in zip(PIPELINES, ("", ".orig")):
            plans = []
            m["optimizer.optimize_s" + suffix] = direct(
                lambda s: plans.append(
                    optimize_query(database, s.spec, pipeline)
                ),
                statements,
            )
            m["optimizer.estimated_cout" + suffix] = sum(
                p.estimated_cout for p in plans
            )
            m["optimizer.filters_created" + suffix] = sum(
                isinstance(node, HashJoinNode)
                and node.created_bitvector is not None
                for p in plans for node in p.plan.walk()
            )

        # The blind pipeline's traced pass: its layer split and metered CPU.
        runner, tracer = runners["original"], tracers["original"]
        tracer.reset()
        traced, counts = checked_pass(runner, "original", stream, tracer)
        traced_answers["original"] = traced.answers
        layers["original"].append(
            perf_layers.layer_self_times(tracer.spans(), traced.answers)
        )
        m["engine.metered_cpu.orig"] = counts["metered_cpu"]

        # BQO: an untraced pass, then the traced pass everything else reads.
        runner, tracer = runners["bqo"], tracers["bqo"]
        plain, _ = checked_pass(runner, "bqo", stream)
        tracer.reset()
        before = runner.admission()
        traced, counts = checked_pass(runner, "bqo", stream, tracer)
        after = runner.admission()
        spans, answers = tracer.spans(), traced.answers
        traced_answers["bqo"] = answers
        by_layer = perf_layers.layer_self_times(spans, answers)
        layers["bqo"].append(by_layer)
        served = [a.service_metrics for a in answers if a.service_metrics]
        lookups = counts["cache_hits"] + counts["cache_misses"]
        m.update({
            "engine.scan_s": by_layer["engine.scan"],
            "engine.join_s": by_layer["engine.join"],
            "engine.residual_filter_s": by_layer["engine.residual_filter"],
            "engine.aggregate_s": by_layer["engine.aggregate"],
            "engine.topk_s": by_layer["engine.topk"],
            "engine.execute_s": by_layer["engine.execute"],
            "engine.metered_cpu": counts["metered_cpu"],
            "engine.tuples_leaf": counts["tuples_leaf"],
            "engine.tuples_join": counts["tuples_join"],
            "engine.tuples_other": counts["tuples_other"],
            "engine.rows_copied": counts["rows_copied"],
            "engine.bytes_gathered": counts["bytes_gathered"],
            "engine.morsels": sum(s.name == "morsel" for s in spans),
            "filters.build_s": by_layer["filters"],
            "filters.builds": sum(s.name == "filter.build" for s in spans),
            "filters.cache_hits": counts["cache_hits"],
            "filters.cache_misses": counts["cache_misses"],
            "filters.check_tuples": counts["check_tuples"],
            "filters.insert_tuples": counts["insert_tuples"],
            "filters.resident_bytes": (
                runner.service.filter_cache.resident_bytes()
                if runner.service else 0
            ),
            "storage.morsels_pruned": counts["morsels_pruned"],
            "storage.rows_skipped": counts["rows_skipped"],
            "storage.dictionary_hits": counts["dictionary_hits"],
            "storage.dictionary_misses": counts["dictionary_misses"],
            "succinct.selection_bytes": counts["selection_bytes"],
            "succinct.selection_bytes_dense": counts["selection_bytes_dense"],
            "service.overhead_s": by_layer["service"],
            "service.optimize_path_s": sum(
                s.optimize_seconds for s in served
            ),
            "service.execute_s": sum(s.execute_seconds for s in served),
            "service.plan_cache_hit_ratio": (
                sum(s.plan_cache_hit for s in served) / len(served)
                if served else 0.0
            ),
            "service.filter_cache_hit_ratio": (
                counts["cache_hits"] / lookups if served and lookups else 0.0
            ),
            "service.admission_wait_s": (
                after.total_wait_seconds - before.total_wait_seconds
                if after else 0.0
            ),
            "service.sheds": after.sheds - before.sheds if after else 0,
            "obs.trace_overhead_ratio": traced.wall / plain.wall - 1.0,
            "obs.spans_recorded": len(spans),
            "obs.spans_dropped": tracer.dropped,
            # Closed-loop clients are always busy, so the layers' seconds
            # should add up to clients x the pass's wall time.
            "obs.self_time_coverage": sum(by_layer.values())
            / (len(stream) * traced.wall),
        })
        two_workers, _ = checked_pass(parallel, "bqo", stream)
        m["engine.morsel_speedup_p2"] = plain.wall / two_workers.wall
        # 0 where the workload has one client: nothing to compare.
        m["service.two_client_speedup"] = 0.0
        if len(stream) > 1:
            one_client, _ = checked_pass(runner, "bqo", [statements])
            m["service.two_client_speedup"] = one_client.wall / plain.wall
        rounds.append(m)
        if _clock() >= deadline:
            break

    checker.verify(workload, database, stream, seed, smoke)
    if out_dir is not None:
        for pipeline in PIPELINES:
            trace = json.loads(tracers[pipeline].export_chrome())
            trace["traceEvents"] += perf_layers.chrome_events(
                traced_answers[pipeline], pid=2
            )
            path = out_dir / f"{workload.name}.{pipeline}.chrome.json"
            path.write_text(json.dumps(trace), encoding="utf-8")
    _close(runners)
    parallel.close()

    metrics = {name: single(float(value)) for name, value in once.items()}
    for name in rounds[0]:
        metrics[name] = sampled([float(r[name]) for r in rounds])
    top = {}
    for pipeline in PIPELINES:
        median = {
            layer: statistics.median(r[layer] for r in layers[pipeline])
            for layer in perf_layers.LAYERS
        }
        total = sum(median.values()) or 1.0
        ranked = sorted(median.items(), key=lambda item: -item[1])[:3]
        top[pipeline] = [
            {"layer": layer, "self_s": self_s, "share": self_s / total}
            for layer, self_s in ranked
        ]
    info = {
        "traced_rounds": {"value": len(rounds), "unit": "count"},
        "statements_per_pass": {"value": len(statements), "unit": "count"},
    }
    return metrics, info, checker, top


# ----------------------------------------------------------------------
# One run: arguments in, metric lines and the result line out
# ----------------------------------------------------------------------


def machine() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_one(args) -> int:
    benchmark = load_benchmark()
    started = _clock()
    perf_workloads = _import_program()
    import_seconds = (started - _PROCESS_STARTED) + (_clock() - started)
    workload = perf_workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        declared = benchmark["per_layer"]
        metrics, info, checker, top = run_traced(
            workload, args.seed, args.seconds, args.smoke, out_dir
        )
    else:
        declared = benchmark["end_to_end"]
        metrics, info, checker, top = run_end_to_end(
            workload, args.seed, args.seconds, args.smoke, import_seconds,
        )

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}" + (" SMOKE" if args.smoke else ""))
    reported = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        m = metrics[name]  # KeyError: BENCHMARK.json names a metric not measured
        reported[name] = {"value": m["value"], "unit": unit}
        spread = (
            f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['samples']}]"
            if m["samples"] > 1 else ""
        )
        print(f"{name:34s} {m['value']:.6g} {unit}{spread}")
    for name, m in info.items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}  [informational]{note}")
    for pipeline, ranked in top.items():
        print(f"top layers by self time, {workload.name} x {pipeline}: "
              + ", ".join(f"{r['layer']} {r['self_s']:.4f} s "
                          f"({r['share']:.0%})" for r in ranked))
    for error in checker.errors[:20]:
        print(f"FAILED {error}")
    correct = checker.failed == 0
    if out_dir is not None:
        envelope = {
            "schema": 1, "workload": workload.name, "why": workload.why,
            "trace": args.trace, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "machine": machine(),
            "commit": git_commit(), "correct": correct,
            "attempted": checker.attempted, "failed": checker.failed,
            "metrics": {
                n: metrics[n] | {"unit": r["unit"]} for n, r in reported.items()
            },
            "informational": info, "top_layers": top,
        }
        path = out_dir / f"{workload.name}.trace{args.trace}.json"
        path.write_text(json.dumps(envelope, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed, "metrics": reported,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The suite: every workload, one fresh subprocess per run
# ----------------------------------------------------------------------


def run_suite(args, out_dir: Path) -> tuple[Path, int]:
    """Run every workload (trace 0 then trace 1) one after another."""
    benchmark = load_benchmark()
    out_dir.mkdir(parents=True, exist_ok=True)
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    suite = {
        "schema": 1, "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "workloads": {},
    }
    status = 0
    for name in WORKLOAD_NAMES:
        entry = suite["workloads"][name] = {}
        for trace in (0, 1):
            path = out_dir / f"{name}.trace{trace}.json"
            path.unlink(missing_ok=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--out", str(out_dir)]
                + (["--smoke"] if args.smoke else []),
                cwd=ROOT,
            )
            status = status or done.returncode
            if not path.exists():
                raise SystemExit(f"{name} --trace {trace} did not finish")
            run = json.loads(path.read_text(encoding="utf-8"))
            suite.setdefault("machine", run["machine"])
            suite.setdefault("commit", run["commit"])
            entry["end_to_end" if trace == 0 else "per_layer"] = run
    path = out_dir / "suite.json"
    path.write_text(json.dumps(suite, indent=1), encoding="utf-8")
    print(f"suite result: {path}")
    return path, status


def self_check(args, out_dir: Path) -> int:
    """Two complete suites of this commit must agree within the bounds."""
    import compare

    first, status_a = run_suite(args, out_dir / "self-check-a")
    second, status_b = run_suite(args, out_dir / "self-check-b")
    status = compare.main([str(first), str(second)])
    a = json.loads(first.read_text(encoding="utf-8"))
    b = json.loads(second.read_text(encoding="utf-8"))
    counts = exact_counts(load_benchmark())
    for name in WORKLOAD_NAMES:
        for count in counts:
            values = [
                s["workloads"][name]["per_layer"]["metrics"][count]["value"]
                for s in (a, b)
            ]
            if values[0] != values[1]:
                print(f"count differs between runs: {name} {count} {values}")
                status = 1
    return status or status_a or status_b


def regen_golden() -> int:
    """Rewrite perf/golden/ from the reference plans at the default seed."""
    perf_workloads = _import_program()
    (HERE / "golden").mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        workload = perf_workloads.WORKLOADS[name]
        database = workload.build(DEFAULT_SEED)
        stream = workload.make_stream(database, DEFAULT_SEED)
        digests = perf_workloads.reference_digests(database, stream)
        path = HERE / "golden" / f"{name}.json"
        path.write_text(
            json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1),
            encoding="utf-8",
        )
        print(f"wrote {path} ({len(digests)} statements)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload in this process "
                             "(default: the whole suite, in subprocesses)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of measuring per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result JSON and Chrome "
                                      "traces (suite default: perf/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data, a few statements, one set-up: "
                             "checks the plumbing, measures nothing")
    parser.add_argument("--self-check", action="store_true",
                        help="run the suite twice and compare the two")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite perf/golden/ (default seed only)")
    args = parser.parse_args(argv)
    if args.regen_golden:
        return regen_golden()
    if args.workload:
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        return run_one(args)
    out_dir = Path(args.out) if args.out else HERE / "out"
    if args.self_check:
        return self_check(args, out_dir)
    return run_suite(args, out_dir)[1]


if __name__ == "__main__":
    sys.exit(main())
