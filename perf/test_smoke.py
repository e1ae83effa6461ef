"""Plumbing check of the benchmark (no wall-clock assertion).

Runs every workload through ``perf/run.py --smoke`` (data scale x 0.05,
three statements per client, one pass) and checks what a later change
must be able to rely on: every metric BENCHMARK.json names is emitted
with its unit, every answer is right, the tracer dropped nothing, the
exact counts repeat, and the run leaves nothing behind in the repo.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run  # perf/run.py; pytest puts this file's directory on sys.path

ROOT = Path(run.ROOT)
BENCHMARK = run.load_benchmark()


def _listing() -> list[str]:
    """Repo root entries plus everything under perf/, caches aside."""
    paths = [*ROOT.iterdir(), *run.HERE.rglob("*")]
    return sorted(
        str(p) for p in paths
        if "__pycache__" not in p.parts and p.name != ".pytest_cache"
    )


def _run(capsys, workload: str, trace: int, out: Path) -> dict:
    status = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--smoke", "--out", str(out),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_records_each_workload_and_why():
    workloads = run._import_program().WORKLOADS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.values()
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke(workload, tmp_path, capsys):
    before = _listing()
    end_to_end = _run(capsys, workload, 0, tmp_path)
    assert _units(end_to_end["metrics"]) == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    layers = [
        _run(capsys, workload, 1, tmp_path / str(i))["metrics"]
        for i in range(2)
    ]
    for metrics in layers:
        assert _units(metrics) == {
            m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
        }
        assert metrics["obs.spans_dropped"]["value"] == 0
        assert metrics["obs.spans_recorded"]["value"] > 0
    for name in run.exact_counts(BENCHMARK):
        assert layers[0][name]["value"] == layers[1][name]["value"], name
    envelope = json.loads(
        (tmp_path / f"{workload}.trace0.json").read_text(encoding="utf-8")
    )
    assert {"machine", "commit", "seed", "metrics"} <= set(envelope)
    assert (tmp_path / "0" / f"{workload}.bqo.chrome.json").exists()
    assert _listing() == before
