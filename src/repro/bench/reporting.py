"""Turn workload runs into the paper's figures and tables.

Each function returns plain row dictionaries; ``render_table`` formats
them for terminal output.  The mapping to the paper:

* :func:`selectivity_groups` — the L/M/S split of Section 7.4
  (cheapest third of queries by baseline CPU = S, most expensive = L).
* :func:`figure8_rows` — normalized total CPU per (workload, group),
  Original vs BQO.
* :func:`figure9_rows` — normalized tuples output per operator class.
* :func:`figure10_rows` — per-query normalized CPU, most expensive
  first.
* :func:`table3_rows` — workload statistics.
* :func:`table4_rows` — same-plan bitvector on/off comparison.
"""

from __future__ import annotations

from repro.bench.harness import WorkloadResult
from repro.query.spec import QuerySpec
from repro.storage.database import Database

GROUPS = ("S", "M", "L")


def selectivity_groups(
    result: WorkloadResult, base_pipeline: str = "original"
) -> dict[str, str]:
    """Partition queries into S / M / L thirds by baseline CPU."""
    queries = result.queries()
    ordered = sorted(
        queries, key=lambda q: result.run(q, base_pipeline).metered_cpu
    )
    n = len(ordered)
    cut_s = (n + 2) // 3
    cut_m = (2 * n + 2) // 3
    groups: dict[str, str] = {}
    for index, query in enumerate(ordered):
        if index < cut_s:
            groups[query] = "S"
        elif index < cut_m:
            groups[query] = "M"
        else:
            groups[query] = "L"
    return groups


def figure8_rows(
    result: WorkloadResult,
    base_pipeline: str = "original",
    new_pipeline: str = "bqo",
) -> list[dict]:
    """Total CPU by selectivity group, normalized by the baseline total."""
    groups = selectivity_groups(result, base_pipeline)
    baseline_total = result.total_cpu(base_pipeline) or 1.0
    rows = []
    for group in GROUPS:
        members = [q for q, g in groups.items() if g == group]
        base_cpu = sum(result.run(q, base_pipeline).metered_cpu for q in members)
        new_cpu = sum(result.run(q, new_pipeline).metered_cpu for q in members)
        rows.append(
            {
                "workload": result.workload,
                "group": group,
                "queries": len(members),
                "original": base_cpu / baseline_total,
                "bqo": new_cpu / baseline_total,
            }
        )
    rows.append(
        {
            "workload": result.workload,
            "group": "total",
            "queries": len(groups),
            "original": 1.0,
            "bqo": result.total_cpu(new_pipeline) / baseline_total,
        }
    )
    return rows


def figure9_rows(
    result: WorkloadResult,
    base_pipeline: str = "original",
    new_pipeline: str = "bqo",
) -> list[dict]:
    """Tuples output per operator class, normalized by baseline total."""
    base = result.total_tuples_by_kind(base_pipeline)
    new = result.total_tuples_by_kind(new_pipeline)
    baseline_total = sum(base.values()) or 1
    rows = []
    for kind in ("leaf", "join", "other"):
        rows.append(
            {
                "workload": result.workload,
                "operator": kind,
                "original": base.get(kind, 0) / baseline_total,
                "bqo": new.get(kind, 0) / baseline_total,
            }
        )
    rows.append(
        {
            "workload": result.workload,
            "operator": "total",
            "original": 1.0,
            "bqo": sum(new.values()) / baseline_total,
        }
    )
    return rows


def figure10_rows(
    result: WorkloadResult,
    base_pipeline: str = "original",
    new_pipeline: str = "bqo",
    top: int = 60,
) -> list[dict]:
    """Per-query normalized CPU, sorted by baseline cost descending."""
    queries = sorted(
        result.queries(),
        key=lambda q: result.run(q, base_pipeline).metered_cpu,
        reverse=True,
    )[:top]
    max_cpu = max(
        (result.run(q, base_pipeline).metered_cpu for q in queries), default=1.0
    ) or 1.0
    rows = []
    for query in queries:
        base_run = result.run(query, base_pipeline)
        new_run = result.run(query, new_pipeline)
        rows.append(
            {
                "query": query,
                "original": base_run.metered_cpu / max_cpu,
                "bqo": new_run.metered_cpu / max_cpu,
                "speedup": (
                    base_run.metered_cpu / new_run.metered_cpu
                    if new_run.metered_cpu > 0
                    else float("inf")
                ),
            }
        )
    return rows


def table3_rows(
    workloads: list[tuple[str, Database, list[QuerySpec]]]
) -> list[dict]:
    """Workload statistics (the paper's Table 3)."""
    rows = []
    for name, database, queries in workloads:
        joins = [len(spec.join_predicates) for spec in queries]
        rows.append(
            {
                "workload": name,
                "tables": len(database.table_names),
                "total_rows": database.total_rows(),
                "queries": len(queries),
                "joins_avg": sum(joins) / max(1, len(joins)),
                "joins_max": max(joins, default=0),
            }
        )
    return rows


def table4_rows(
    result: WorkloadResult,
    with_filters: str = "original",
    without_filters: str = "original_nobv",
    improvement_threshold: float = 0.2,
) -> list[dict]:
    """Appendix A's Table 4: same plan with vs without bitvectors.

    ``CPU ratio`` is total CPU with filters divided by without;
    ``improved``/``regressed`` count queries whose CPU moved by more
    than the threshold in either direction.
    """
    queries = result.queries()
    cpu_with = result.total_cpu(with_filters)
    cpu_without = result.total_cpu(without_filters) or 1.0
    with_bitvectors = sum(
        1 for q in queries if result.run(q, with_filters).num_filters_created > 0
    )
    improved = 0
    regressed = 0
    for query in queries:
        cpu_on = result.run(query, with_filters).metered_cpu
        cpu_off = result.run(query, without_filters).metered_cpu or 1.0
        ratio = cpu_on / cpu_off
        if ratio < 1.0 - improvement_threshold:
            improved += 1
        elif ratio > 1.0 + improvement_threshold:
            regressed += 1
    total = max(1, len(queries))
    return [
        {
            "workload": result.workload,
            "cpu_ratio": cpu_with / cpu_without,
            "queries_with_filters": with_bitvectors / total,
            "improved": improved / total,
            "regressed": regressed / total,
        }
    ]


def render_table(rows: list[dict], title: str | None = None) -> str:
    """Format row dictionaries as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = {
        column: max(len(column), *(len(fmt(row[column])) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(fmt(row[column]).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
