"""Quickstart: optimize and execute a decision-support query.

Builds the SSB-style star schema, writes a query as SQL, optimizes it
with the baseline ("original": blind snowflake heuristics + post-hoc
bitvector push-down) and with the paper's bitvector-aware optimizer
("bqo"), executes both plans, and compares metered CPU.

Then switches to the serving path: a ``QueryService`` answers the same
SQL end-to-end and, on repeat traffic with different constants, skips
parsing and optimization entirely via its fingerprint-keyed plan cache
(see ``repro.service`` and docs/ARCHITECTURE.md).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Executor, QueryService, format_plan, optimize_query, parse_query
from repro.workloads import star


def main() -> None:
    print("Building the SSB-style star schema (scale 0.2) ...")
    database = star.build_database(scale=0.2)
    print(f"  {database!r}")
    for name in database.table_names:
        print(f"    {name:<10} {database.table(name).num_rows:>8} rows")

    sql = """
        SELECT COUNT(*) AS orders, SUM(lo.lo_revenue) AS revenue
        FROM lineorder lo, customer c, supplier s, date_dim d
        WHERE lo.lo_custkey = c.c_custkey
          AND lo.lo_suppkey = s.s_suppkey
          AND lo.lo_orderdate = d.d_datekey
          AND c.c_region = 'ASIA'
          AND s.s_nation = 'NATION07'
          AND d.d_year BETWEEN 1993 AND 1994
    """
    spec = parse_query(database, sql, "quickstart")
    print(f"\nQuery:\n{spec}\n")

    executor = Executor(database)
    for pipeline in ("original", "bqo"):
        optimized = optimize_query(database, spec, pipeline)
        result = executor.execute(optimized.plan)
        print(f"=== pipeline: {pipeline} ===")
        print(format_plan(optimized.plan, result.metrics.cardinality_annotations()))
        print(f"  orders  = {result.scalar('orders')}")
        print(f"  revenue = {float(result.scalar('revenue')):.2f}")
        print(f"  metered CPU = {result.metrics.metered_cpu():.0f}")
        print(f"  tuples by operator: {result.metrics.tuples_by_kind()}")
        print()

    print("=== serving path: QueryService with plan + filter caching ===")
    service = QueryService(database, pipeline="bqo")
    repeat = sql.replace("'ASIA'", "'EUROPE'").replace("NATION07", "NATION03")
    for label, text in (("cold", sql), ("warm (new constants)", repeat)):
        answer = service.execute(text, name=label)
        print(
            f"  {label:<22} orders={answer.scalar('orders')}"
            f"  plan cache {'HIT' if answer.metrics.plan_cache_hit else 'MISS'}"
            f"  optimize path {answer.metrics.optimize_seconds * 1e3:.2f} ms"
        )
    stats = service.stats()
    print(f"  service stats: {stats.queries} queries, "
          f"{stats.plan_cache_hits} plan-cache hits, "
          f"{stats.filter_cache_hits} filter-cache hits")

    print()
    print("=== morsel-driven parallel execution (byte-identical answers) ===")
    parallel = QueryService(database, pipeline="bqo", parallelism=4,
                            morsel_rows=16384)
    answer = parallel.execute(sql, name="parallel")
    print(f"  parallelism=4 orders={answer.scalar('orders')}")

    print()
    print("=== zone maps: the sorted-column band search ===")
    # date_dim is stored in date order, so d_year ascends: a one-year
    # band is two binary searches, and the rows outside it are never
    # read (rows_skipped; morsels_pruned counts whole morsels of them).
    banded = sql.replace("BETWEEN 1993 AND 1994", "= 1994")
    answer = parallel.execute(banded, name="banded")
    print(f"  band search: morsels_pruned={answer.metrics.morsels_pruned}"
          f"  rows_skipped={answer.metrics.rows_skipped}")
    for line in parallel.explain_analyze(banded).splitlines():
        if "band" in line:
            print(f"    {line.strip()}")

    print()
    print("=== resilience: deadlines, budgets, failure isolation ===")
    from repro import ResourceBudget
    from repro.errors import QueryTimeout

    guarded = QueryService(
        database,
        pipeline="bqo",
        parallelism=4,
        deadline_seconds=5.0,                    # per-query wall clock
        budget=ResourceBudget(max_rows_copied=5_000_000),
        degrade="serial",                        # budget breach: answer anyway
    )
    answer = guarded.execute(sql, name="guarded")
    print(f"  under deadline+budget: orders={answer.scalar('orders')}"
          f"  degraded={answer.metrics.degraded}")
    try:
        guarded.execute(sql, name="shed", deadline_seconds=1e-7)
    except QueryTimeout as exc:
        print(f"  shed at the first checkpoint: {exc}")
    # Batches isolate failures: a broken statement occupies its own
    # slot with .error set, and every sibling result still arrives.
    results = guarded.run_many([sql, "SELECT broken FROM nowhere x"])
    for res in results:
        outcome = "ok" if res.ok else f"error: {type(res.error).__name__}"
        print(f"  {res.metrics.query:<8} {outcome}")
    stats = guarded.stats()
    print(f"  stats: {stats.timeouts} timeouts, {stats.degradations} "
          f"degradations, {stats.failures} failures")

    print()
    print("=== serving real traffic: the admission-controlled asyncio facade ===")
    import asyncio

    from repro.errors import QueryShed
    from repro.service import AdmissionConfig, AsyncQueryService

    async def serve() -> None:
        # Tiny queue + strict per-client quota so overload is visible
        # in a quickstart; production configs run much wider.
        config = AdmissionConfig(queue_capacity=4, quota_rate=2.0,
                                 quota_burst=3.0)
        async with AsyncQueryService(
            database, pipeline="bqo", max_concurrency=2,
            deadline_seconds=5.0, admission=config,
        ) as svc:
            answered = sheds = 0
            for i in range(8):
                try:
                    result = await svc.execute(
                        sql, name=f"async_{i}", client="dashboard",
                        priority="interactive",
                    )
                    answered += 1
                    if i == 0:
                        print(f"  awaited orders={result.scalar('orders')}")
                except QueryShed as shed:
                    sheds += 1
                    if sheds == 1:
                        print(f"  shed ({shed.reason}): retry in "
                              f"{shed.retry_after:.2f}s")
            stats = svc.admission_stats()
            print(f"  {answered} answered, {sheds} shed "
                  f"(shed_rate={stats.shed_rate:.2f}, "
                  f"admitted={stats.admitted})")

    asyncio.run(serve())


if __name__ == "__main__":
    main()
