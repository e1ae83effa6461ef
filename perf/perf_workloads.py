"""The four benchmark workloads and the runners that drive them.

A workload is: a seeded database, a fixed statement stream (one list per
closed-loop client), and a *runner* per pipeline — the long-lived
service or executor instance every pass of that pipeline goes through.
Only public entry points of ``repro`` are called; see README.md for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time
import zlib

import numpy as np

from repro import Executor, QueryService, optimize_query, parse_query
from repro.service import AsyncQueryService
from repro.workloads import customer_lite, job_lite, star, tpcds_lite

PIPELINES = ("bqo", "original")
#: Plans the reference answers come from: no bitvector filters, no BQO
#: join ordering, executed on a fresh serial executor with no caches.
REFERENCE_PIPELINE = "original_nobv"

_clock = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Statement:
    """One statement of a stream; ``sql`` is None for spec-only queries."""

    name: str
    sql: str | None
    spec: object

    @property
    def key(self) -> str:
        """What makes two statements the same question (reference key)."""
        return self.sql if self.sql is not None else self.name


@dataclasses.dataclass
class Answer:
    """What one executed statement returned, or why it did not."""

    statement: Statement
    started: float
    latency: float                  # submission to answer
    # The result itself is dropped as soon as it is digested, as a client
    # would drop it: a pass never holds 32 joined relations alive at once.
    digest: list[float] | None = None
    counts: dict | None = None      # engine_counters() of the result
    service_metrics: object = None  # repro ServiceMetrics (service paths)
    # Seconds inside each public call the runner made for this statement,
    # when it made more than one (the one-shot path).
    parts: dict = dataclasses.field(default_factory=dict)
    error: str | None = None

    @classmethod
    def failed(cls, statement, started, exc) -> "Answer":
        return cls(
            statement, started, _clock() - started,
            error=f"{type(exc).__name__}: {exc}",
        )

    @classmethod
    def of(cls, statement, started, latency, result, service_metrics=None,
           parts=None) -> "Answer":
        # Counters first: digesting a projection materializes its output
        # columns, which the result's own copy counters would record.
        counts = engine_counters(result.metrics)
        return cls(
            statement, started, latency, digest(result, statement.spec),
            counts, service_metrics, parts or {},
        )


@dataclasses.dataclass
class Pass:
    """One pass of the whole stream under one pipeline."""

    wall: float
    answers: list[Answer]


# ----------------------------------------------------------------------
# Answer digests
# ----------------------------------------------------------------------


def digest(result, spec) -> list[float]:
    """Order-insensitive digest of the ``ExecutionResult`` of ``spec``.

    Per output column, in column-name order: row count, sum and sum of
    squares of the sorted values (text values fold through CRC-32).
    Sorting first makes the float sums independent of row order, so two
    plans agree to rounding whatever order they emit rows in.
    """
    if result.aggregates is not None:
        columns = {str(k): v for k, v in result.aggregates.items()}
    else:
        columns = {
            f"{ref.alias}.{ref.column}":
                result.relation.column(ref.alias, ref.column)
            for ref in spec.select_columns
        }
    out = [float(result.num_rows)]
    for label in sorted(columns):
        values = np.asarray(columns[label])
        if values.dtype.kind not in "iufb":
            values = np.array(
                [zlib.crc32(str(v).encode("utf-8")) for v in values],
                dtype=np.float64,
            )
        values = np.sort(values.astype(np.float64))
        values = values[np.isfinite(values)]
        out.extend(
            [float(len(values)), float(values.sum()), float(values @ values)]
        )
    return out


def digests_match(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and bool(
        np.allclose(got, want, rtol=1e-9, atol=1e-9)
    )


def engine_counters(metrics) -> dict[str, float]:
    """The deterministic counters of one ``ExecutionMetrics``."""
    by_kind = metrics.tuples_by_kind()
    components = metrics.component_totals()
    return {
        "metered_cpu": metrics.metered_cpu(),
        "tuples_leaf": by_kind["leaf"],
        "tuples_join": by_kind["join"],
        "tuples_other": by_kind["other"],
        "rows_copied": metrics.rows_copied,
        "bytes_gathered": metrics.bytes_gathered,
        "cache_hits": metrics.filter_cache_hits,
        "cache_misses": metrics.filter_cache_misses,
        "check_tuples": components["filter_check"],
        "insert_tuples": components["filter_insert"],
        "morsels_pruned": metrics.morsels_pruned,
        "rows_skipped": metrics.rows_skipped,
        "dictionary_hits": metrics.dictionary_hits,
        "dictionary_misses": metrics.dictionary_misses,
        "selection_bytes": metrics.selection_bytes,
        "selection_bytes_dense": metrics.selection_bytes_dense,
    }


def reference_digests(database, stream) -> dict[str, list[float]]:
    """Reference digest per distinct statement of ``stream``."""
    executor = Executor(database)
    out: dict[str, list[float]] = {}
    for statement in itertools.chain.from_iterable(stream):
        if statement.key not in out:
            plan = optimize_query(
                database, statement.spec, REFERENCE_PIPELINE
            ).plan
            out[statement.key] = digest(executor.execute(plan), statement.spec)
    return out


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------


def _timed(statement: Statement, call) -> Answer:
    """Run one statement; a raised error is a failed statement, not a crash.

    ``call`` returns ``(execution_result, service_metrics, parts)``.
    """
    started = _clock()
    try:
        result, service_metrics, parts = call()
    except Exception as exc:  # shed, timeout, engine error: all count as failed
        return Answer.failed(statement, started, exc)
    return Answer.of(
        statement, started, _clock() - started, result, service_metrics, parts
    )


class Runner:
    """What every runner offers besides ``run_pass(stream, tracer=None)``."""

    service = None  # the QueryService behind it, where there is one

    def admission(self):
        """``AdmissionStats`` snapshot, where there is admission control."""
        return None

    def close(self):
        pass


class ServiceRunner(Runner):
    """One client replaying SQL through a long-lived ``QueryService``."""

    def __init__(self, database, pipeline, parallelism=1,
                 fresh_filters=False):
        self.service = QueryService(
            database, pipeline=pipeline, parallelism=parallelism
        )
        self._fresh_filters = fresh_filters

    def _one(self, statement, tracer):
        outcome = self.service.execute(
            statement.sql, name=statement.name, tracer=tracer
        )
        return outcome.result, outcome.metrics, {}

    def run_pass(self, stream, tracer=None) -> Pass:
        if self._fresh_filters:
            self.service.filter_cache.clear()
        started = _clock()
        answers = [
            _timed(s, lambda s=s: self._one(s, tracer)) for s in stream[0]
        ]
        return Pass(_clock() - started, answers)

    def close(self):
        self.service.close()


class OneShotRunner(Runner):
    """``optimize_query`` then ``Executor.execute`` per statement, no caches."""

    def __init__(self, database, pipeline, parallelism=1):
        self._database = database
        self._pipeline = pipeline
        self._parallelism = parallelism
        self._executor = Executor(database, parallelism=parallelism)

    def _one(self, statement, tracer):
        started = _clock()
        plan = optimize_query(
            self._database, statement.spec, self._pipeline,
            build_parallelism=self._parallelism, tracer=tracer,
        ).plan
        optimized = _clock()
        result = self._executor.execute(plan, tracer=tracer)
        parts = {
            "optimizer.optimize_query": optimized - started,
            "engine.execute": _clock() - optimized,
        }
        return result, None, parts

    def run_pass(self, stream, tracer=None) -> Pass:
        started = _clock()
        answers = [
            _timed(s, lambda s=s: self._one(s, tracer)) for s in stream[0]
        ]
        return Pass(_clock() - started, answers)


class AsyncRunner(Runner):
    """Closed-loop clients, no think time, through ``AsyncQueryService``.

    ``AsyncQueryService.execute`` takes no per-call tracer, so traced
    passes go through a second facade whose ``QueryService`` was built
    with ``tracer=``; it is created and warmed on first traced use.
    """

    def __init__(self, database, pipeline, parallelism=1, concurrency=2):
        self._args = (database, pipeline, parallelism, concurrency)
        self._loop = asyncio.new_event_loop()
        self._plain = self._facade(None)
        self._traced = None

    def _facade(self, tracer):
        database, pipeline, parallelism, concurrency = self._args
        return AsyncQueryService(
            database, max_concurrency=concurrency, pipeline=pipeline,
            parallelism=parallelism, tracer=tracer,
        )

    @property
    def service(self):
        return (self._traced or self._plain).service

    def admission(self):
        return (self._traced or self._plain).admission_stats()

    def run_pass(self, stream, tracer=None) -> Pass:
        """``tracer`` must be the same object on every traced pass."""
        if tracer is None:
            return self._drive(self._plain, stream)
        if self._traced is None:
            self._traced = self._facade(tracer)
            self._drive(self._traced, stream)  # warm its caches
            tracer.reset()
        return self._drive(self._traced, stream)

    def _drive(self, facade, stream) -> Pass:
        async def client(index, statements):
            out = []
            for s in statements:
                started = _clock()
                try:
                    outcome = await facade.execute(
                        s.sql, name=s.name, client=f"client_{index}"
                    )
                except Exception as exc:  # shed/timeout/error: failed
                    out.append(Answer.failed(s, started, exc))
                else:
                    out.append(Answer.of(
                        s, started, _clock() - started, outcome.result,
                        outcome.metrics,
                    ))
            return out

        async def all_clients():
            return await asyncio.gather(
                *(client(i, statements) for i, statements in enumerate(stream))
            )

        started = _clock()
        per_client = self._loop.run_until_complete(all_clients())
        wall = _clock() - started
        return Pass(wall, list(itertools.chain.from_iterable(per_client)))

    def close(self):
        for facade in (self._plain, self._traced):
            if facade is not None:
                self._loop.run_until_complete(facade.close())
        self._loop.close()


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: float
    build_database: object   # (scale, seed) -> Database
    make_stream: object      # (database, seed) -> list[list[Statement]]
    make_runner: object      # (database, pipeline, parallelism) -> runner

    def build(self, seed: int, scale_factor: float = 1.0):
        """``scale_factor`` < 1 is for the smoke test only."""
        return self.build_database(self.scale * scale_factor, seed)


def _sql_stream(database, named_sqls) -> list[list[Statement]]:
    return [[
        Statement(name, sql, parse_query(database, sql, name))
        for name, sql in named_sqls
    ]]


def _job_sqls():
    # job_lite has no public (name, sql) accessor at this commit; use one
    # if a later change adds it.
    accessor = getattr(job_lite, "query_sqls", None)
    return accessor() if accessor is not None else list(job_lite._QUERIES)


_STAR_SELECT_LISTS = (
    "COUNT(*) AS cnt, SUM(lo.lo_revenue) AS rev",
    "SUM(lo.lo_quantity) AS qty",
)
_STAR_DIMENSIONS = {
    "c": ("customer c", "lo.lo_custkey = c.c_custkey", "c.c_region = '{}'"),
    "s": ("supplier s", "lo.lo_suppkey = s.s_suppkey", "s.s_nation = '{}'"),
    "p": ("part p", "lo.lo_partkey = p.p_partkey", "p.p_category = '{}'"),
    "d": ("date_dim d", "lo.lo_orderdate = d.d_datekey",
          "d.d_year BETWEEN {} AND {}"),
}
STAR_CLIENTS = 2
STAR_STATEMENTS_PER_CLIENT = 100


def _star_stream(database, seed) -> list[list[Statement]]:
    """Two fixed seeded client streams over 15 templates x 2 select lists.

    The mix is the same for every seed: each client issues every
    (dimension subset, select list) combination equally often, and each
    dimension's literal rotates round-robin over the values actually
    present in the generated table.  The seed only shuffles the order
    and shifts where each rotation starts, so seeds differ in data and
    interleaving, not in how heavy the stream is.
    """
    def domain(table, column):
        return sorted(set(database.table(table).column(column).tolist()))

    years = domain("date_dim", "d_year")
    literals = {
        "c": [(v,) for v in domain("customer", "c_region")],
        "s": [(v,) for v in domain("supplier", "s_nation")],
        "p": [(v,) for v in domain("part", "p_category")],
        "d": [(a, b) for a in years for b in years if 0 <= b - a <= 1],
    }
    combos = [
        ("".join(keys), select)
        for size in range(1, 5)
        for keys in itertools.combinations("cspd", size)
        for select in _STAR_SELECT_LISTS
    ]
    stream = []
    for client in range(STAR_CLIENTS):
        rng = np.random.default_rng([seed, client])
        rotation = {k: int(rng.integers(len(v))) for k, v in literals.items()}
        order = rng.permutation(STAR_STATEMENTS_PER_CLIENT)
        statements = []
        for index, slot in enumerate(order):
            keys, select = combos[slot % len(combos)]
            tables, conjuncts = ["lineorder lo"], []
            for key in keys:
                table, join, predicate = _STAR_DIMENSIONS[key]
                choice = literals[key][rotation[key] % len(literals[key])]
                rotation[key] += 1
                tables.append(table)
                conjuncts += [join, predicate.format(*choice)]
            sql = (
                f"SELECT {select} FROM {', '.join(tables)} "
                f"WHERE {' AND '.join(conjuncts)}"
            )
            name = f"star_c{client}_{index:03d}"
            statements.append(
                Statement(name, sql, parse_query(database, sql, name))
            )
        stream.append(statements)
    return stream


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tpcds_warm",
            "32 TPC-DS-shaped statements, plan and filter caches hit: "
            "~97% engine time, so executor/kernel changes show here and "
            "optimizer-speed changes must not",
            3.0,
            tpcds_lite.build_database,
            lambda db, seed: _sql_stream(db, tpcds_lite.query_sqls()),
            ServiceRunner,
        ),
        Workload(
            "job_fresh_filters",
            "30 JOB-shaped statements, plans cached but filter cache "
            "cleared every pass: filter build + probe + string predicates "
            "dominate; largest working set",
            3.0,
            job_lite.build_database,
            lambda db, seed: _sql_stream(db, _job_sqls()),
            lambda db, pipeline, parallelism=1: ServiceRunner(
                db, pipeline, parallelism, fresh_filters=True
            ),
        ),
        Workload(
            "customer_adhoc",
            "20 deep-snowflake QuerySpecs, optimize + execute one-shot, "
            "nothing cached: ~87% optimizer time, so planning-time changes "
            "show here and engine changes barely do",
            0.15,
            customer_lite.build_database,
            # The 20 query shapes are the workload; the seed varies data only
            # (re-drawing shapes moves pass time by +-40%, drowning any change).
            lambda db, seed: [[
                Statement(spec.name, None, spec)
                for spec in customer_lite.queries(db)
            ]],
            OneShotRunner,
        ),
        Workload(
            "star_clients",
            "2 closed-loop clients x 100 short star statements through "
            "AsyncQueryService: per-statement service/sql overhead and "
            "two-thread GIL contention are the largest share anywhere",
            2.0,
            star.build_database,
            _star_stream,
            AsyncRunner,
        ),
    )
}
