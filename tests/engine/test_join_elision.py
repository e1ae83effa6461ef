"""Semi-join elision: an absorbed join is skipped, and nothing can tell.

A join whose own *exact* filter was applied in its probe subtree, whose
build keys are distinct, and whose build side feeds no column upward
adds and removes no probe row (the paper's absorption property of PK-FK
bitvector filters).  The executor returns its probe input unchanged and
meters it as the executed join would have been — so results, every
per-node metrics record and every flat counter must equal a run with
elision defeated (a test-only monkeypatch of the plan sweep's result,
not a product flag).  The negative cases pin each precondition: drop
one and the join runs.

The executed joins' own shortcuts are held to the same twin-run
standard: a side every row of which survived in order is merged as it
is (no ``arange`` composed through its selections), and column groups
nothing above the join reads are not carried.  With both defeated the
answers, node records, metered CPU and every flat counter are equal;
only the copy counters may be lower.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.engine.executor import Executor
from repro.engine.relation import Relation
from repro.obs import Tracer
from repro.optimizer.pipelines import optimize_query
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.nodes import HashJoinNode
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.service import QueryService
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from repro.workloads import job_lite, star, tpcds_lite
from sqlite_reference import assert_matches_sqlite
from star_statements import star_statements

_FLAT_COUNTERS = (
    "dictionary_hits", "dictionary_misses", "filter_cache_hits",
    "filter_cache_misses", "rows_copied", "bytes_gathered",
    "morsels_pruned", "rows_skipped", "selection_bytes",
)


def _elided_joins(executor: Executor, plan) -> tuple[set[int], object]:
    """(node ids of the joins this execution elided, its result)."""
    tracer = Tracer()
    result = executor.execute(plan, tracer=tracer)
    return {
        span.attributes["node_id"]
        for span in tracer.spans("node")
        if span.attributes.get("elided")
    }, result


def _defeat_elision(patch: pytest.MonkeyPatch) -> None:
    """Every join runs: the plan sweep reports nothing absorbable."""
    plan_facts = executor_module._plan_facts
    patch.setattr(
        executor_module, "_plan_facts",
        lambda *args: plan_facts(*args)._replace(absorbable=frozenset()),
    )


def _defeat_merge_shortcuts(patch: pytest.MonkeyPatch, defeated: list) -> None:
    """Every merge composes both sides and carries every group;
    ``defeated`` collects what each merge was asked to skip."""
    merged_with = Relation.merged_with

    def composing(self, other, self_idx, other_idx, live=None):
        defeated.append((self_idx is None, other_idx is None, live is not None))
        if self_idx is None:
            self_idx = np.arange(self.num_rows, dtype=np.int64)
        if other_idx is None:
            other_idx = np.arange(other.num_rows, dtype=np.int64)
        return merged_with(self, other, self_idx, other_idx)

    patch.setattr(Relation, "merged_with", composing)


def _twin_runs(workload: str, pipeline: str, defeat):
    """Per statement ``(sql, (elided, result), (elided, result))``: a
    plain run and one under the ``defeat`` monkeypatch."""
    build_database, statements = _WORKLOADS[workload]
    database = build_database()
    for index, sql in enumerate(statements()):
        spec = parse_query(database, sql, f"{workload}_{index}")
        plan = optimize_query(database, spec, pipeline).plan
        plain = _elided_joins(Executor(database), plan)
        with pytest.MonkeyPatch.context() as patch:
            defeat(patch)
            defeated = _elided_joins(Executor(database), plan)
        yield sql, plain, defeated


def _joins(plan) -> list[HashJoinNode]:
    return [node for node in plan.walk() if isinstance(node, HashJoinNode)]


def _result_bytes(result) -> tuple:
    columns = (
        result.aggregates
        if result.aggregates is not None
        else {str(key): values for key, values in result.relation.columns.items()}
    )
    return tuple(
        (label, np.asarray(values).dtype.str, np.asarray(values).tolist())
        for label, values in sorted(columns.items())
    )


def _node_records(metrics) -> list[dict]:
    records = [dataclasses.asdict(node) for node in metrics.nodes]
    for record in records:
        del record["wall_seconds"]
    return records


_WORKLOADS = {
    "tpcds_lite": (
        lambda: tpcds_lite.build_database(scale=0.02),
        lambda: [sql for _, sql in tpcds_lite.query_sqls()],
    ),
    "job_lite": (
        lambda: job_lite.build_database(scale=0.02),
        lambda: [sql for _, sql in job_lite.query_sqls()],
    ),
    "star": (
        lambda: star.build_database(scale=0.1),
        # Every star statement reads fact columns only, so every join of
        # its plan is elided; one that groups by a dimension column keeps
        # an executed join, whose merge has shortcuts to defeat.
        lambda: star_statements() + [
            "SELECT d.d_year, SUM(lo.lo_revenue) AS rev FROM lineorder lo, "
            "date_dim d, supplier s WHERE lo.lo_orderdate = d.d_datekey AND "
            "lo.lo_suppkey = s.s_suppkey AND s.s_nation = 'NATION07' "
            "GROUP BY d.d_year"
        ],
    ),
}


class TestElisionIsUnobservable:
    @pytest.mark.parametrize("pipeline", ["bqo", "original"])
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_every_statement_equals_the_run_with_every_join_executed(
        self, workload, pipeline
    ):
        elided_total = 0
        for sql, (elided, with_elision), (none_elided, executed) in _twin_runs(
            workload, pipeline, _defeat_elision
        ):
            elided_total += len(elided)
            assert none_elided == set()
            assert _result_bytes(with_elision) == _result_bytes(executed), sql
            assert _node_records(with_elision.metrics) == _node_records(
                executed.metrics
            ), sql
            for counter in _FLAT_COUNTERS:
                assert getattr(with_elision.metrics, counter) == getattr(
                    executed.metrics, counter
                ), (counter, sql)
            assert with_elision.metrics.metered_cpu() == (
                executed.metrics.metered_cpu()
            )
        assert elided_total > 0, "no statement exercised elision"

    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_every_statement_equals_the_run_with_merge_shortcuts_defeated(
        self, workload
    ):
        defeated: list[tuple[bool, bool, bool]] = []
        defeat = functools.partial(_defeat_merge_shortcuts, defeated=defeated)
        for sql, (elided, shortcut), (same_elided, composed) in itertools.chain(
            _twin_runs(workload, "bqo", defeat),
            _twin_runs(workload, "original", defeat),
        ):
            assert elided == same_elided
            assert _result_bytes(shortcut) == _result_bytes(composed), sql
            assert _node_records(shortcut.metrics) == _node_records(
                composed.metrics
            ), sql
            assert shortcut.metrics.metered_cpu() == composed.metrics.metered_cpu()
            for counter in _FLAT_COUNTERS:
                ours = getattr(shortcut.metrics, counter)
                theirs = getattr(composed.metrics, counter)
                if counter in ("rows_copied", "bytes_gathered"):
                    assert ours <= theirs, (counter, sql)
                else:
                    assert ours == theirs, (counter, sql)
        # Both shortcuts were there to defeat: an identity side and a
        # live-alias set.
        assert any(self_id or other_id for self_id, other_id, _ in defeated)
        assert any(live for _, _, live in defeated)

    def test_elided_join_never_touches_the_kernel(self, star_db, monkeypatch):
        sql = (
            "SELECT COUNT(*) AS cnt, SUM(f.m) AS total FROM fact f, dim1 d1, "
            "dim2 d2 WHERE f.fk1 = d1.id AND f.fk2 = d2.id AND d1.v < 5 "
            "AND d2.w < 6"
        )
        plan = optimize_query(
            star_db, parse_query(star_db, sql, "both"), "bqo"
        ).plan
        matched = []
        join_matches = Executor._join_matches

        def counting(self, node, *args):
            matched.append(node.node_id)
            return join_matches(self, node, *args)

        monkeypatch.setattr(Executor, "_join_matches", counting)
        elided, result = _elided_joins(Executor(star_db), plan)
        assert elided == {node.node_id for node in _joins(plan)}
        assert matched == []
        # The output relation is the fact side alone.
        assert {alias for alias, _ in result.relation.column_keys()} == {"f"}

    def test_service_explain_analyze_marks_the_join(self, star_db):
        rendered = QueryService(star_db).explain_analyze(
            "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
            "WHERE f.fk1 = d1.id AND d1.v < 4"
        )
        join_line = next(
            line for line in rendered.splitlines() if "HashJoin" in line
        )
        assert "elided — absorbed by BV#" in join_line


def _filter_only_sql(select: str = "COUNT(*) AS cnt", tail: str = "") -> str:
    return (
        f"SELECT {select} FROM fact f, dim1 d1 "
        f"WHERE f.fk1 = d1.id AND d1.v < 4{tail}"
    )


def _bqo_plan(database, sql: str):
    return optimize_query(database, parse_query(database, sql, "q"), "bqo").plan


class TestPreconditions:
    def test_baseline_shape_is_elided(self, star_db):
        plan = _bqo_plan(star_db, _filter_only_sql())
        elided, _ = _elided_joins(Executor(star_db), plan)
        assert len(elided) == 1

    @pytest.mark.parametrize("kind", ["bloom", "blocked_bloom"])
    def test_bloom_kinds_execute_the_join(self, star_db, kind):
        """False positives survive the filter; only the join drops them."""
        plan = _bqo_plan(star_db, _filter_only_sql())
        elided, result = _elided_joins(Executor(star_db, filter_kind=kind), plan)
        assert elided == set()
        _, exact = _elided_joins(Executor(star_db), plan)
        assert result.scalar("cnt") == exact.scalar("cnt")

    def test_elided_join_answers_as_sqlite_executes_it(self, star_db):
        for sql in (
            _filter_only_sql(),
            _filter_only_sql("COUNT(*) AS cnt, SUM(f.m) AS total"),
        ):
            spec = parse_query(star_db, sql, "q")
            plan = optimize_query(star_db, spec, "bqo").plan
            elided, result = _elided_joins(Executor(star_db), plan)
            assert len(elided) == 1
            assert_matches_sqlite(star_db, sql, result, spec)

    def test_non_unique_build_executes_the_join(self):
        """Duplicate build keys multiply probe rows: the filter cannot
        stand in for that.  The schema *declares* ``id`` a key (loaded
        unvalidated), so only the data can say otherwise."""
        rng = np.random.default_rng(3)
        database = Database("dup_build")
        database.add_table(
            Table.from_arrays(
                "dim1",
                {"id": np.repeat(np.arange(50), 2), "v": np.tile([1, 2], 50)},
                key=("id",),
            ),
            validate_key=False,
        )
        database.add_table(
            Table.from_arrays(
                "fact", {"fk1": rng.integers(0, 80, 2_000), "m": rng.random(2_000)}
            )
        )
        database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
        sql = (
            "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 WHERE f.fk1 = d1.id"
        )
        spec = parse_query(database, sql, "dup")
        graph = JoinGraph(spec, database.catalog)
        plan = attach_aggregate(
            push_down_bitvectors(build_right_deep(graph, ["f", "d1"])), spec
        )
        elided, result = _elided_joins(Executor(database), plan)
        assert elided == set()
        fact_keys = database.table("fact").column("fk1")
        assert result.scalar("cnt") == 2 * int((fact_keys < 50).sum())

    @pytest.mark.parametrize(
        "kept, elides",
        [((0, 2, 4, 6), True), ((0, 1, 2, 4, 6), False)],
        ids=["one-row-per-key", "two-rows-of-one-key"],
    )
    def test_distinct_keys_are_the_build_rows_not_the_table(self, kept, elides):
        """The table stores every ``id`` twice (rows ``2k`` and
        ``2k + 1``; ``v`` numbers the rows), so only the predicate's
        surviving rows can say whether the build keys are distinct.
        Checked with the filter built fresh and served from the
        service's filter cache."""
        rng = np.random.default_rng(4)
        database = Database("repeating_dim")
        database.add_table(
            Table.from_arrays(
                "dim1",
                {"id": np.repeat(np.arange(50), 2), "v": np.arange(100)},
                key=("id",),
            ),
            validate_key=False,
        )
        database.add_table(
            Table.from_arrays(
                "fact", {"fk1": rng.integers(0, 80, 2_000), "m": rng.random(2_000)}
            )
        )
        database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
        sql = (
            "SELECT COUNT(*) AS cnt, SUM(f.m) AS total FROM fact f, dim1 d1 "
            f"WHERE f.fk1 = d1.id AND d1.v IN ({', '.join(map(str, kept))})"
        )
        spec = parse_query(database, sql, "q")
        fact_keys = database.table("fact").column("fk1")
        # One output row per fact row and matching dimension row.
        matches = sum(int((fact_keys == v // 2).sum()) for v in kept)
        service = QueryService(database)
        for cached in (False, True):
            tracer = Tracer()
            outcome = service.execute(sql, tracer=tracer)
            assert outcome.metrics.filter_cache_hits == int(cached)
            assert outcome.metrics.filter_cache_misses == int(not cached)
            elided = [
                span for span in tracer.spans("node")
                if span.attributes.get("elided")
            ]
            assert len(elided) == int(elides)
            assert outcome.scalar("cnt") == matches
            assert_matches_sqlite(database, sql, outcome.result, spec)

    def test_value_compared_keys_execute_the_join(self):
        """A float probe key has no stored dictionary: the executed join
        compares values and counts a dictionary *miss*.  An elided join
        would have to invent that counter, so it is executed — the flat
        counters equal the run with elision defeated."""
        rng = np.random.default_rng(5)
        database = Database("float_probe")
        database.add_table(
            Table.from_arrays(
                "dim1", {"id": np.arange(40), "v": np.arange(40) % 7},
                key=("id",),
            )
        )
        database.add_table(
            Table.from_arrays(
                "fact",
                {
                    "fk1": rng.integers(0, 60, 2_000).astype(np.float64),
                    "m": rng.random(2_000),
                },
            )
        )
        database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
        sql = (
            "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
            "WHERE f.fk1 = d1.id AND d1.v < 3"
        )
        plan = _bqo_plan(database, sql)
        (join,) = _joins(plan)
        assert join.node_id in executor_module._plan_facts(plan, {}).absorbable
        elided, result = _elided_joins(Executor(database), plan)
        assert elided == set()
        assert result.metrics.dictionary_misses == 1
        assert result.metrics.dictionary_hits == 0
        keys = database.table("fact").column("fk1")
        assert result.scalar("cnt") == int(((keys < 40) & (keys % 7 < 3)).sum())

    @pytest.mark.parametrize(
        "sql",
        [
            _filter_only_sql("d1.v, COUNT(*) AS cnt", " GROUP BY d1.v"),
            _filter_only_sql("SUM(d1.v) AS total"),
            _filter_only_sql("f.m, d1.v", " ORDER BY f.m LIMIT 5"),
            _filter_only_sql("f.m", " ORDER BY d1.v, f.m LIMIT 5"),
        ],
        ids=["group-by", "aggregate-argument", "projection", "order-key"],
    )
    def test_build_column_read_above_executes_the_join(self, star_db, sql):
        plan = _bqo_plan(star_db, sql)
        elided, _ = _elided_joins(Executor(star_db), plan)
        assert elided == set()

    def test_build_alias_in_a_later_join_key_executes_the_join(self):
        """Snowflake: ``mid`` is joined to ``fact`` and then used as the
        key of the join to ``leaf`` above it."""
        rng = np.random.default_rng(9)
        database = Database("snowflake")
        database.add_table(
            Table.from_arrays(
                "leaf", {"id": np.arange(20), "w": rng.integers(0, 5, 20)},
                key=("id",),
            )
        )
        database.add_table(
            Table.from_arrays(
                "mid",
                {"id": np.arange(200), "leaf_id": rng.integers(0, 20, 200),
                 "v": rng.integers(0, 10, 200)},
                key=("id",),
            )
        )
        database.add_table(
            Table.from_arrays("fact", {"fk": rng.integers(0, 200, 4_000)})
        )
        database.add_foreign_key(ForeignKey("fact", ("fk",), "mid", ("id",)))
        database.add_foreign_key(ForeignKey("mid", ("leaf_id",), "leaf", ("id",)))
        sql = (
            "SELECT COUNT(*) AS cnt FROM fact f, mid m, leaf l "
            "WHERE f.fk = m.id AND m.leaf_id = l.id AND m.v < 5 AND l.w < 3"
        )
        spec = parse_query(database, sql, "snow")
        graph = JoinGraph(spec, database.catalog)
        # f ⋈ m first (m on the build side), then ⋈ l keyed on m.leaf_id.
        plan = attach_aggregate(
            push_down_bitvectors(build_right_deep(graph, ["f", "m", "l"])), spec
        )
        lower, upper = sorted(_joins(plan), key=lambda node: -node.node_id)[:2]
        by_build = {
            next(iter(node.build.output_aliases)): node for node in (lower, upper)
        }
        elided, result = _elided_joins(Executor(database), plan)
        assert by_build["m"].node_id not in elided
        assert by_build["l"].node_id in elided
        with pytest.MonkeyPatch.context() as patch:
            _defeat_elision(patch)
            executed = Executor(database).execute(plan)
        assert result.scalar("cnt") == executed.scalar("cnt")

    def test_dropped_filter_executes_the_join(self, star_db):
        """Cost-based selection said "no filter" for this join: nothing
        was applied below it, so nothing absorbed it."""
        spec = parse_query(star_db, _filter_only_sql(), "dropped")
        graph = JoinGraph(spec, star_db.catalog)
        plan = build_right_deep(graph, ["f", "d1"])
        for join in _joins(plan):
            join.creates_bitvector = False
        plan = attach_aggregate(push_down_bitvectors(plan), spec)
        elided, _ = _elided_joins(Executor(star_db), plan)
        assert elided == set()

    def test_bare_join_root_outputs_every_column(self, star_db):
        """No aggregate or projection on top: the caller reads the
        relation, build columns included."""
        spec = parse_query(star_db, _filter_only_sql(), "bare")
        graph = JoinGraph(spec, star_db.catalog)
        plan = push_down_bitvectors(build_right_deep(graph, ["f", "d1"]))
        elided, result = _elided_joins(Executor(star_db), plan)
        assert elided == set()
        assert ("d1", "id") in result.relation.column_keys()
