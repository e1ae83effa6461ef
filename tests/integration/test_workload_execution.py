"""End-to-end execution of every workload query under every pipeline.

The strongest integration guarantee in the suite: for each workload, a
sample of queries (and all of tpcds) is optimized by each pipeline and
executed; all pipelines must return identical answers.  With exact
filters any divergence is a planner or executor bug.  Every
``tpcds_lite`` and ``job_lite`` statement is also answered by stdlib
``sqlite3`` and held to it (``tests/sqlite_reference.py``), so a bug
every pipeline shares cannot hide behind their agreement.
"""

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.filters import FILTER_KINDS
from repro.optimizer.pipelines import optimize_query
from repro.workloads import job_lite, tpcds_lite
from sqlite_reference import assert_matches_sqlite

_PIPELINES = ("original", "bqo", "dp", "original_nobv", "bqo_allfilters")


def _checksum(result) -> float:
    from repro.bench.harness import _checksum as harness_checksum

    return harness_checksum(result)


class TestCrossPipelineConsistency:
    def test_tpcds_all_queries(self, tpcds_tiny):
        db, queries = tpcds_tiny
        executor = Executor(db)
        for spec in queries:
            values = set()
            for pipeline in _PIPELINES:
                optimized = optimize_query(db, spec, pipeline)
                result = executor.execute(optimized.plan)
                values.add(round(_checksum(result), 6))
            assert len(values) == 1, f"{spec.name}: pipelines disagree"

    def test_job_sample(self, job_tiny):
        db, queries = job_tiny
        executor = Executor(db)
        for spec in queries[::3]:
            values = set()
            for pipeline in ("original", "bqo", "dp"):
                optimized = optimize_query(db, spec, pipeline)
                values.add(round(_checksum(executor.execute(optimized.plan)), 6))
            assert len(values) == 1, f"{spec.name}: pipelines disagree"

    def test_customer_sample(self, customer_tiny):
        db, queries = customer_tiny
        executor = Executor(db)
        for spec in queries[::4]:
            values = set()
            for pipeline in ("original", "bqo"):
                optimized = optimize_query(db, spec, pipeline)
                values.add(round(_checksum(executor.execute(optimized.plan)), 6))
            assert len(values) == 1, f"{spec.name}: pipelines disagree"


_SQLITE_CASES = [
    pytest.param("tpcds_tiny", name, sql, id=f"tpcds_lite-{name}")
    for name, sql in tpcds_lite.query_sqls()
] + [
    pytest.param("job_tiny", name, sql, id=f"job_lite-{name}")
    for name, sql in job_lite.query_sqls()
]


class TestSqliteReference:
    def test_statement_lists_match_the_specs(self, tpcds_tiny, job_tiny):
        for workload, (_, queries) in ((tpcds_lite, tpcds_tiny), (job_lite, job_tiny)):
            assert [name for name, _ in workload.query_sqls()] == [
                spec.name for spec in queries
            ]

    @pytest.mark.parametrize("fixture, name, sql", _SQLITE_CASES)
    def test_statement_matches_sqlite(self, request, fixture, name, sql):
        db, queries = request.getfixturevalue(fixture)
        spec = next(spec for spec in queries if spec.name == name)
        result = Executor(db).execute(optimize_query(db, spec, "bqo").plan)
        assert_matches_sqlite(db, sql, result, spec)


class TestFilterKindConsistency:
    @pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
    def test_answers_independent_of_filter_kind(self, tpcds_tiny, filter_kind):
        db, queries = tpcds_tiny
        executor = Executor(db, filter_kind=filter_kind)
        reference = Executor(db)
        for spec in queries[:6]:
            optimized = optimize_query(db, spec, "bqo")
            got = _checksum(executor.execute(optimized.plan))
            expected = _checksum(reference.execute(optimized.plan))
            assert np.isclose(got, expected)


class TestAnswerAgainstBruteForce:
    def test_count_star_queries_match_numpy_reference(self, tpcds_tiny):
        """Independently recompute two known queries with raw numpy."""
        db, queries = tpcds_tiny
        executor = Executor(db)

        # ds_q01: store_sales x date_dim, d_year = 2000
        spec = next(q for q in queries if q.name == "ds_q01")
        result = executor.execute(optimize_query(db, spec, "bqo").plan)
        ss = db.table("store_sales")
        dd = db.table("date_dim")
        keys_2000 = dd.column("d_date_sk")[dd.column("d_year") == 2000]
        expected = int(np.isin(ss.column("ss_sold_date_sk"), keys_2000).sum())
        assert result.scalar("cnt") == expected

        # ds_q09: ss x customer x address, state in (CA, TX, NY)
        spec = next(q for q in queries if q.name == "ds_q09")
        result = executor.execute(optimize_query(db, spec, "bqo").plan)
        ca = db.table("customer_address")
        cust = db.table("customer")
        ok_addr = ca.column("ca_address_sk")[
            np.isin(ca.column("ca_state"), np.array(["CA", "TX", "NY"], dtype=object))
        ]
        ok_cust = cust.column("c_customer_sk")[
            np.isin(cust.column("c_current_addr_sk"), ok_addr)
        ]
        expected = int(np.isin(ss.column("ss_customer_sk"), ok_cust).sum())
        assert result.scalar("cnt") == expected
