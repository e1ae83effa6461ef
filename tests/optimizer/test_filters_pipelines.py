"""Tests for cost-based filter selection (Section 6.3) and the
end-to-end pipelines."""

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.errors import OptimizerError
from repro.optimizer.filter_selection import apply_cost_based_filters
from repro.optimizer.pipelines import PIPELINES, optimize_query
from repro.plan.builder import build_right_deep
from repro.plan.nodes import HashJoinNode
from repro.query.joingraph import JoinGraph
from repro.query.spec import JoinPredicate, QuerySpec, RelationRef
from repro.service import QueryService
from repro.stats.estimator import CardinalityEstimator
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from repro.workloads import tpcds_lite


@pytest.fixture(scope="module")
def unselective_db():
    """Fact whose FK domain exactly covers the dimension: a bitvector
    from the (unfiltered) dimension eliminates nothing."""
    rng = np.random.default_rng(0)
    db = Database("u")
    db.add_table(
        Table.from_arrays("dim", {"id": np.arange(50)}, key=("id",))
    )
    db.add_table(
        Table.from_arrays("fact", {"fk": rng.integers(0, 50, 5000)})
    )
    db.add_foreign_key(ForeignKey("fact", ("fk",), "dim", ("id",)))
    return db


class TestCostBasedSelection:
    def test_useless_filter_disabled(self, unselective_db):
        spec = QuerySpec(
            name="q",
            relations=(RelationRef("f", "fact"), RelationRef("d", "dim")),
            join_predicates=(JoinPredicate("f", ("fk",), "d", ("id",)),),
        )
        graph = JoinGraph(spec, unselective_db.catalog)
        estimator = CardinalityEstimator(unselective_db, spec.alias_tables)
        plan = build_right_deep(graph, ["f", "d"])
        apply_cost_based_filters(plan, estimator, lambda_thresh=0.05)
        joins = [n for n in plan.walk() if isinstance(n, HashJoinNode)]
        assert all(not j.creates_bitvector for j in joins)

    def test_selective_filter_kept(self, star_db, star_spec):
        graph = JoinGraph(star_spec, star_db.catalog)
        estimator = CardinalityEstimator(star_db, star_spec.alias_tables)
        plan = build_right_deep(graph, ["f", "d1", "d2"])
        apply_cost_based_filters(plan, estimator, lambda_thresh=0.05)
        joins = {n.build_keys[0][0]: n for n in plan.walk()
                 if isinstance(n, HashJoinNode)}
        # d1 has a 30%-selectivity predicate: its filter survives;
        # d2 is unfiltered and covers the domain: its filter is dropped.
        assert joins["d1"].creates_bitvector
        assert not joins["d2"].creates_bitvector

    def test_zero_threshold_keeps_everything(self, star_db, star_spec):
        graph = JoinGraph(star_spec, star_db.catalog)
        estimator = CardinalityEstimator(star_db, star_spec.alias_tables)
        plan = build_right_deep(graph, ["f", "d1", "d2"])
        apply_cost_based_filters(plan, estimator, lambda_thresh=0.0)
        assert all(
            n.creates_bitvector for n in plan.walk()
            if isinstance(n, HashJoinNode)
        )


class TestPipelines:
    def test_all_pipelines_registered(self):
        assert set(PIPELINES) == {
            "original", "original_nobv", "original_allfilters",
            "bqo", "bqo_allfilters", "dp", "dp_nobv",
        }

    def test_unknown_pipeline_rejected(self, star_db, star_spec):
        with pytest.raises(OptimizerError, match="unknown pipeline"):
            optimize_query(star_db, star_spec, "nope")

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_each_pipeline_produces_correct_answer(
        self, pipeline, star_db, star_spec, star_expected_count
    ):
        optimized = optimize_query(star_db, star_spec, pipeline)
        result = Executor(star_db).execute(optimized.plan)
        assert result.scalar("cnt") == star_expected_count

    def test_nobv_pipeline_has_no_filters(self, star_db, star_spec):
        optimized = optimize_query(star_db, star_spec, "original_nobv")
        assert all(
            node.created_bitvector is None
            for node in optimized.plan.walk()
            if isinstance(node, HashJoinNode)
        )

    def test_allfilters_pipeline_filters_every_join(self, star_db, star_spec):
        optimized = optimize_query(star_db, star_spec, "bqo_allfilters")
        joins = [
            n for n in optimized.plan.walk() if isinstance(n, HashJoinNode)
        ]
        assert all(j.created_bitvector is not None for j in joins)

    def test_estimated_cout_recorded(self, star_db, star_spec):
        optimized = optimize_query(star_db, star_spec, "bqo")
        assert optimized.estimated_cout > 0
        assert optimized.signature
        assert optimized.name == "star_q/bqo"

    def test_bqo_not_worse_than_original_on_star(self, star_db, star_spec):
        executor = Executor(star_db)
        cpu = {}
        for pipeline in ("original", "bqo"):
            optimized = optimize_query(star_db, star_spec, pipeline)
            cpu[pipeline] = executor.execute(optimized.plan).metrics.metered_cpu()
        assert cpu["bqo"] <= cpu["original"] * 1.25


def _created_filters(plan):
    return [
        node.created_bitvector is not None
        for node in plan.walk()
        if isinstance(node, HashJoinNode)
    ]


class TestPlansIgnoreParallelism:
    """Every filter is built in one serial pass, which the threshold
    prices; executor parallelism cannot move a plan."""

    @pytest.fixture(scope="class")
    def tpcds(self):
        # ds_q18 under "original" is the statement a build-cost
        # discount at parallelism 4 once re-flagged at this scale.
        database = tpcds_lite.build_database(1.0)
        return database, {spec.name: spec for spec in tpcds_lite.queries(database)}

    def test_build_parallelism_is_accepted_and_ignored(self, tpcds):
        database, specs = tpcds
        default = optimize_query(database, specs["ds_q18"], "original")
        wide = optimize_query(
            database, specs["ds_q18"], "original", build_parallelism=4
        )
        assert wide.signature == default.signature
        assert wide.estimated_cout == default.estimated_cout
        assert _created_filters(wide.plan) == _created_filters(default.plan)

    @pytest.mark.parametrize("pipeline", ["bqo", "original"])
    @pytest.mark.parametrize(
        "workload", ["tpcds_tiny", "job_tiny", "customer_tiny"]
    )
    def test_every_statement_plans_alike(self, request, workload, pipeline):
        database, specs = request.getfixturevalue(workload)
        for spec in specs:
            default = optimize_query(database, spec, pipeline)
            wide = optimize_query(database, spec, pipeline, build_parallelism=4)
            assert (wide.signature, wide.estimated_cout) == (
                default.signature, default.estimated_cout
            ), spec.name
            assert _created_filters(wide.plan) == _created_filters(default.plan)

    def test_bloom_service_caches_the_same_plans_at_any_parallelism(self, tpcds):
        database, _ = tpcds
        cached = []
        for parallelism in (1, 4):
            with QueryService(
                database, pipeline="original", filter_kind="blocked_bloom",
                parallelism=parallelism,
            ) as service:
                for _, sql in tpcds_lite.query_sqls():
                    service.explain(sql)
                cached.append({
                    (entry.fingerprint, entry.pipeline): (
                        entry.signature, entry.estimated_cout,
                        _created_filters(entry.plan),
                    )
                    for entry in service.plan_cache.values()
                })
        assert len(cached[0]) == len(tpcds_lite.query_sqls())
        assert cached[1] == cached[0]
