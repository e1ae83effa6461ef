"""Tests for the cardinality estimator."""

import statistics

import numpy as np
import pytest

from repro.cascades import CascadesOptimizer
from repro.cost.physical import estimated_cpu
from repro.engine.executor import Executor
from repro.errors import QueryError
from repro.expr.expressions import (
    And,
    Between,
    Comparison,
    InList,
    Like,
    Not,
    Or,
    col,
    lit,
)
from repro.plan.builder import attach_aggregate
from repro.plan.nodes import FilterNode, HashJoinNode, ScanNode
from repro.plan.pushdown import push_down_bitvectors
from repro.stats.estimator import CardinalityEstimator
from repro.storage.database import Database
from repro.storage.table import Table
from repro.workloads import tpcds_lite


@pytest.fixture(scope="module")
def db() -> Database:
    rng = np.random.default_rng(3)
    database = Database("est")
    database.add_table(
        Table.from_arrays(
            "t",
            {
                "id": np.arange(10_000),
                "bucket": rng.integers(0, 100, 10_000),
                "price": rng.uniform(0, 1000, 10_000),
                "label": np.array(
                    [f"{'red' if i % 4 == 0 else 'blue'}_{i % 7}" for i in range(10_000)],
                    dtype=object,
                ),
            },
            key=("id",),
        )
    )
    return database


@pytest.fixture(scope="module")
def estimator(db) -> CardinalityEstimator:
    return CardinalityEstimator(db, {"a": "t", "b": "t"})


class TestPredicateSelectivity:
    def test_equality_uses_distinct_count(self, estimator):
        sel = estimator.predicate_selectivity(Comparison("=", col("a", "bucket"), lit(5)))
        assert sel == pytest.approx(0.01, rel=0.6)

    def test_range_uses_histogram(self, estimator):
        sel = estimator.predicate_selectivity(Comparison("<", col("a", "price"), lit(250.0)))
        assert sel == pytest.approx(0.25, abs=0.05)

    def test_reversed_comparison(self, estimator):
        # literal < column  is  column > literal
        sel = estimator.predicate_selectivity(Comparison("<", lit(750.0), col("a", "price")))
        assert sel == pytest.approx(0.25, abs=0.05)

    def test_between(self, estimator):
        sel = estimator.predicate_selectivity(
            Between(col("a", "price"), lit(100.0), lit(300.0))
        )
        assert sel == pytest.approx(0.2, abs=0.05)

    def test_in_list_additive(self, estimator):
        one = estimator.predicate_selectivity(Comparison("=", col("a", "bucket"), lit(1)))
        three = estimator.predicate_selectivity(
            InList(col("a", "bucket"), (1, 2, 3))
        )
        assert three == pytest.approx(3 * one, rel=0.5)

    def test_like_sample_based(self, estimator):
        sel = estimator.predicate_selectivity(Like(col("a", "label"), "red%"))
        assert sel == pytest.approx(0.25, abs=0.07)

    def test_and_independence(self, estimator):
        a = Comparison("<", col("a", "price"), lit(500.0))
        b = Comparison("=", col("a", "bucket"), lit(5))
        combined = estimator.predicate_selectivity(And((a, b)))
        product = estimator.predicate_selectivity(a) * estimator.predicate_selectivity(b)
        assert combined == pytest.approx(product)

    def test_or_and_not(self, estimator):
        a = Comparison("<", col("a", "price"), lit(500.0))
        sel_not = estimator.predicate_selectivity(Not(a))
        assert sel_not == pytest.approx(1 - estimator.predicate_selectivity(a))
        sel_or = estimator.predicate_selectivity(Or((a, Not(a))))
        assert 0.7 <= sel_or <= 1.0

    def test_neq(self, estimator):
        sel = estimator.predicate_selectivity(Comparison("<>", col("a", "bucket"), lit(5)))
        assert sel == pytest.approx(0.99, abs=0.02)

    def test_unknown_alias_raises(self, estimator):
        with pytest.raises(QueryError):
            estimator.base_cardinality("zz", None)


class TestJoinEstimates:
    def test_base_cardinality_no_predicate(self, estimator):
        assert estimator.base_cardinality("a", None) == 10_000

    def test_join_selectivity_key_join(self, estimator):
        sel = estimator.join_selectivity("a", ("id",), "b", ("id",))
        assert sel == pytest.approx(1e-4)

    def test_join_cardinality_self_key_join(self, estimator):
        card = estimator.join_cardinality(
            10_000, 10_000, "a", ("id",), "b", ("id",)
        )
        assert card == pytest.approx(10_000)

    def test_semijoin_full_containment(self, estimator):
        sel = estimator.semijoin_selectivity("a", ("bucket",), "b", ("bucket",), 1.0)
        assert sel == pytest.approx(1.0)

    def test_semijoin_reduced_build(self, estimator):
        sel = estimator.semijoin_selectivity("a", ("id",), "b", ("id",), 0.1)
        assert sel == pytest.approx(0.1, rel=0.1)

    def test_multi_column_join_selectivity(self, estimator):
        single = estimator.join_selectivity("a", ("bucket",), "b", ("bucket",))
        double = estimator.join_selectivity(
            "a", ("bucket", "bucket"), "b", ("bucket", "bucket")
        )
        assert double == pytest.approx(single * single)


@pytest.fixture(scope="module")
def nan_db() -> Database:
    """Columns with degenerate statistics: all-NaN, part-NaN, constant."""
    database = Database("est_nan")
    half = np.arange(1000, dtype=np.float64)
    half[::2] = np.nan
    database.add_table(
        Table.from_arrays(
            "n",
            {
                "all_nan": np.full(1000, np.nan),
                "half_nan": half,
                "constant": np.zeros(1000, dtype=np.int64),
                "id": np.arange(1000),
            },
            key=("id",),
        )
    )
    return database


@pytest.fixture(scope="module")
def nan_estimator(nan_db) -> CardinalityEstimator:
    return CardinalityEstimator(nan_db, {"n": "n"})


class TestEdgeCases:
    def test_all_nan_column_comparison_stays_bounded(self, nan_estimator):
        for op in ("<", "<=", ">", ">=", "=", "<>"):
            sel = nan_estimator.predicate_selectivity(
                Comparison(op, col("n", "all_nan"), lit(5.0))
            )
            assert 0.0 <= sel <= 1.0, op

    def test_half_nan_column_comparison_stays_bounded(self, nan_estimator):
        sel = nan_estimator.predicate_selectivity(
            Comparison("<", col("n", "half_nan"), lit(500.0))
        )
        assert 0.0 <= sel <= 1.0

    def test_all_nan_base_cardinality_floor(self, nan_estimator):
        rows = nan_estimator.base_cardinality(
            "n", Comparison("=", col("n", "all_nan"), lit(1.0))
        )
        assert rows >= 1.0

    def test_constant_column_equality(self, nan_estimator):
        sel = nan_estimator.predicate_selectivity(
            Comparison("=", col("n", "constant"), lit(0))
        )
        assert sel == pytest.approx(1.0, abs=0.01)

    def test_empty_in_list_is_zero(self, estimator):
        sel = estimator.predicate_selectivity(InList(col("a", "bucket"), ()))
        assert sel == 0.0

    def test_single_element_in_matches_equality(self, estimator):
        eq = estimator.predicate_selectivity(
            Comparison("=", col("a", "bucket"), lit(7))
        )
        one = estimator.predicate_selectivity(InList(col("a", "bucket"), (7,)))
        assert one == pytest.approx(eq)

    def test_like_without_wildcards_acts_like_equality(self, estimator):
        # 'red_0' hits rows where i % 4 == 0 and i % 7 == 0, i.e. ~1/28.
        sel = estimator.predicate_selectivity(Like(col("a", "label"), "red_0"))
        assert sel == pytest.approx(1 / 28, abs=0.05)
        prefix = estimator.predicate_selectivity(Like(col("a", "label"), "red%"))
        assert sel < prefix

    def test_column_on_right_ge_le(self, estimator):
        # 750 >= price  is  price <= 750; 250 <= price  is  price >= 250.
        ge = estimator.predicate_selectivity(
            Comparison(">=", lit(750.0), col("a", "price"))
        )
        assert ge == pytest.approx(0.75, abs=0.05)
        le = estimator.predicate_selectivity(
            Comparison("<=", lit(250.0), col("a", "price"))
        )
        assert le == pytest.approx(0.75, abs=0.05)


class TestPerQueryMemos:
    """An estimator remembers base cardinalities and distinct counts
    for its own lifetime — one ``optimize_query`` call."""

    def test_base_cardinality_evaluates_a_predicate_once(self, db, monkeypatch):
        estimator = CardinalityEstimator(db, {"a": "t", "b": "t"})
        calls = []
        evaluate = CardinalityEstimator.predicate_selectivity
        monkeypatch.setattr(
            CardinalityEstimator, "predicate_selectivity",
            lambda self, expression: calls.append(expression)
            or evaluate(self, expression),
        )
        predicate = Comparison("<", col("a", "price"), lit(250.0))
        first = estimator.base_cardinality("a", predicate)
        assert estimator.base_cardinality("a", predicate) == first
        assert calls == [predicate]
        assert first == pytest.approx(2500, rel=0.1)

    def test_memo_is_keyed_by_alias_and_predicate_object(self, db):
        estimator = CardinalityEstimator(db, {"a": "t", "b": "t"})
        narrow = Comparison("<", col("a", "price"), lit(100.0))
        wide = Comparison("<", col("a", "price"), lit(900.0))
        assert estimator.base_cardinality("a", narrow) < estimator.base_cardinality(
            "a", wide
        )
        assert estimator.base_cardinality("a", None) == 10_000
        assert estimator.base_cardinality("b", None) == 10_000
        # and it agrees with an estimator that has remembered nothing
        fresh = CardinalityEstimator(db, {"a": "t", "b": "t"})
        assert fresh.base_cardinality("a", wide) == estimator.base_cardinality(
            "a", wide
        )


# TPC-DS-lite statements with at most four relations (cascades ``full``
# mode extracts up to 4000 plans per memo): stars, snowflake chains,
# group-bys, HAVING and ORDER BY ... LIMIT shapes.
_Q_ERROR_QUERIES = (
    "ds_q01", "ds_q02", "ds_q03", "ds_q05", "ds_q09", "ds_q10",
    "ds_q12", "ds_q16", "ds_q19", "ds_q26", "ds_q27", "ds_q30",
)


@pytest.fixture(scope="module")
def tpcds_small():
    database = tpcds_lite.build_database(0.1)
    return database, {spec.name: spec for spec in tpcds_lite.queries(database)}


@pytest.mark.parametrize("mode", ["full", "shallow"])
def test_q_error_against_executed_plans(tpcds_small, mode):
    """Per-operator q-error, max(est/obs, obs/est), of every scan, join
    and residual filter in the executed cascades plans.  The estimator
    is deliberately imperfect (Section 7.4 of the paper blames its
    regressions on exactly this gap), so the median bound is loose; an
    order-of-magnitude blow-up means statistics, push-down accounting
    or the executor's row counting broke."""
    database, specs = tpcds_small
    executor = Executor(database)
    optimizer = CascadesOptimizer(database)
    errors = []
    for name in _Q_ERROR_QUERIES:
        spec = specs[name]
        plan = attach_aggregate(
            push_down_bitvectors(optimizer.optimize(spec, mode)), spec
        )
        observed = {
            node.node_id: node.rows_out
            for node in executor.execute(plan).metrics.nodes
        }
        estimates = estimated_cpu(
            plan, CardinalityEstimator(database, spec.alias_tables)
        ).node_rows
        for node in plan.walk():
            if (
                isinstance(node, (ScanNode, HashJoinNode, FilterNode))
                and node.node_id in observed
            ):
                estimate = max(estimates[node.node_id], 1.0)
                actual = max(float(observed[node.node_id]), 1.0)
                errors.append(max(estimate / actual, actual / estimate))
    assert errors
    # At least 1.0 by construction; a NaN estimate fails this too.
    assert all(q >= 1.0 for q in errors)
    assert statistics.median(errors) <= 8.0
