"""Build-parallelism discounting in cost-based filter selection.

The paper's Section 6.3 threshold polices a *serial* pass over the
build side; with partitioned builds the estimator discounts that cost
by the effective parallelism, so large-dimension filters the flat
threshold rejected become worth creating.  ``build_parallelism=1``
must reproduce the old rule exactly.
"""

import numpy as np

import repro.service.service as service_module
from repro.cost.constants import DEFAULT_LAMBDA_THRESH
from repro.optimizer.filter_selection import apply_cost_based_filters
from repro.optimizer.pipelines import optimize_query
from repro.plan.nodes import HashJoinNode
from repro.service import QueryService
from repro.sql.binder import parse_query
from repro.stats.estimator import CardinalityEstimator
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table

# The fact side draws ~7.5 rows per dimension key, so its distinct keys
# cover essentially the whole domain; a dimension predicate keeping
# cut% of the rows then yields elimination ~ (100 - cut)% — landing the
# borderline cuts between the halved threshold and the full 5% one,
# which is exactly the regime the discount flips.
_DIM_ROWS = 40_000
_FACT_ROWS = 300_000


def _database() -> Database:
    rng = np.random.default_rng(21)
    database = Database("bpt")
    database.add_table(
        Table.from_arrays(
            "dim",
            {
                "id": np.arange(_DIM_ROWS),
                "attr": (np.arange(_DIM_ROWS) * 7919) % 100,
            },
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "fact",
            {"fk": rng.integers(0, _DIM_ROWS, _FACT_ROWS)},
        ),
        validate_key=False,
    )
    database.add_foreign_key(ForeignKey("fact", ("fk",), "dim", ("id",)))
    return database


def _joins(plan):
    return [node for node in plan.walk() if isinstance(node, HashJoinNode)]


def _plan_for(database, cut):
    sql = (
        "SELECT COUNT(*) AS c FROM fact f, dim d "
        f"WHERE f.fk = d.id AND d.attr < {cut}"
    )
    spec = parse_query(database, sql, "q")
    plan = optimize_query(database, spec, "bqo_allfilters").plan
    # bqo_allfilters skips cost-based selection, giving a plan whose
    # flags the tests then set explicitly.
    estimator = CardinalityEstimator(database, spec.alias_tables)
    return plan, estimator


class TestEstimatorDiscount:
    def test_serial_and_small_builds_get_no_discount(self):
        estimator = CardinalityEstimator(_database(), {"d": "dim"})
        assert estimator.filter_build_discount(1_000_000, 1) == 1.0
        # Below the executor's parallel-dispatch threshold the build
        # stays serial no matter the pool width.
        assert estimator.filter_build_discount(100, 8) == 1.0

    def test_discount_tracks_parallelism_and_build_size(self):
        estimator = CardinalityEstimator(_database(), {"d": "dim"})
        assert estimator.filter_build_discount(1_000_000, 4) == 4.0
        # A build that cannot feed every worker a MIN_MORSEL_ROWS
        # partition is credited with fewer effective workers.
        assert 1.0 < estimator.filter_build_discount(8192, 16) < 16.0


class TestThresholdDiscount:
    def test_serial_default_is_unchanged(self):
        database = _database()
        plan, estimator = _plan_for(database, 90)
        apply_cost_based_filters(
            plan, estimator, DEFAULT_LAMBDA_THRESH
        )
        serial_flags = [j.creates_bitvector for j in _joins(plan)]
        plan2, estimator2 = _plan_for(database, 90)
        apply_cost_based_filters(
            plan2, estimator2, DEFAULT_LAMBDA_THRESH,
            build_parallelism=1,
        )
        assert [j.creates_bitvector for j in _joins(plan2)] == serial_flags

    def test_parallel_build_admits_borderline_filter(self):
        """A filter whose elimination sits between lambda/2 and lambda
        is rejected serially but admitted once the build is partitioned
        across 4 workers (the build side is a large dimension, so the
        saved build cost dominates the threshold)."""
        database = _database()
        for cut in range(99, 90, -1):
            plan, estimator = _plan_for(database, cut)
            apply_cost_based_filters(
                plan, estimator, DEFAULT_LAMBDA_THRESH
            )
            serial_creates = any(j.creates_bitvector for j in _joins(plan))
            if serial_creates:
                continue
            plan, estimator = _plan_for(database, cut)
            apply_cost_based_filters(
                plan, estimator, DEFAULT_LAMBDA_THRESH,
                build_parallelism=4,
            )
            if any(j.creates_bitvector for j in _joins(plan)):
                return  # found the borderline: rejected serial, admitted parallel
        raise AssertionError(
            "no cut produced a filter rejected serially but admitted "
            "under build_parallelism=4"
        )

    def test_service_discounts_only_partitioned_filter_kinds(self, monkeypatch):
        """An exact filter is built serially at any parallelism, so an
        exact-kind service plans at ``parallelism=4`` as at 1; a Bloom
        service keeps the discount, which flips this cut's filter."""
        planned = []

        def spy(*args, **kwargs):
            optimized = optimize_query(*args, **kwargs)
            planned.append(
                (optimized.signature,
                 [j.creates_bitvector for j in _joins(optimized.plan)])
            )
            return optimized

        monkeypatch.setattr(service_module, "optimize_query", spy)
        database = _database()
        sql = (
            "SELECT COUNT(*) AS c FROM fact f, dim d "
            "WHERE f.fk = d.id AND d.attr < 97"
        )
        for kind, parallelism in (
            ("exact", 1), ("exact", 4), ("bloom", 1), ("bloom", 4)
        ):
            with QueryService(
                database, filter_kind=kind, parallelism=parallelism
            ) as service:
                service.explain(sql)
        exact_1, exact_4, bloom_1, bloom_4 = planned
        assert exact_4 == exact_1 == bloom_1
        assert bloom_1[1] == [False] and bloom_4[1] == [True]

    def test_floor_keeps_worthless_filters_out(self):
        """Even infinite build parallelism cannot push the threshold
        below half the deployed lambda: a filter that eliminates
        (almost) nothing stays rejected."""
        database = _database()
        # cut=100 keeps every dimension row: elimination ~ 0.
        plan, estimator = _plan_for(database, 100)
        apply_cost_based_filters(
            plan, estimator, DEFAULT_LAMBDA_THRESH,
            build_parallelism=64,
        )
        assert not any(j.creates_bitvector for j in _joins(plan))
