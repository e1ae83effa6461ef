"""Tests for the vectorized executor against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import Executor
from repro.engine.join_kernel import join_codes
from repro.expr.expressions import Comparison, col, lit
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.query.spec import Aggregate, JoinPredicate, QuerySpec, RelationRef
from repro.storage.database import Database
from repro.storage.table import Table
from repro.util.keycodes import joint_codes_and_domain


def _match_keys(build_keys, probe_keys):
    """Value-keyed join through the executor's fallback: joint
    factorization, then the one code-space kernel."""
    build_codes, probe_codes, domain = joint_codes_and_domain(
        build_keys, probe_keys
    )
    build_idx, probe_idx, _ = join_codes(build_codes, probe_codes, domain)
    # ``None`` is the kernel's "every row of this side, in order".
    if build_idx is None:
        build_idx = np.arange(len(build_codes))
    if probe_idx is None:
        probe_idx = np.arange(len(probe_codes))
    return build_idx, probe_idx


class TestMatchKeys:
    def test_matches_nested_loop_reference(self):
        rng = np.random.default_rng(0)
        build = rng.integers(0, 20, 50)
        probe = rng.integers(0, 20, 80)
        build_idx, probe_idx = _match_keys([build], [probe])
        got = sorted(zip(build_idx.tolist(), probe_idx.tolist()))
        expected = sorted(
            (i, j)
            for j, pv in enumerate(probe)
            for i, bv in enumerate(build)
            if bv == pv
        )
        assert got == expected

    def test_empty_sides(self):
        empty = np.array([], dtype=np.int64)
        some = np.array([1, 2], dtype=np.int64)
        assert _match_keys([empty], [some])[0].size == 0
        assert _match_keys([some], [empty])[1].size == 0

    def test_duplicates_expand(self):
        build = np.array([7, 7, 7])
        probe = np.array([7, 7])
        build_idx, probe_idx = _match_keys([build], [probe])
        assert len(build_idx) == 6

    @given(
        build=st.lists(st.integers(0, 10), min_size=0, max_size=60),
        probe=st.lists(st.integers(0, 10), min_size=0, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_match_count(self, build, probe):
        build_arr = np.array(build, dtype=np.int64)
        probe_arr = np.array(probe, dtype=np.int64)
        build_idx, _ = _match_keys([build_arr], [probe_arr])
        expected = sum(build.count(v) for v in probe)
        assert len(build_idx) == expected


class TestStarExecution:
    @pytest.fixture(scope="class")
    def executed(self, star_db, star_spec):
        graph = JoinGraph(star_spec, star_db.catalog)
        plan = attach_aggregate(
            push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"])),
            star_spec,
        )
        return Executor(star_db).execute(plan)

    def test_count_matches_reference(self, executed, star_expected_count):
        assert executed.scalar("cnt") == star_expected_count

    def test_metrics_recorded_for_all_operators(self, executed):
        kinds = {m.kind for m in executed.metrics.nodes}
        assert kinds == {"leaf", "join", "other"}

    def test_metered_cpu_positive(self, executed):
        assert executed.metrics.metered_cpu() > 0

    def test_filter_checks_counted(self, executed):
        totals = executed.metrics.component_totals()
        assert totals["filter_check"] > 0
        assert totals["filter_insert"] > 0

    def test_same_result_without_bitvectors(self, star_db, star_spec, star_expected_count):
        graph = JoinGraph(star_spec, star_db.catalog)
        plan = build_right_deep(graph, ["f", "d1", "d2"])
        for node in plan.walk():
            if hasattr(node, "creates_bitvector"):
                node.creates_bitvector = False
        plan = attach_aggregate(push_down_bitvectors(plan), star_spec)
        result = Executor(star_db).execute(plan)
        assert result.scalar("cnt") == star_expected_count

    def test_bloom_filter_execution_preserves_results(self, star_db, star_spec, star_expected_count):
        graph = JoinGraph(star_spec, star_db.catalog)
        plan = attach_aggregate(
            push_down_bitvectors(build_right_deep(graph, ["f", "d1", "d2"])),
            star_spec,
        )
        result = Executor(star_db, filter_kind="blocked_bloom").execute(plan)
        # Bloom filters have no false negatives and join re-checks keys,
        # so the final answer is identical.
        assert result.scalar("cnt") == star_expected_count

    @pytest.mark.parametrize("kind", ["bloom", "cuckoo", "Exact"])
    def test_unknown_filter_kind_rejected_at_construction(self, star_db, kind):
        with pytest.raises(ValueError, match=f"unknown filter kind '{kind}'"):
            Executor(star_db, filter_kind=kind)

    def test_join_order_does_not_change_result(self, star_db, star_spec, star_expected_count):
        graph = JoinGraph(star_spec, star_db.catalog)
        for order in (["f", "d2", "d1"], ["d1", "f", "d2"], ["d2", "f", "d1"]):
            plan = attach_aggregate(
                push_down_bitvectors(build_right_deep(graph, order)), star_spec
            )
            assert Executor(star_db).execute(plan).scalar("cnt") == star_expected_count


class TestAggregates:
    @pytest.fixture(scope="class")
    def groupby_db(self):
        db = Database("g")
        db.add_table(
            Table.from_arrays(
                "dim",
                {"id": np.arange(4), "grp": np.array(["a", "a", "b", "b"], dtype=object)},
                key=("id",),
            )
        )
        db.add_table(
            Table.from_arrays(
                "fact",
                {
                    "fk": np.array([0, 1, 2, 3, 0, 2]),
                    "val": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                },
            )
        )
        return db

    def groupby_spec(self, aggregates):
        return QuerySpec(
            name="g",
            relations=(RelationRef("f", "fact"), RelationRef("d", "dim")),
            join_predicates=(JoinPredicate("f", ("fk",), "d", ("id",)),),
            aggregates=aggregates,
            group_by=(col("d", "grp"),),
        )

    def run(self, db, spec):
        graph = JoinGraph(spec, db.catalog)
        plan = attach_aggregate(
            push_down_bitvectors(build_right_deep(graph, ["f", "d"])), spec
        )
        return Executor(db).execute(plan)

    def test_group_by_count_and_sum(self, groupby_db):
        spec = self.groupby_spec(
            (Aggregate("count", label="cnt"), Aggregate("sum", col("f", "val"), label="s"))
        )
        result = self.run(groupby_db, spec)
        groups = dict(zip(result.aggregates["d.grp"], result.aggregates["cnt"]))
        sums = dict(zip(result.aggregates["d.grp"], result.aggregates["s"]))
        assert groups == {"a": 3, "b": 3}
        assert sums == {"a": 8.0, "b": 13.0}

    def test_min_max_avg(self, groupby_db):
        spec = self.groupby_spec(
            (
                Aggregate("min", col("f", "val"), label="lo"),
                Aggregate("max", col("f", "val"), label="hi"),
                Aggregate("avg", col("f", "val"), label="mean"),
            )
        )
        result = self.run(groupby_db, spec)
        by_group = {
            g: (lo, hi, mean)
            for g, lo, hi, mean in zip(
                result.aggregates["d.grp"],
                result.aggregates["lo"],
                result.aggregates["hi"],
                result.aggregates["mean"],
            )
        }
        assert by_group["a"] == (1.0, 5.0, pytest.approx(8 / 3))
        assert by_group["b"] == (3.0, 6.0, pytest.approx(13 / 3))

    def test_scalar_count_on_empty_result(self, groupby_db):
        spec = QuerySpec(
            name="g",
            relations=(RelationRef("f", "fact"), RelationRef("d", "dim")),
            join_predicates=(JoinPredicate("f", ("fk",), "d", ("id",)),),
            local_predicates={
                "d": Comparison("=", col("d", "grp"), lit("zzz"))
            },
            aggregates=(Aggregate("count", label="cnt"),),
        )
        result = self.run(groupby_db, spec)
        assert result.scalar("cnt") == 0
