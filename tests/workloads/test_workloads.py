"""Tests for workload generators: integrity, shape, determinism."""

import numpy as np
import pytest

from repro.query.joingraph import JoinGraph
from repro.workloads import WORKLOADS, customer_lite, job_lite, star, tpcds_lite
from repro.workloads.generator import (
    categorical,
    compound_words,
    scaled,
    skewed_fk,
    surrogate_keys,
    zipf_weights,
)
from repro.util.rng import derive_rng


class TestGeneratorPrimitives:
    def test_zipf_weights_normalized_and_decreasing(self):
        weights = zipf_weights(100, 1.0)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(99))

    def test_zero_skew_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_skewed_fk_values_in_domain(self):
        rng = derive_rng(0, "t")
        parents = surrogate_keys(100)
        fks = skewed_fk(rng, 10_000, parents, skew=0.8)
        assert np.isin(fks, parents).all()

    def test_skew_concentrates_mass(self):
        rng = derive_rng(0, "t")
        parents = surrogate_keys(1000)
        skewed = skewed_fk(rng, 50_000, parents, skew=1.2)
        uniform = skewed_fk(rng, 50_000, parents, skew=0.0)
        top_skewed = np.sort(np.bincount(skewed))[-10:].sum()
        top_uniform = np.sort(np.bincount(uniform))[-10:].sum()
        assert top_skewed > 2 * top_uniform

    def test_categorical_from_vocab(self):
        rng = derive_rng(0, "t")
        values = categorical(rng, 1000, ["a", "b", "c"])
        assert set(values.tolist()) <= {"a", "b", "c"}

    def test_compound_words_structure(self):
        rng = derive_rng(0, "t")
        words = compound_words(rng, 50, ["x"], ["y", "z"])
        assert all(w in ("x-y", "x-z") for w in words)

    def test_compound_words_equal_the_per_row_strings(self):
        prefixes, suffixes = ["ab", "c", "dd"], ["x", "yy", "z", "w"]
        rng = derive_rng(3, "t")
        words = compound_words(rng, 2_000, prefixes, suffixes)
        again = derive_rng(3, "t")
        left = again.integers(0, len(prefixes), 2_000)
        right = again.integers(0, len(suffixes), 2_000)
        assert words.dtype == object
        assert words.tolist() == [
            f"{prefixes[i]}-{suffixes[j]}" for i, j in zip(left, right)
        ]
        # The same draws: later columns of a workload see the same stream.
        assert rng.integers(0, 2**62) == again.integers(0, 2**62)

    def test_scaled_floor(self):
        assert scaled(1000, 0.00001) == 8
        assert scaled(1000, 2.0) == 2000


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestWorkloadIntegrity:
    def test_referential_integrity(self, name):
        db, _ = WORKLOADS[name].build(scale=0.02)
        db.validate_foreign_keys()

    def test_deterministic_rebuild(self, name):
        db_a, queries_a = WORKLOADS[name].build(scale=0.02)
        db_b, queries_b = WORKLOADS[name].build(scale=0.02)
        assert db_a.table_names == db_b.table_names
        for table in db_a.table_names:
            ta, tb = db_a.table(table), db_b.table(table)
            assert ta.num_rows == tb.num_rows
            first = ta.column_names[0]
            assert np.array_equal(ta.column(first), tb.column(first))
        assert [q.name for q in queries_a] == [q.name for q in queries_b]

    def test_queries_validate_and_connect(self, name):
        db, queries = WORKLOADS[name].build(scale=0.02)
        for spec in queries:
            spec.validate_against(db)
            graph = JoinGraph(spec, db.catalog)
            assert graph.is_connected(), spec.name

    def test_scale_changes_fact_size(self, name):
        small, _ = WORKLOADS[name].build(scale=0.01)
        large, _ = WORKLOADS[name].build(scale=0.05)
        assert large.total_rows() > small.total_rows()


class TestWorkloadShapes:
    def test_tpcds_has_two_fact_tables(self):
        db, queries = tpcds_lite.build(scale=0.02)
        multi = next(q for q in queries if q.name == "ds_q15")
        graph = JoinGraph(multi, db.catalog)
        assert len(graph.fact_tables()) == 2

    def test_tpcds_snowflake_chain_exists(self):
        db, queries = tpcds_lite.build(scale=0.02)
        snow = next(q for q in queries if q.name == "ds_q10")
        graph = JoinGraph(snow, db.catalog)
        components = graph.branch_components("ss")
        assert max(len(c) for c in components) == 3  # c -> hd -> ib

    def test_job_has_dimension_dimension_joins(self):
        db, queries = job_lite.build(scale=0.02)
        q11 = next(q for q in queries if q.name == "job_q11")
        graph = JoinGraph(q11, db.catalog)
        facts = graph.fact_tables()
        assert "ci" in facts and "an" in facts

    def test_customer_join_counts_high(self):
        _, queries = customer_lite.build(scale=0.02)
        joins = [len(q.join_predicates) for q in queries]
        assert sum(joins) / len(joins) >= 10
        assert max(joins) >= 20

    def test_ssb_star_shape(self):
        db, queries = star.build(scale=0.02)
        q41 = next(q for q in queries if q.name == "ssb_q4_1")
        graph = JoinGraph(q41, db.catalog)
        assert graph.is_star("lo")

    def test_fig2_query_present_in_job(self):
        _, queries = job_lite.build(scale=0.02)
        assert any(q.name == "job_fig2" for q in queries)

    @pytest.mark.parametrize("workload", [job_lite, tpcds_lite])
    def test_query_sqls_are_what_build_binds(self, workload):
        from repro.sql import parse_query

        db, queries = workload.build(scale=0.02)
        pairs = workload.query_sqls()
        assert [name for name, _ in pairs] == [q.name for q in queries]
        assert [parse_query(db, sql, name) for name, sql in pairs] == queries


class TestSyntheticBuilders:
    def test_star_definition_holds(self):
        from repro.workloads.synthetic import random_star

        db, spec = random_star(0)
        graph = JoinGraph(spec, db.catalog)
        assert graph.is_star("f")
        db.validate_foreign_keys()

    def test_snowflake_definition_holds(self):
        from repro.workloads.synthetic import random_snowflake

        db, spec = random_snowflake(0, branch_lengths=(1, 2, 3))
        graph = JoinGraph(spec, db.catalog)
        assert graph.is_snowflake("f")
        assert not graph.is_star("f")
        db.validate_foreign_keys()

    def test_branch_chain_lengths(self):
        from repro.workloads.synthetic import random_branch

        db, spec = random_branch(0, length=4)
        graph = JoinGraph(spec, db.catalog)
        component = graph.branch_components("f")[0]
        assert len(graph.chain_order("f", component)) == 4
