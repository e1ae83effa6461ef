"""Tests for the experiment harness and figure/table computations."""

import itertools

import pytest

import repro.bench.harness as harness_module
from repro.bench.harness import run_workload
from repro.errors import ExecutionError
from repro.filters import FILTER_KINDS
from repro.bench.reporting import (
    figure8_rows,
    figure9_rows,
    figure10_rows,
    render_table,
    selectivity_groups,
    table3_rows,
    table4_rows,
)


@pytest.fixture(scope="module")
def result(tpcds_tiny):
    db, queries = tpcds_tiny
    return run_workload(
        "tpcds", db, queries[:9],
        pipelines=("original", "bqo", "original_nobv"),
    )


class TestHarness:
    def test_all_runs_recorded(self, result):
        assert len(result.runs) == 9 * 3
        assert len(result.queries()) == 9

    def test_consistency_enforced(self, result):
        # construction would have raised on any pipeline disagreement
        for query in result.queries():
            values = {
                result.run(query, p).checksum for p in result.pipelines
            }
            assert len(values) == 1

    def test_totals_positive(self, result):
        assert result.total_cpu("original") > 0
        assert result.total_cpu("bqo") > 0

    def test_tuples_by_kind_totals(self, result):
        totals = result.total_tuples_by_kind("original")
        assert set(totals) <= {"leaf", "join", "other"}
        assert totals["leaf"] > 0

    def test_filters_created_under_original(self, result):
        with_filters = [
            result.run(q, "original").num_filters_created
            for q in result.queries()
        ]
        assert any(n > 0 for n in with_filters)
        assert all(
            result.run(q, "original_nobv").num_filters_created == 0
            for q in result.queries()
        )


class TestConsistencyUnderEveryKind:
    """The cross-pipeline answer check runs whatever the filter kind:
    the hashed kind's false positives cost work, never answers."""

    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_kind_answers_match_the_exact_answers(self, tpcds_tiny, result, kind):
        db, queries = tpcds_tiny
        under_kind = run_workload(
            "tpcds", db, queries[:9], pipelines=("original", "bqo"),
            filter_kind=kind,
        )
        for query in result.queries():
            for pipeline in under_kind.pipelines:
                assert (
                    under_kind.run(query, pipeline).checksum
                    == result.run(query, "original").checksum
                )

    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_divergent_pipelines_raise(self, tpcds_tiny, monkeypatch, kind):
        db, queries = tpcds_tiny
        answers = itertools.count()
        monkeypatch.setattr(
            harness_module, "_checksum", lambda result: float(next(answers))
        )
        with pytest.raises(ExecutionError, match="pipelines disagree"):
            run_workload(
                "tpcds", db, queries[:1], pipelines=("original", "bqo"),
                filter_kind=kind,
            )


class TestReporting:
    def test_selectivity_groups_partition(self, result):
        groups = selectivity_groups(result)
        assert set(groups.values()) <= {"S", "M", "L"}
        assert len(groups) == 9
        counts = {g: list(groups.values()).count(g) for g in "SML"}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_figure8_rows_normalized(self, result):
        rows = figure8_rows(result)
        total_row = next(r for r in rows if r["group"] == "total")
        assert total_row["original"] == pytest.approx(1.0)
        group_sum = sum(
            r["original"] for r in rows if r["group"] in ("S", "M", "L")
        )
        assert group_sum == pytest.approx(1.0)

    def test_figure9_rows_normalized(self, result):
        rows = figure9_rows(result)
        total_row = next(r for r in rows if r["operator"] == "total")
        assert total_row["original"] == pytest.approx(1.0)

    def test_figure10_sorted_descending(self, result):
        rows = figure10_rows(result)
        originals = [r["original"] for r in rows]
        assert originals == sorted(originals, reverse=True)
        assert originals[0] == pytest.approx(1.0)

    def test_table4_shape(self, result):
        rows = table4_rows(result)
        row = rows[0]
        assert 0 < row["cpu_ratio"] <= 1.5
        assert 0 <= row["queries_with_filters"] <= 1
        assert 0 <= row["improved"] <= 1
        assert 0 <= row["regressed"] <= 1

    def test_table3_statistics(self, tpcds_tiny):
        db, queries = tpcds_tiny
        rows = table3_rows([("tpcds", db, queries)])
        assert rows[0]["tables"] == 11
        assert rows[0]["queries"] == 32
        assert rows[0]["joins_max"] >= rows[0]["joins_avg"]

    def test_render_table(self, result):
        text = render_table(figure8_rows(result), "fig8")
        assert "fig8" in text
        assert "workload" in text
        assert render_table([]) == "(no rows)"
