"""Tests for plan rendering."""

import pytest

from repro.plan.builder import build_right_deep
from repro.plan.display import format_plan
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph


@pytest.fixture()
def star_plan(star_db, star_spec):
    graph = JoinGraph(star_spec, star_db.catalog)
    return build_right_deep(graph, ["f", "d1", "d2"])


class TestDisplay:
    def test_format_mentions_all_relations(self, star_plan):
        rendered = format_plan(push_down_bitvectors(star_plan))
        for alias in ("f", "d1", "d2"):
            assert alias in rendered

    def test_format_shows_created_and_applied_filters(self, star_plan):
        rendered = format_plan(push_down_bitvectors(star_plan))
        assert "creates BV#" in rendered
        assert "[BV#" in rendered

    def test_annotations_appended(self, star_plan):
        annotations = {star_plan.node_id: "42 rows"}
        rendered = format_plan(star_plan, annotations)
        assert "42 rows" in rendered

    def test_indentation_reflects_depth(self, star_plan):
        lines = format_plan(star_plan).splitlines()
        assert lines[0].startswith("HashJoin")
        assert lines[1].startswith("  ")
