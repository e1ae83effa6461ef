"""Documentation health: required files exist, links, file paths and
class members named in the docs resolve."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_doc_links import (  # noqa: E402
    broken_links,
    doc_files,
    stale_members,
    stale_paths,
)


def test_required_docs_exist():
    assert (REPO_ROOT / "README.md").exists()
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO_ROOT / "docs" / "BENCHMARKS.md").exists()


def test_no_broken_relative_links():
    assert broken_links(REPO_ROOT) == []


def test_no_stale_file_paths():
    assert stale_paths(REPO_ROOT) == []


def test_a_stale_file_path_is_reported(tmp_path):
    (tmp_path / "src" / "repro" / "cost").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cost" / "physical.py").touch()
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "check.py").touch()
    readme = tmp_path / "README.md"
    readme.write_text(
        "`cost/physical.py`, `tools/check.py:12`, `repro/cost/physical.py`,"
        " `repro.cost.physical`, `hits/misses` and `cost/truecard.py::cout`\n",
        encoding="utf-8",
    )
    assert stale_paths(tmp_path) == [(readme, "cost/truecard.py")]


def test_no_stale_members():
    assert stale_members(REPO_ROOT) == []


def test_a_stale_member_is_reported(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "relation.py").write_text(
        "class Base:\n"
        "    inherited = 1\n"
        "\n"
        "class Relation(Base):\n"
        "    __slots__ = ('slotted',)\n"
        "    kind: str = 'view'\n"
        "\n"
        "    def __init__(self):\n"
        "        self.num_rows = 0\n"
        "\n"
        "    def narrow(self, start, stop):\n"
        "        return self\n"
        "\n"
        "class Failure(Exception):\n"
        "    pass\n",
        encoding="utf-8",
    )
    readme = tmp_path / "README.md"
    readme.write_text(
        "`Relation.narrow(a, b)`, `Relation.num_rows`, `Relation.slotted`,"
        " `Relation.kind`, `Relation.inherited`,"
        " `repro.relation.Relation.narrow`, `Failure.args` (an external"
        " base), `Table.column` (no such class), `relation.py`,"
        " `Relation.range_view(a, b)` and"
        " `repro.relation.Relation.merge_counters`\n",
        encoding="utf-8",
    )
    assert stale_members(tmp_path) == [
        (readme, "Relation.range_view"),
        (readme, "Relation.merge_counters"),
    ]


def test_every_benchmark_file_is_documented():
    """docs/BENCHMARKS.md must describe each benchmarks/test_* file."""
    text = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    for path in sorted((REPO_ROOT / "benchmarks").glob("test_*.py")):
        assert path.name in text, f"{path.name} missing from docs/BENCHMARKS.md"


def test_readme_covers_quickstart_and_tier1():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "examples/quickstart.py" in text
    assert "python -m pytest" in text
    assert "QueryService" in text


def test_doc_files_found():
    assert len(doc_files(REPO_ROOT)) >= 3
