"""Repo-wide pytest hooks.

One session-scoped guard: a test run must leave the working tree as it
found it.  Tests write any report to ``tmp_path``, so any difference in
``git status --porcelain`` between session start and end is a test
writing into the checkout.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent


def _porcelain() -> str | None:
    """``git status --porcelain`` of the checkout, or ``None`` when this
    is not a git work tree (or git is unavailable)."""
    try:
        completed = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout if completed.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def working_tree_untouched():
    before = _porcelain()
    yield
    if before is None:
        return
    after = _porcelain()
    if after != before:
        pytest.fail(
            "the test run changed the working tree; git status --porcelain "
            f"before:\n{before or '(clean)'}\nafter:\n{after or '(clean)'}",
            pytrace=False,
        )
