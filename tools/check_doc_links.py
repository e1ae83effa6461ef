#!/usr/bin/env python3
"""Docs link checker: every relative link and file path in the docs must resolve.

Scans ``README.md`` and ``docs/*.md`` for Markdown links and verifies
that relative targets exist on disk (external ``http(s)``/``mailto``
links and pure ``#anchor`` links are skipped; ``#fragment`` suffixes on
file links are ignored).  It also checks every backticked file path
with a directory part, such as ``cost/physical.py`` or
``tests/docs/test_doc_links.py::test_x``: it must exist under the repo
root, ``src/`` or ``src/repro/``.  Used by CI and by
``tests/docs/test_doc_links.py``.

Run standalone::

    python tools/check_doc_links.py        # exits 1 on broken links
"""

from __future__ import annotations

import re
from pathlib import Path

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
CODE_PATTERN = re.compile(r"`([^`\s]+)`")
# A file path with a directory part, optionally followed by a
# ``::test`` or ``:line`` suffix.
PATH_PATTERN = re.compile(
    r"(?:[\w.-]+/)+[\w.-]*\w\.(?:py|md|json|toml|ya?ml|txt|cfg|ini|sh)(?=$|:)"
)
PATH_BASES = ("", "src", "src/repro")


def doc_files(root: Path) -> list[Path]:
    files = []
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    files.extend(sorted((root / "docs").glob("*.md")))
    return files


def broken_links(root: Path) -> list[tuple[Path, str]]:
    """All ``(source_file, target)`` pairs whose target does not exist."""
    broken: list[tuple[Path, str]] = []
    for source in doc_files(root):
        text = source.read_text(encoding="utf-8")
        for match in LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (source.parent / path).resolve()
            if not resolved.exists():
                broken.append((source, target))
    return broken


def stale_paths(root: Path) -> list[tuple[Path, str]]:
    """All ``(source_file, path)`` pairs of backticked file paths that
    exist under none of :data:`PATH_BASES`."""
    stale: list[tuple[Path, str]] = []
    for source in doc_files(root):
        text = source.read_text(encoding="utf-8")
        for match in CODE_PATTERN.finditer(text):
            path = PATH_PATTERN.match(match.group(1))
            if path is None:
                continue
            if not any((root / base / path.group(0)).exists() for base in PATH_BASES):
                stale.append((source, path.group(0)))
    return stale


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failures = broken_links(root)
    for source, target in failures:
        print(f"{source.relative_to(root)}: broken link -> {target}")
    stale = stale_paths(root)
    for source, path in stale:
        print(f"{source.relative_to(root)}: no such file -> {path}")
    if failures or stale:
        return 1
    checked = len(doc_files(root))
    print(f"doc links OK ({checked} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
