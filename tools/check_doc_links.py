#!/usr/bin/env python3
"""Docs link checker: every relative link and file path in the docs must resolve.

Scans ``README.md`` and ``docs/*.md`` for Markdown links and verifies
that relative targets exist on disk (external ``http(s)``/``mailto``
links and pure ``#anchor`` links are skipped; ``#fragment`` suffixes on
file links are ignored).  It also checks every backticked file path
with a directory part, such as ``cost/physical.py`` or
``tests/docs/test_doc_links.py::test_x``: it must exist under the repo
root, ``src/`` or ``src/repro/``.  And it checks every backticked
``Class.member`` (optionally behind a dotted module path, optionally
followed by a call) whose class is defined under ``src/repro/``: the
class, or a base class also defined there, must define the member — as
a method, class attribute, ``__slots__`` entry or ``self.`` attribute.
Classes with a base defined elsewhere (exceptions, named tuples) are
skipped, since their members cannot be listed.  Used by CI and by
``tests/docs/test_doc_links.py``.

Run standalone::

    python tools/check_doc_links.py        # exits 1 on broken links
"""

from __future__ import annotations

import ast
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
# A code span holding ``Class.member``, ``pkg.module.Class.member`` or
# ``Class.member(...)``.
MEMBER_PATTERN = re.compile(
    r"`(?:[a-z_]\w*\.)*([A-Z]\w*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`"
)
# Bases that contribute no members a doc would name.
PLAIN_BASES = {"object", "ABC", "abc.ABC"}


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


def class_members(root: Path) -> dict[str, set[str]]:
    """Members of every class defined under ``src/repro/``, inherited
    ones included; classes with a base defined elsewhere are left out.
    Same-named classes in different modules pool their members."""
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                own.setdefault(node.name, set()).update(_defined(node))
                bases.setdefault(node.name, set()).update(
                    ast.unparse(base) for base in node.bases
                )

    def resolve(name: str, seen: frozenset[str]) -> set[str] | None:
        members = set(own[name])
        for base in bases[name] - PLAIN_BASES:
            if base not in own or base in seen:
                return None
            inherited = resolve(base, seen | {base})
            if inherited is None:
                return None
            members |= inherited
        return members

    resolved = {name: resolve(name, frozenset({name})) for name in own}
    return {name: members for name, members in resolved.items() if members is not None}


def _defined(cls: ast.ClassDef) -> set[str]:
    """Names one class body defines, plus its methods' ``self.`` attributes."""
    names: set[str] = set()
    for statement in cls.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(statement.name)
            for node in ast.walk(statement):
                for target in _targets(node):
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        names.add(target.attr)
        for target in _targets(statement):
            if isinstance(target, ast.Name):
                names.add(target.id)
                if target.id == "__slots__" and isinstance(
                    statement.value, (ast.Tuple, ast.List)
                ):
                    names.update(
                        item.value for item in statement.value.elts
                        if isinstance(item, ast.Constant)
                    )
    return names


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return [
            element for target in node.targets
            for element in (target.elts if isinstance(target, ast.Tuple) else [target])
        ]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def stale_members(root: Path) -> list[tuple[Path, str]]:
    """All ``(source_file, "Class.member")`` pairs of backticked members
    that a class defined under ``src/repro/`` does not define."""
    members = class_members(root)
    stale: list[tuple[Path, str]] = []
    for source in doc_files(root):
        text = source.read_text(encoding="utf-8")
        for match in MEMBER_PATTERN.finditer(text):
            cls, member = match.groups()
            if cls in members and member not in members[cls]:
                stale.append((source, f"{cls}.{member}"))
    return stale


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failures = broken_links(root)
    for source, target in failures:
        print(f"{source.relative_to(root)}: broken link -> {target}")
    stale = stale_paths(root)
    for source, path in stale:
        print(f"{source.relative_to(root)}: no such file -> {path}")
    members = stale_members(root)
    for source, member in members:
        print(f"{source.relative_to(root)}: no such member -> {member}")
    if failures or stale or members:
        return 1
    checked = len(doc_files(root))
    print(f"doc links OK ({checked} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
