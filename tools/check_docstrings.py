#!/usr/bin/env python
"""Docstring gate: every public API in the given trees is documented.

A standalone (stdlib-only) mirror of ruff's pydocstyle ``D1xx`` rules —
missing docstring in public module (D100), class (D101), method
(D102), function (D103), package (D104) and nested class (D106) —
with the same two exemptions CI uses (``D105`` magic methods, ``D107``
``__init__``).  It exists so the gate runs everywhere the test suite
runs, including environments without the pinned ruff; CI runs both.

It is deliberately a *superset* of ruff's check in one respect: public
functions nested inside other functions are flagged too, so code that
passes here passes ruff regardless of how a ruff version treats
nesting.

Usage::

    python tools/check_docstrings.py src/repro/serving src/repro/cluster ...

Exits nonzero listing every undocumented public definition.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterator, List, Tuple

#: Dunder methods are D105 and ``__init__`` is D107; both are exempt
#: from the gate (the class docstring covers construction semantics).
_EXEMPT_METHODS = "__init__"


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (
        name.startswith("__") and name.endswith("__")
    )


def _is_magic(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _has_docstring(node: ast.AST) -> bool:
    return ast.get_docstring(node, clean=False) is not None


def _walk_definitions(
    node: ast.AST, inside_class: bool
) -> Iterator[Tuple[str, str, int]]:
    """Yield (kind, name, lineno) for undocumented public definitions.

    Descends through *all* statements (including ``if``/``try``/loop
    bodies, where ruff and pydocstyle also look), tracking whether the
    nearest enclosing definition is a class (method vs function).
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_public(child.name) and not _has_docstring(child):
                yield "class", child.name, child.lineno
            yield from _walk_definitions(child, inside_class=True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = child.name
            exempt = _is_magic(name) or name == _EXEMPT_METHODS
            if _is_public(name) and not exempt and not _has_docstring(child):
                kind = "method" if inside_class else "function"
                yield kind, name, child.lineno
            yield from _walk_definitions(child, inside_class=False)
        else:
            yield from _walk_definitions(child, inside_class)


def check_file(path: pathlib.Path) -> List[str]:
    """Every docstring violation in *path*, rendered one per line.

    A file the gate cannot read or parse (non-UTF8 bytes, syntax
    error) is itself a violation — reported cleanly, never a
    traceback: an unparsable file in a gated tree must fail the gate.
    """
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except UnicodeDecodeError as exc:
        return [f"{path}:1: not valid UTF-8: {exc}"]
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno or 1}: does not parse: {exc.msg}"]
    problems: List[str] = []
    if not _has_docstring(tree):
        kind = "package" if path.name == "__init__.py" else "module"
        problems.append(f"{path}:1: undocumented public {kind}")
    for kind, name, lineno in _walk_definitions(tree, inside_class=False):
        problems.append(
            f"{path}:{lineno}: undocumented public {kind} {name!r}"
        )
    return problems


def check_trees(roots: List[str]) -> List[str]:
    """Violations across every ``*.py`` file under *roots*."""
    problems: List[str] = []
    for root in roots:
        base = pathlib.Path(root)
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in files:
            problems.extend(check_file(path))
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point: check the trees given as arguments."""
    roots = argv or [
        "src/repro/serving",
        "src/repro/cluster",
        "src/repro/persist",
        "src/repro/obs",
        "tools/analyze",
    ]
    problems = check_trees(roots)
    if problems:
        print(f"DOCSTRING GATE: {len(problems)} undocumented definition(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"DOCSTRING GATE: all public APIs documented under {', '.join(roots)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
