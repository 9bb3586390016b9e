#!/usr/bin/env python
"""Docs link gate: every relative link and file path in the docs exists.

Documentation rots silently: a file is moved, a doc keeps pointing at
the old path, and nobody notices until a reader does.  This script
(stdlib-only, run by the CI lint job and the test suite) walks the
repo's markdown — ``README.md``, ``docs/*.md``, ``CHANGES.md`` — and
fails on:

- **Markdown links** ``[text](target)`` whose target is relative and
  does not exist (resolved against the linking file's directory;
  ``http(s)://`` and ``mailto:`` targets are skipped).
- **Anchors**: a ``#fragment`` (same-file or on a ``.md`` target) must
  match a heading in the addressed file, using GitHub's slug rules
  (lowercase, punctuation stripped, spaces to hyphens).
- **Unreadable files**: a gated file that is not UTF-8 is reported as
  a problem, never a traceback.
- **Backticked path references** like ``src/repro/serving/service.py``
  — a token with a directory separator and a known file extension —
  that do not exist relative to the repo root.  Tokens with glob or
  placeholder characters (``*``, ``<``, ``{``) and bare filenames are
  left alone: the former are patterns, the latter are usually output
  names, not repo paths.

Usage::

    python tools/check_links.py            # default file set
    python tools/check_links.py README.md docs/SERVING.md
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import List

#: Markdown inline link / image: ``[text](target)`` with an optional
#: ``"title"`` after the target.
_LINK = re.compile(r"!?\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")

#: Backticked repo path: at least one "/", a real extension, and no
#: glob/placeholder characters.
_BACKTICK_PATH = re.compile(
    r"`([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+"
    r"\.(?:py|md|json|ya?ml|toml|txt|cfg|ini))`"
)

_EXTERNAL = ("http://", "https://", "mailto:")

#: ATX headings (``# Title`` ... ``###### Title``) for anchor slugs.
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)


def _slug(title: str) -> str:
    """GitHub's heading-to-anchor slug: lowercase, drop punctuation
    (backticks, colons, parens...), spaces become hyphens."""
    cleaned = re.sub(r"[^\w\- ]", "", title.strip().lower())
    return cleaned.replace(" ", "-")


def _heading_anchors(path: pathlib.Path) -> set:
    """Every heading anchor *path* defines (empty for unreadable files)."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return set()
    return {_slug(match.group(1)) for match in _HEADING.finditer(text)}


def _default_files(root: pathlib.Path) -> List[pathlib.Path]:
    """The committed markdown the gate covers by default."""
    files = [root / "README.md", root / "CHANGES.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def check_file(path: pathlib.Path, root: pathlib.Path) -> List[str]:
    """Every broken link/path/anchor in *path*, rendered one per line."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return [f"{path.relative_to(root)}:1: not valid UTF-8: {exc}"]
    problems: List[str] = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue
        line = text[: match.start()].count("\n") + 1
        relative, _, fragment = target.partition("#")
        if relative:
            base = root if relative.startswith("/") else path.parent
            resolved = (base / relative.lstrip("/")).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}:{line}: broken link "
                    f"[{target}] -> {relative} does not exist"
                )
                continue
        else:
            resolved = path  # pure ``#anchor``: addresses this file
        if fragment and resolved.suffix == ".md":
            if fragment.lower() not in _heading_anchors(resolved):
                problems.append(
                    f"{path.relative_to(root)}:{line}: broken anchor "
                    f"[{target}] -> no heading #{fragment} in "
                    f"{resolved.name}"
                )
    for match in _BACKTICK_PATH.finditer(text):
        reference = match.group(1)
        if not (root / reference).exists():
            line = text[: match.start()].count("\n") + 1
            problems.append(
                f"{path.relative_to(root)}:{line}: referenced path "
                f"`{reference}` does not exist"
            )
    return problems


def check_files(
    files: List[pathlib.Path], root: pathlib.Path
) -> List[str]:
    """Broken links/paths across *files* (see :func:`check_file`)."""
    problems: List[str] = []
    for path in files:
        problems.extend(check_file(path, root))
    return problems


def main(argv: List[str]) -> int:
    """CLI entry point: check the given markdown files (or defaults)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    files = (
        [pathlib.Path(arg).resolve() for arg in argv]
        if argv
        else _default_files(root)
    )
    problems = check_files(files, root)
    if problems:
        print(f"DOCS LINK GATE: {len(problems)} broken reference(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    names = ", ".join(str(f.relative_to(root)) for f in files)
    print(f"DOCS LINK GATE: all links and paths resolve ({names})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
