"""The documentation gates, enforced tier-1 (CI also runs them via
ruff + the tools/ scripts in the lint job; running them here means a
plain ``pytest`` catches doc rot without the pinned toolchain)."""

from __future__ import annotations

import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import check_docstrings  # noqa: E402
import check_links  # noqa: E402
import check_workflows  # noqa: E402

#: The trees whose public APIs the docstring gate covers (mirrors the
#: ruff D1 invocation in .github/workflows/ci.yml).
GATED_TREES = [
    str(REPO / "src" / "repro" / "serving"),
    str(REPO / "src" / "repro" / "cluster"),
    str(REPO / "src" / "repro" / "persist"),
    str(REPO / "src" / "repro" / "obs"),
    str(REPO / "src" / "repro" / "models"),
    str(REPO / "src" / "repro" / "nn"),
    str(REPO / "src" / "repro" / "core"),
    str(REPO / "tools" / "analyze"),
]


def test_public_serving_bench_cluster_apis_have_docstrings():
    problems = check_docstrings.check_trees(GATED_TREES)
    assert problems == [], "\n".join(problems)


def test_docs_links_and_paths_resolve():
    files = check_links._default_files(REPO)
    # The gate must actually be looking at the documentation system.
    names = {f.name for f in files}
    assert {"README.md", "CHANGES.md", "ARCHITECTURE.md"} <= names
    problems = check_links.check_files(files, REPO)
    assert problems == [], "\n".join(problems)


def test_link_gate_catches_a_broken_link(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Fine\n\n"
        "see [the map](missing/file.md) and `src/nowhere/gone.py`\n"
        "but [this anchor](#fine) and [this](https://example.com) pass\n"
    )
    problems = check_links.check_file(doc, tmp_path)
    assert len(problems) == 2
    assert "missing/file.md" in problems[0]
    assert "src/nowhere/gone.py" in problems[1]


def test_docstring_gate_catches_an_undocumented_def(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Documented module."""\n\n'
        "def documented():\n"
        '    """Fine."""\n\n'
        "def naked():\n"
        "    pass\n\n"
        "def _private():\n"
        "    pass\n"
    )
    problems = check_docstrings.check_file(module)
    assert len(problems) == 1
    assert "naked" in problems[0]


def test_committed_workflows_pass_hygiene_gate():
    files = check_workflows._default_files(REPO)
    # The gate must actually be looking at the CI system.
    names = {f.name for f in files}
    assert {"ci.yml", "nightly.yml"} <= names
    problems = check_workflows.check_files(files, REPO)
    assert problems == [], "\n".join(problems)


def test_workflow_gate_catches_hygiene_violations():
    bad = (
        "name: X\n"
        "on: push\n"
        "jobs:\n"
        "  build:\n"
        "    runs-on: ubuntu-latest\n"
        "    steps:\n"
        "      - uses: actions/checkout\n"
        "  call:\n"
        "    uses: ./.github/workflows/other.yml\n"
    )
    problems = check_workflows.check_workflow_text(bad, "bad.yml")
    assert any("unpinned" in p for p in problems)
    assert any("timeout-minutes" in p and "`build`" in p for p in problems)
    # Reusable-workflow jobs delegate their timeouts to the callee.
    assert not any("`call`" in p for p in problems)
    assert any("concurrency" in p for p in problems)


@pytest.mark.parametrize("name", ["__init__.py"])
def test_docstring_gate_treats_init_as_package(tmp_path, name):
    package = tmp_path / name
    package.write_text("x = 1\n")
    problems = check_docstrings.check_file(package)
    assert problems and "package" in problems[0]
