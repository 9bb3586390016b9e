"""The docs link gate on malformed inputs: broken anchors, non-UTF8
files, nested backtick paths — every failure is a clean problem line,
never a traceback."""

from __future__ import annotations

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check_links  # noqa: E402


def _check(tmp_path, name="doc.md"):
    return check_links.check_file(tmp_path / name, tmp_path)


def test_valid_relative_link_passes(tmp_path):
    (tmp_path / "other.md").write_text("# Other\n")
    (tmp_path / "doc.md").write_text("[see](other.md)\n")
    assert _check(tmp_path) == []


def test_broken_relative_link_reported(tmp_path):
    (tmp_path / "doc.md").write_text("[see](missing.md)\n")
    problems = _check(tmp_path)
    assert len(problems) == 1
    assert "broken link" in problems[0]
    assert "missing.md" in problems[0]


def test_external_links_skipped(tmp_path):
    (tmp_path / "doc.md").write_text(
        "[a](https://example.com/x) [b](http://example.com) "
        "[c](mailto:x@example.com)\n"
    )
    assert _check(tmp_path) == []


def test_same_file_anchor_valid_and_broken(tmp_path):
    (tmp_path / "doc.md").write_text(
        "# My Section Title\n\n[jump](#my-section-title) [bad](#nope)\n"
    )
    problems = _check(tmp_path)
    assert len(problems) == 1
    assert "broken anchor" in problems[0]
    assert "#nope" in problems[0]


def test_cross_file_anchor_checked(tmp_path):
    (tmp_path / "other.md").write_text("## Real: Section (v2)\n")
    (tmp_path / "doc.md").write_text(
        "[good](other.md#real-section-v2)\n[bad](other.md#absent)\n"
    )
    problems = _check(tmp_path)
    assert len(problems) == 1
    assert "broken anchor" in problems[0]
    assert "absent" in problems[0]


def test_anchor_on_non_markdown_target_ignored(tmp_path):
    (tmp_path / "code.py").write_text("x = 1\n")
    (tmp_path / "doc.md").write_text("[src](code.py#L1)\n")
    assert _check(tmp_path) == []


def test_non_utf8_file_reported_not_raised(tmp_path):
    (tmp_path / "doc.md").write_bytes(b"# ok\n\xff\xfe broken bytes\n")
    problems = _check(tmp_path)
    assert len(problems) == 1
    assert "not valid UTF-8" in problems[0]


def test_backtick_path_missing_reported(tmp_path):
    (tmp_path / "doc.md").write_text("see `src/missing/file.py` for it\n")
    problems = _check(tmp_path)
    assert len(problems) == 1
    assert "referenced path" in problems[0]


def test_nested_double_backtick_path_checked(tmp_path):
    """RST-style ``double backtick`` paths are still path references."""
    (tmp_path / "doc.md").write_text("the ``tools/gone/x.py`` module\n")
    problems = _check(tmp_path)
    assert len(problems) == 1
    assert "tools/gone/x.py" in problems[0]


def test_backtick_path_existing_passes(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "doc.md").write_text("see `pkg/mod.py` and ``pkg/mod.py``\n")
    assert _check(tmp_path) == []


def test_glob_and_placeholder_tokens_ignored(tmp_path):
    (tmp_path / "doc.md").write_text(
        "outputs `RESULT_<workload>.json` and `benchmarks/results/*.json`\n"
    )
    assert _check(tmp_path) == []


def test_problem_lines_carry_line_numbers(tmp_path):
    (tmp_path / "doc.md").write_text("# T\n\n\n[bad](gone.md)\n")
    problems = _check(tmp_path)
    assert problems and ":4:" in problems[0]


def test_repo_gate_still_passes():
    files = check_links._default_files(REPO)
    assert check_links.check_files(files, REPO) == []
