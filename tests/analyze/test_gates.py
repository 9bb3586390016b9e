"""Gates for ``tools.analyze``: the repo is clean, every rule fires.

Three layers:

- the repo gate itself (``python -m tools.analyze`` exits 0 with the
  committed baseline — the same invocation CI runs);
- the bad/good fixture corpora under ``tests/analyze/fixtures/``: each
  rule must fire on its bad twin and stay silent on the good one;
- the framework mechanics: suppression pragmas, baseline
  grandfathering, the stale-entry ratchet, CLI exit codes.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.analyze import RULES, rule_applies  # noqa: E402
from tools.analyze.__main__ import main  # noqa: E402
from tools.analyze.core import (  # noqa: E402
    Baseline,
    BaselineError,
    analyze_paths,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

#: rule name -> (bad fixture, good fixture, minimum bad findings).
CORPUS = {
    "lock-discipline": ("bad_lock_discipline.py", "good_lock_discipline.py", 9),
    "exception-taxonomy": (
        "bad_exception_taxonomy.py",
        "good_exception_taxonomy.py",
        2,
    ),
    "hot-path": ("bad_hot_path.py", "good_hot_path.py", 6),
    "clock-discipline": (
        "bad_clock_discipline.py",
        "good_clock_discipline.py",
        3,
    ),
}


def _rule(name):
    return next(rule for rule in RULES if rule.name == name)


def _analyze(path, rule_name):
    findings, suppressed, errors = analyze_paths(
        [path], [_rule(rule_name)], REPO, applies=rule_applies
    )
    assert errors == []
    return findings, suppressed


# ----------------------------------------------------------------------
# the repo gate
# ----------------------------------------------------------------------
def test_registry_covers_the_four_rules():
    assert sorted(rule.name for rule in RULES) == sorted(CORPUS)


def test_repo_gate_is_clean():
    """The exact CI invocation: exit 0 against the committed baseline."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "--format", "json"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema_version"] == 1
    assert report["counts"]["findings"] == 0
    assert report["counts"]["stale_baseline_entries"] == 0
    assert report["counts"]["parse_errors"] == 0


def test_committed_baseline_entries_are_justified():
    baseline = Baseline.load(REPO / "tools" / "analyze" / "baseline.json")
    assert len(baseline.entries) <= 5
    for entry in baseline.entries:
        assert len(entry["reason"].strip()) > 20, entry
        assert "TODO" not in entry["reason"], entry


# ----------------------------------------------------------------------
# the fixture corpora
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_name", sorted(CORPUS))
def test_bad_fixture_fires(rule_name):
    bad, _, minimum = CORPUS[rule_name]
    findings, _ = _analyze(FIXTURES / bad, rule_name)
    assert len(findings) >= minimum, [f.render() for f in findings]
    assert all(f.rule == rule_name for f in findings)


@pytest.mark.parametrize("rule_name", sorted(CORPUS))
def test_good_fixture_is_clean(rule_name):
    _, good, _ = CORPUS[rule_name]
    findings, _ = _analyze(FIXTURES / good, rule_name)
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("rule_name", sorted(CORPUS))
def test_cli_exits_nonzero_on_bad_fixture(rule_name, capsys):
    bad, _, _ = CORPUS[rule_name]
    code = main(
        [str(FIXTURES / bad), "--rule", rule_name, "--no-baseline"]
    )
    capsys.readouterr()
    assert code == 1


def test_findings_carry_location_and_qualname():
    findings, _ = _analyze(
        FIXTURES / "bad_lock_discipline.py", "lock-discipline"
    )
    rendered = [f.render() for f in findings]
    assert any("BadStats.count" in line for line in rendered)
    assert any("BadStats.snapshot" in line for line in rendered)
    assert all(f.line > 0 for f in findings)
    assert all(f.path.endswith("bad_lock_discipline.py") for f in findings)


def test_open_span_is_clean_but_a_bare_start_span_still_flags(tmp_path):
    """``open_span`` is the guarded allocator; a bare ``start_span`` in
    the same unguarded hot function is still an allocation."""
    target = tmp_path / "mod.py"
    target.write_text(
        '"""Fixture."""\n'
        "from repro.obs.trace import open_span\n"
        "\n"
        "\n"
        "def _prepare(plan, tracer):\n"
        '    """One guarded span, one bare."""\n'
        '    with open_span(tracer, "featurize"):\n'
        '        span = tracer.start_span("predict")\n'
        "    return plan, span\n"
    )
    findings, _ = _analyze(target, "hot-path")
    assert [(f.line, f.qualname) for f in findings] == [(8, "_prepare")]


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_silences_one_rule(tmp_path):
    source = (FIXTURES / "bad_clock_discipline.py").read_text()
    source = source.replace(
        "    start = time.time()",
        "    start = time.time()  # analyze: ignore[clock-discipline]",
    )
    target = tmp_path / "mod.py"
    target.write_text(source)
    findings, suppressed = _analyze(target, "clock-discipline")
    assert len(suppressed) == 1
    assert len(findings) == 2  # the other two call sites still fire


def test_standalone_suppression_covers_next_line(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        '"""Fixture."""\n'
        "import time\n"
        "\n"
        "\n"
        "def measure():\n"
        '    """Suppressed on the line above."""\n'
        "    # analyze: ignore[clock-discipline] wall clock wanted here\n"
        "    return time.time()\n"
    )
    findings, suppressed = _analyze(target, "clock-discipline")
    assert findings == []
    assert len(suppressed) == 1


def test_star_suppression_silences_every_rule(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        '"""Fixture."""\n'
        "\n"
        "\n"
        "def swallow(work_fn):\n"
        '    """Swallows."""\n'
        "    try:\n"
        "        return work_fn()\n"
        "    except Exception:  # analyze: ignore[*]\n"
        "        return None\n"
    )
    findings, suppressed = _analyze(target, "exception-taxonomy")
    assert findings == []
    assert len(suppressed) == 1


# ----------------------------------------------------------------------
# baseline mechanics
# ----------------------------------------------------------------------
def test_baseline_grandfathers_then_goes_stale(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text(
        '"""Fixture."""\n'
        "\n"
        "\n"
        "def parse(value):\n"
        '    """Raises builtin."""\n'
        "    raise ValueError(value)\n"
    )
    baseline = tmp_path / "baseline.json"

    # --update-baseline grandfathers the current findings.
    code = main(
        [
            str(bad),
            "--rule",
            "exception-taxonomy",
            "--baseline",
            str(baseline),
            "--update-baseline",
        ]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(baseline.read_text())
    assert len(doc["entries"]) == 1
    assert "TODO" in doc["entries"][0]["reason"]

    # With the entry in place the gate passes (finding is baselined).
    code = main(
        [
            str(bad),
            "--rule",
            "exception-taxonomy",
            "--baseline",
            str(baseline),
        ]
    )
    capsys.readouterr()
    assert code == 0

    # Fix the violation but keep the entry: stale -> the ratchet fails.
    bad.write_text(
        '"""Fixture."""\n'
        "\n"
        "\n"
        "def parse(value):\n"
        '    """Fixed."""\n'
        "    return value\n"
    )
    code = main(
        [
            str(bad),
            "--rule",
            "exception-taxonomy",
            "--baseline",
            str(baseline),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "STALE BASELINE" in out


def test_baseline_survives_line_churn(tmp_path, capsys):
    """Baseline keys exclude line numbers: moving the finding is fine."""
    bad = tmp_path / "mod.py"
    body = (
        '"""Fixture."""\n'
        "{pad}"
        "def parse(value):\n"
        '    """Raises builtin."""\n'
        "    raise ValueError(value)\n"
    )
    bad.write_text(body.format(pad="\n\n"))
    baseline = tmp_path / "baseline.json"
    main(
        [
            str(bad),
            "--rule",
            "exception-taxonomy",
            "--baseline",
            str(baseline),
            "--update-baseline",
        ]
    )
    capsys.readouterr()
    bad.write_text(body.format(pad="\n\nPADDING = 1\n\n\n"))
    code = main(
        [
            str(bad),
            "--rule",
            "exception-taxonomy",
            "--baseline",
            str(baseline),
        ]
    )
    capsys.readouterr()
    assert code == 0


def test_baseline_rejects_empty_reason(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "hot-path",
                        "path": "x.py",
                        "qualname": "f",
                        "reason": "   ",
                    }
                ],
            }
        )
    )
    with pytest.raises(BaselineError):
        Baseline.load(baseline)
    code = main(
        [
            str(FIXTURES / "good_hot_path.py"),
            "--baseline",
            str(baseline),
        ]
    )
    capsys.readouterr()
    assert code == 2


def test_baseline_rejects_malformed_json(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{not json")
    with pytest.raises(BaselineError):
        Baseline.load(baseline)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_rejects_unknown_rule(capsys):
    assert main(["--rule", "no-such-rule"]) == 2
    capsys.readouterr()


def test_cli_rejects_missing_path(capsys):
    assert main(["does/not/exist.py"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in CORPUS:
        assert name in out


def test_cli_reports_parse_errors(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    code = main([str(broken), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PARSE ERROR" in out


def test_cli_writes_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(
        [
            str(FIXTURES / "bad_hot_path.py"),
            "--rule",
            "hot-path",
            "--no-baseline",
            "--out",
            str(out_file),
        ]
    )
    capsys.readouterr()
    assert code == 1
    report = json.loads(out_file.read_text())
    assert report["counts"]["findings"] >= 4
    assert {f["rule"] for f in report["findings"]} == {"hot-path"}


def test_exception_rule_scoped_to_serving_packages():
    """In-repo scoping: exception-taxonomy skips e.g. src/repro/eval."""
    rule = _rule("exception-taxonomy")
    assert rule_applies(rule, "src/repro/serving/service.py")
    assert rule_applies(rule, "src/repro/obs/trace.py")
    assert not rule_applies(rule, "src/repro/eval/metrics.py")
    assert not rule_applies(rule, "src/repro/engine/executor.py")
    # ...but fixtures outside src/repro stay fully in scope.
    assert rule_applies(rule, "tests/analyze/fixtures/x.py")
