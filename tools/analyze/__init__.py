"""``repro analyze`` — the repo's custom static-analysis suite.

Four ``ast``-based analyzers machine-check the invariants
docs/ARCHITECTURE.md and docs/OBSERVABILITY.md only *stated* until
now, each hand-violated (and hand-fixed) by a past PR:

- ``lock-discipline`` — stats mutate/snapshot under their owning lock;
  nothing slow or reentrant runs while a lock is held.
- ``exception-taxonomy`` — serving packages raise ``repro.errors``
  classes only; broad handlers re-raise or count.
- ``hot-path`` — the estimate path: monotonic clocks only, zero span
  allocation without a null-tracer guard, no per-request logging.
- ``clock-discipline`` — ``time.time()`` only into wall-clock record
  fields, repo-wide.

Run ``python -m tools.analyze`` from the repo root (see
docs/STATIC_ANALYSIS.md for suppressions and the baseline ratchet).
The suite is stdlib-only so it runs inside plain pytest
(``tests/test_analyze_gates.py``) as well as the CI lint job.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import (
    clock_discipline,
    exception_taxonomy,
    hot_path,
    lock_discipline,
)
from .core import (
    Baseline,
    BaselineError,
    Finding,
    ModuleSource,
    Rule,
    analyze_paths,
)

#: Every registered rule, in report order.
RULES: Tuple[Rule, ...] = (
    lock_discipline.RULE,
    exception_taxonomy.RULE,
    hot_path.RULE,
    clock_discipline.RULE,
)

#: Per-rule path scoping *inside* ``src/repro`` — a rule whose entry is
#: a prefix tuple only applies to those subtrees of the repo source;
#: ``None`` means repo-wide.  Paths outside ``src/repro`` (fixture
#: corpora, ad-hoc targets) are always in scope for every rule, so the
#: suite stays testable on synthetic files.
RULE_SCOPES: Dict[str, Optional[Tuple[str, ...]]] = {
    "lock-discipline": None,
    "exception-taxonomy": (
        "src/repro/serving/",
        "src/repro/cluster/",
        "src/repro/persist/",
        "src/repro/sql/",
        "src/repro/obs/",
    ),
    "hot-path": None,
    "clock-discipline": None,
}


def rule_applies(rule: Rule, path: str) -> bool:
    """Whether *rule* is in scope for the repo-relative *path*."""
    scope = RULE_SCOPES.get(rule.name)
    if scope is None or not path.startswith("src/repro/"):
        return True
    return any(path.startswith(prefix) for prefix in scope)


__all__ = [
    "Baseline",
    "BaselineError",
    "Finding",
    "ModuleSource",
    "Rule",
    "RULES",
    "RULE_SCOPES",
    "analyze_paths",
    "rule_applies",
]
