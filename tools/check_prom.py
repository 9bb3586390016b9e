#!/usr/bin/env python
"""Prometheus text-exposition lint for the registry's output.

A standalone (stdlib-only) validator for the format
:meth:`repro.obs.MetricsRegistry.render_prometheus` emits — what a
scrape endpoint would serve.  It checks, line by line:

- metric names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``;
- label names match ``[a-zA-Z_][a-zA-Z0-9_]*`` and label values are
  well-quoted (escaped ``\\``, ``"`` and newlines only);
- sample values parse as Go-style floats (including ``+Inf``/``-Inf``
  and ``NaN``);
- ``# TYPE``/``# HELP`` comment lines are well-formed, a ``TYPE``
  names one of the four exposition types, and no metric is typed
  twice;
- no duplicate series: a (metric name, label set) pair appears once.

Usable as a library (:func:`check_prometheus_text` returns a problem
list; ``tests/obs`` runs it over live renders) and as a CLI over
``.prom`` files, such as a scrape saved with ``curl``::

    python tools/check_prom.py scrape.prom

Exits nonzero listing every malformed line.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import List, Optional, Tuple

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
#: One ``name="value"`` pair; values allow any escaped content.
_LABEL_PAIR = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"((?:[^"\\]|\\.)*)"\s*(,|$)'
)
_SAMPLE = re.compile(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)\s*$")
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_value(text: str) -> bool:
    """Whether *text* is a valid sample value (float, Inf, NaN)."""
    if text in ("+Inf", "-Inf", "Inf", "NaN"):
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_labels(body: str) -> Optional[Tuple[Tuple[str, str], ...]]:
    """``a="x",b="y"`` -> sorted pairs, or None when malformed."""
    pairs: List[Tuple[str, str]] = []
    position = 0
    while position < len(body):
        match = _LABEL_PAIR.match(body, position)
        if match is None:
            return None
        pairs.append((match.group(1), match.group(2)))
        position = match.end()
        if match.group(3) == "" and position < len(body):
            return None
    return tuple(sorted(pairs))


def check_prometheus_text(text: str) -> List[str]:
    """Validate one exposition document; returns problem strings
    (``line N: <what>``), empty when the document is clean."""
    problems: List[str] = []
    typed: set = set()
    seen_series: set = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) < 2 or fields[1] not in ("TYPE", "HELP"):
                continue  # free-form comment: legal, unchecked
            if len(fields) < 3 or not _METRIC_NAME.match(fields[2]):
                problems.append(
                    f"line {number}: malformed {fields[1]} comment: {line!r}"
                )
                continue
            if fields[1] == "TYPE":
                if len(fields) < 4 or fields[3] not in _TYPES:
                    problems.append(
                        f"line {number}: TYPE must name one of "
                        f"{_TYPES}: {line!r}"
                    )
                elif fields[2] in typed:
                    problems.append(
                        f"line {number}: metric {fields[2]!r} TYPEd twice"
                    )
                else:
                    typed.add(fields[2])
            continue
        match = _SAMPLE.match(line)
        if match is None:
            problems.append(f"line {number}: unparseable sample: {line!r}")
            continue
        name, _, label_body, value = match.groups()
        labels: Tuple[Tuple[str, str], ...] = ()
        if label_body is not None:
            parsed = _parse_labels(label_body)
            if parsed is None:
                problems.append(
                    f"line {number}: malformed label set: {line!r}"
                )
                continue
            labels = parsed
        if not _parse_value(value):
            problems.append(
                f"line {number}: bad sample value {value!r}: {line!r}"
            )
            continue
        series = (name, labels)
        if series in seen_series:
            problems.append(
                f"line {number}: duplicate series {name}{dict(labels)}"
            )
        seen_series.add(series)
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: validate every ``.prom`` file given; nonzero on problems."""
    paths = [pathlib.Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        print("usage: python tools/check_prom.py FILE.prom [FILE.prom ...]")
        return 2
    failed = False
    for path in paths:
        problems = check_prometheus_text(path.read_text())
        for problem in problems:
            print(f"{path}: {problem}")
            failed = True
    if failed:
        return 1
    print(f"checked {len(paths)} file(s): all series well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
