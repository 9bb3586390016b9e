"""Compare two sets of benchmark results against the metrics' bounds.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py BASE_DIR CANDIDATE_DIR

Each directory holds ``RESULT_*.json`` files written by ``run.py``
(any number of runs per workload, any seeds).  For every workload and
metric it prints both sets' medians and quartiles and, for end-to-end
metrics, a verdict against the bound BENCHMARK.json fixes:

- ``worse`` / ``better`` — the candidate's median moved past the bound;
- ``same`` — the medians are within the bound;
- ``unresolved`` — a set's quartile spread exceeds the bound, so the
  runs cannot tell, unless every candidate run reads better (or
  worse) than every base run.

Each workload also gets an ``error_rate`` row, failed over attempted
per run, which may not increase: ``worse`` if the candidate runs'
mean error rate is above the base runs'.

Exits 1 if any metric is ``worse``, else 0.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Sequence, Tuple

import drive

SPEC_FILE = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_results(directory: pathlib.Path) -> List[dict]:
    """Every ``RESULT_*.json`` under *directory*."""
    return [json.loads(p.read_text()) for p in sorted(directory.glob("RESULT_*.json"))]


def verdict(base: Sequence[float], cand: Sequence[float], better: str, bound: float) -> str:
    """Judge *cand* against *base* for a metric where *better* is
    ``"higher"`` or ``"lower"`` and *bound* is the allowed share."""
    b1, b_med, b3 = drive.quartiles(base)
    c1, c_med, c3 = drive.quartiles(cand)
    sign = 1.0 if better == "higher" else -1.0
    scale = abs(b_med) or 1.0
    gain = sign * (c_med - b_med) / scale
    spread = max(b3 - b1, c3 - c1) / scale
    if spread > bound:
        if min(sign * c for c in cand) > max(sign * b for b in base):
            return "better"
        if max(sign * c for c in cand) < min(sign * b for b in base):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def compare(
    base: List[dict], cand: List[dict], spec: dict
) -> List[Tuple[str, str, List[float], List[float], str]]:
    """Rows of ``(workload, metric, base quartiles, candidate
    quartiles, verdict)``; metrics without a bound get verdict ``-``."""
    bounds: Dict[str, dict] = {m["name"]: m for m in spec.get("end_to_end", [])}

    def values(results: List[dict]) -> Dict[Tuple[str, str], List[float]]:
        out: Dict[Tuple[str, str], List[float]] = {}
        for result in results:
            for metric, entry in result["metrics"].items():
                out.setdefault((result["workload"], metric), []).append(float(entry["value"]))
        return out

    def error_rates(results: List[dict]) -> Dict[Tuple[str, str], List[float]]:
        out: Dict[Tuple[str, str], List[float]] = {}
        for result in results:
            rate = result["failed"] / max(result["attempted"], 1)
            out.setdefault((result["workload"], "error_rate"), []).append(rate)
        return out

    base_values, cand_values = values(base), values(cand)
    base_values.update(error_rates(base))
    cand_values.update(error_rates(cand))
    rows = []
    for key in sorted(set(base_values) & set(cand_values)):
        workload, metric = key
        b, c = base_values[key], cand_values[key]
        rule = bounds.get(metric)
        if metric == "error_rate":
            b_mean, c_mean = sum(b) / len(b), sum(c) / len(c)
            judged = "worse" if c_mean > b_mean else "better" if c_mean < b_mean else "same"
        else:
            judged = verdict(b, c, rule["better"], rule["bound"]) if rule else "-"
        rows.append((workload, metric, drive.quartiles(b), drive.quartiles(c), judged))
    return rows


def main(argv: List[str]) -> int:
    """Entry point: print the comparison; exit 1 on any regression."""
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    base, cand = (load_results(pathlib.Path(arg)) for arg in argv)
    rows = compare(base, cand, spec)
    if not rows:
        print("no common (workload, metric) pairs to compare", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<40} {'base q1/med/q3':>32} {'cand q1/med/q3':>32}  verdict")
    for workload, metric, b, c, judged in rows:
        fmt = "/".join(f"{v:.4g}" for v in b), "/".join(f"{v:.4g}" for v in c)
        print(f"{workload:<16} {metric:<40} {fmt[0]:>32} {fmt[1]:>32}  {judged}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
