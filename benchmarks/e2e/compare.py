#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/e2e/compare.py RUNS.jsonl        # spread only

Both files hold records appended by ``run.py --json``; the i-th record of
a workload in one file is paired with its i-th record in the other, so
run the two sides alternately.  For each end-to-end metric that
``BENCHMARK.json`` declares, a cell reads ``parent -> change (worse%)``
and a verdict:

* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the bound;
* ``unresolved`` — otherwise, when either side's spread (quartile
  distance over median) exceeds the metric's bound, and not every change
  run beats every parent run;
* ``gain`` — the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``same`` — otherwise.

The ``errors`` column compares failed ops, whose bound is zero.  The exit
status is 1 when any cell is a regression, unresolved, or has more
errors.  With one file, each cell shows the median and spread instead,
flagged ``WIDE`` where the spread exceeds the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path) -> dict[str, list[dict]]:
    """Records of a JSONL file, grouped by workload in file order."""
    out: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict for one metric, and the change's worsening."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    worse = sign * (cmed - pmed) / abs(pmed)
    if worse > bound:
        return "REGRESSION", worse
    always_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not always_better:
        return "unresolved", worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > p3 - p1 and worse < 0:
        return "gain", worse
    return "same", worse


def values_of(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records
            if r["metrics"].get(name, {}).get("value") is not None]


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = spec["end_to_end"]
    sides = [load(path) for path in argv]
    bad = False
    print("bounds: " + ", ".join(f"{m['name']} {m['bound']:.0%}" for m in e2e))
    for workload in sides[0]:
        cells = []
        for m in e2e:
            vals = [values_of(side.get(workload, []), m["name"]) for side in sides]
            if not all(vals):
                cells.append(f"{m['name']} n/a")
                bad = True
                continue
            if len(sides) == 1:
                wide = spread(vals[0]) > m["bound"]
                bad |= wide
                cells.append(f"{m['name']} {quartiles(vals[0])[1]:.4g} "
                             f"±{spread(vals[0]):.1%}{' WIDE' if wide else ''}")
                continue
            v, worse = verdict(vals[0], vals[1], m["better"], m["bound"])
            bad |= v in ("REGRESSION", "unresolved")
            cells.append(f"{m['name']} {quartiles(vals[0])[1]:.4g}->"
                         f"{quartiles(vals[1])[1]:.4g} ({worse:+.1%} worse) {v}")
        failed = [sum(r["failed"] for r in side.get(workload, [])) for side in sides]
        runs = [len(side.get(workload, [])) for side in sides]
        if len(sides) == 2 and failed[1] > failed[0]:
            bad = True
        cells.append("errors " + "->".join(map(str, failed)))
        print(f"{workload} (runs {'/'.join(map(str, runs))}): " + " | ".join(cells))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
