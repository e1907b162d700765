"""Compare two benchmark result files metric by metric.

Usage: ``python bench/compare.py OLD.json NEW.json``

Both files are written by ``record.py``.  For every (workload, end-to-end
metric) the untraced runs of each file give a median and quartiles; the
metric's ``bound`` and ``better`` in ``BENCHMARK.json`` turn them into one
verdict:

* ``regressed``: NEW's median is worse than OLD's by more than the bound.
* ``unresolved``: OLD's own spread (interquartile range over median) is
  wider than the bound, so the bound cannot be judged, and not every NEW
  run beats every OLD run.
* ``unchanged``: neither of the above.

The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``numpy.percentile``,
    the definition ``run.py`` uses for latency percentiles."""
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(old: list[float], new: list[float], bound: float, better: str) -> str:
    """The comparison rule described in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    old_median = quartiles(old)[1]
    worse = sign * (quartiles(new)[1] - old_median) / old_median if old_median else 0.0
    if spread(old) > bound:
        all_beat = all(sign * (n - o) < 0 for n in new for o in old)
        if not all_beat:
            return "unresolved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def values(results: dict, workload: str, metric: str) -> list[float]:
    """The metric's value in every untraced, correct run of *workload*."""
    return [
        run["result"]["metrics"][metric]["value"]
        for run in results["runs"]
        if run["workload"] == workload and run["trace"] == 0 and run["result"]["correct"]
    ]


def workloads(results: dict) -> list[str]:
    return sorted({run["workload"] for run in results["runs"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text())
    new = json.loads(args.new.read_text())
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    print(f"{'workload':<10s} {'metric':<14s} {'old q1/med/q3':>32s} {'new q1/med/q3':>32s}  verdict")
    regressed = 0
    for workload in sorted(set(workloads(old)) & set(workloads(new))):
        for metric in spec["end_to_end"]:
            a, b = values(old, workload, metric["name"]), values(new, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["bound"], metric["better"])
            regressed += result == "regressed"
            fmt = "{:.4g}/{:.4g}/{:.4g}".format
            print(
                f"{workload:<10s} {metric['name']:<14s} {fmt(*quartiles(a)):>32s} "
                f"{fmt(*quartiles(b)):>32s}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
