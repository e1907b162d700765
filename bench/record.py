"""Run the benchmark repeatedly and write result files for ``compare.py``.

Usage: ``python bench/record.py OUT.json [OUT.json ...] [--workloads W,...]
[--seeds A-B] [--traced N]``

Each OUT file is one set of untraced runs: the first set runs seeds A to B,
the next set the same number of seeds after them, and so on.  The sets are
recorded interleaved, one seed of each set and every workload in turn, so
that a slow spell of the machine falls on all sets alike.  The first file
also gets, per workload, one untraced and ``--traced`` traced runs with the
default seed, whose output digests are pinned.

Each file is ``repro-bench-results-v1``: the machine (CPU count, Python,
NumPy, platform), the commit, and every run's raw result together with the
``# key = value`` lines it printed (output digest, pin check, sample
counts).  At the end each set's quartiles and spread are printed per
end-to-end metric, against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from compare import quartiles, spread, values  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def machine() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "commit": commit,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    info = dict(
        line[2:].split(" = ", 1) for line in lines if line.startswith("# ") and " = " in line
    )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit": proc.returncode,
        "elapsed_s": time.perf_counter() - start,
        "info": info,
        "result": result,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="+")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B of the first set")
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    n = last - first + 1
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")

    sets = [
        {"format": "repro-bench-results-v1", "machine": machine(), "run_seconds": seconds, "runs": []}
        for _ in args.out
    ]

    def record(k: int, workload: str, seed: int, trace: int) -> None:
        sets[k]["runs"].append(run_once(workload, seed, seconds, trace))
        run = sets[k]["runs"][-1]
        print(
            f"set {k} {workload} seed {seed} trace {trace}: {run['elapsed_s']:.1f}s "
            f"exit {run['exit']}",
            file=sys.stderr,
        )
        args.out[k].write_text(json.dumps(sets[k], indent=1) + "\n")

    for i in range(n):
        for k in range(len(sets)):
            for workload in workloads:
                record(k, workload, first + k * n + i, 0)
    for workload in workloads:
        record(0, workload, DEFAULT_SEED, 0)
        for _ in range(args.traced):
            record(0, workload, DEFAULT_SEED, 1)

    print(f"{'set':<4s} {'workload':<10s} {'metric':<12s} {'q1':>10s} {'median':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for k, results in enumerate(sets):
        for workload in workloads:
            for metric in spec["end_to_end"]:
                vals = values(results, workload, metric["name"])
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                print(
                    f"{k:<4d} {workload:<10s} {metric['name']:<12s} {q1:>10.4g} {med:>10.4g} "
                    f"{q3:>10.4g} {spread(vals):>7.3f} {metric['bound']:>6.2f}"
                )
    runs = [r for results in sets for r in results["runs"]]
    failed = [r for r in runs if not r["result"]["correct"] or r["exit"] != 0]
    print(f"{len(runs)} runs, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
