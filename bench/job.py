"""The batch jobs of the ``build`` and ``evaluate`` workloads, in their own process.

Usage: ``python bench/job.py {build,evaluate} --seed S --reps N --out DIR
[--trace FILE]`` or ``python bench/job.py dataset --out DIR``

A batch run is *N* operations, each on a freshly built ``ExperimentWorld``
at TINY scale, as one ``repro build`` or ``repro evaluate`` invocation pays
it: set-up (constructing the world) then the job.  Each operation's set-up
and job are timed apart, so the parent reports the median of each.  The
process prints one JSON line with those times, the output digests, the
checks and its peak resident memory.

* ``build`` is what ``repro build --scale tiny --workers 2`` does after
  import: build the world, run the PatchDB construction pipeline and write
  the JSONL release.
* ``evaluate`` builds the world with two ML workers and runs Tables III and
  VI, as ``repro evaluate --scale tiny`` does (without Table IV; see
  README.md).
* ``dataset`` writes the release the serve workloads load: the SMALL world
  pickle and its PatchDB JSONL.  It is set-up for those workloads, made once
  per source tree.

The corpus (world seed 2021) is the same in every operation, so its digest
is checked every time.  ``--seed`` seeds the pipeline's own sampling (wild
pools, verification panels, splits, synthesis): operation *i* uses input
``i % INPUTS`` of ``INPUTS`` distinct pipeline seeds, and an input run again
must give byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: World seed of the benchmark corpus.
WORLD_SEED = 2021
#: Distinct pipeline seeds per batch run; later operations repeat them.
INPUTS = 3


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process *pid*, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pipeline_seed(seed: int, op: int) -> int:
    """The pipeline seed of operation *op* of a run with *seed*."""
    return seed * INPUTS + op % INPUTS


def setup_build():
    from repro.analysis.experiments import TINY, ExperimentWorld

    return ExperimentWorld(TINY, seed=WORLD_SEED, workers=2)


def run_build(ew, seed: int, out: Path) -> tuple[bytes, dict]:
    from repro.analysis.experiments import build_patchdb

    release = out / f"release-{os.getpid()}.jsonl"
    db = build_patchdb(ew, seed=seed)
    db.save_jsonl(release)
    try:
        data = release.read_bytes()
    finally:
        release.unlink()
    shas = [json.loads(line)["sha"] for line in data.decode("utf-8").splitlines()]
    return data, {
        "release_has_every_record": shas == [r.patch.sha for r in db],
        "release_nonempty": len(db) > 0,
    }


def setup_evaluate():
    from repro.analysis.experiments import TINY, ExperimentWorld

    return ExperimentWorld(TINY, seed=WORLD_SEED, workers=2, ml_workers=2)


def run_evaluate(ew, seed: int, out: Path) -> tuple[bytes, dict]:
    from repro.analysis.experiments import run_table3, run_table6

    table3 = run_table3(ew, seed=seed)
    table6 = run_table6(ew, seed=seed)
    rendered = "\n".join([r.row() for r in table3] + [table6.table()])
    rates = [r.proportion for r in table3] + [v for row in table6.rows for v in row[3:]]
    fits = ew.obs.count("fits_parallel") + ew.obs.count("fits_serial")
    return rendered.encode("utf-8"), {
        "table_shapes": (len(table3), len(table6.rows)) == (4, 8),
        "rates_in_unit_interval": all(0.0 <= v <= 1.0 for v in rates),
        "fits_ran": fits > 0,
    }


#: job -> (set-up returning a fresh world, the job run on that world)
JOBS = {"build": (setup_build, run_build), "evaluate": (setup_evaluate, run_evaluate)}


def run_ops(job: str, seed: int, reps: int, out: Path) -> dict:
    """*reps* operations of *job*; every output is checked."""
    setup, run = JOBS[job]
    setup_s, job_s, digests, failed = [], [], [], 0
    world_digests: set[str] = set()
    counters: dict[str, float] = {}
    for op in range(reps):
        start = time.perf_counter()
        ew = setup()
        ready = time.perf_counter()
        output, checks = run(ew, pipeline_seed(seed, op), out)
        job_s.append(time.perf_counter() - ready)
        setup_s.append(ready - start)
        digest = hashlib.sha256(output).hexdigest()
        if op < INPUTS:
            digests.append(digest)
        checks["repeat_is_identical"] = digest == digests[op % INPUTS]
        ok = all(checks.values())
        failed += not ok
        if not ok:
            print(f"op {op}: failed checks {sorted(k for k, v in checks.items() if not v)}",
                  file=sys.stderr)
        world_digests.add(ew.world.digest())
        for name, value in ew.obs.counters.items():
            counters[name] = counters.get(name, 0) + value
        del ew
    return {
        "setup_s": setup_s,
        "job_s": job_s,
        "failed": failed,
        "world_digests": sorted(world_digests),
        "output_sha256": hashlib.sha256("".join(digests).encode("ascii")).hexdigest(),
        "obs": counters,
    }


def run_dataset(out: Path) -> dict:
    from repro.analysis.experiments import SMALL, ExperimentWorld, build_patchdb

    ew = ExperimentWorld.cached(SMALL, seed=WORLD_SEED, cache_dir=out, workers=2)
    db = build_patchdb(ew)
    tmp = out / "patchdb.jsonl.tmp"
    db.save_jsonl(tmp)
    tmp.replace(out / "patchdb.jsonl")
    return {"records": len(db), "world_digest": ew.world.digest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=sorted(JOBS) + ["dataset"])
    parser.add_argument("--seed", type=int, default=WORLD_SEED)
    parser.add_argument("--reps", type=int, default=INPUTS, help="operations to run")
    parser.add_argument("--out", type=Path, required=True, help="scratch directory")
    parser.add_argument("--trace", type=Path, default=None, help="write layer spans here")
    args = parser.parse_args(argv)
    if args.job == "dataset":
        print(json.dumps(run_dataset(args.out)), flush=True)
        return 0
    if args.reps < INPUTS:
        parser.error(f"--reps must be at least {INPUTS}")

    log = None
    if args.trace:
        import layers

        log = layers.SpanLog(args.out / f"workers-{os.getpid()}")
        layers.install(log)  # before any world build forks its pool
    result = run_ops(args.job, args.seed, args.reps, args.out)
    result["peak_rss_mb"] = vm_hwm_mb(os.getpid())
    if log is not None:
        args.trace.write_text(json.dumps(log.collect()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
