"""Parallel training engine vs the legacy serial evaluation path.

Tables IV and VI re-fit the same classifier families over overlapping
splits of the same commits.  The engine (``ml_workers=N``) routes those
independent fits through :func:`repro.ml.fit_many`, serves token sequences
from the shared :class:`~repro.core.cache.TokenSequenceCache`, and memoizes
patch synthesis per origin sha — all exact optimizations, so the rows must
match the serial path byte for byte.  This bench runs Table IV (and Table
VI for parity) both ways on one SMALL world and asserts:

* identical result rows in both modes (bit-identity, not approximation), and
* the engine completes Table IV at least 2x faster.

The engine run starts from a cold token cache so the speedup measures one
self-contained ``repro evaluate`` invocation, not cross-run cache reuse.
"""

from __future__ import annotations

import time

from conftest import print_table

from repro.core.cache import TokenSequenceCache

from repro.analysis.experiments import run_table4, run_table6

ML_WORKERS = 4
N_SEEDS = 4


def test_engine_2x_faster_than_serial_table4(benchmark, bench_world):
    ew = bench_world

    start = time.perf_counter()
    serial4 = run_table4(ew, n_seeds=N_SEEDS)
    serial_s = time.perf_counter() - start
    serial6 = run_table6(ew)

    # Cold token cache: the engine may not inherit sequences tokenized by
    # earlier benches or the serial run above.
    ew.tokens = TokenSequenceCache(ew.world, obs=ew.obs)
    ew.obs.reset()

    start = time.perf_counter()
    engine4 = run_table4(ew, n_seeds=N_SEEDS, ml_workers=ML_WORKERS)
    engine_s = time.perf_counter() - start
    engine6 = run_table6(ew, ml_workers=ML_WORKERS)

    speedup = serial_s / engine_s
    body = "\n".join(
        [
            f"scale:                   {ew.scale.name} ({ew.scale.n_commits} commits)",
            f"ml workers:              {ML_WORKERS}",
            f"table IV serial:         {serial_s:8.1f} s",
            f"table IV engine:         {engine_s:8.1f} s",
            f"speedup:                 {speedup:8.2f}x",
            "",
            engine4.table(),
            "",
            engine6.table(),
            "",
            ew.obs.report(),
        ]
    )
    print_table("Parallel training engine vs serial evaluation", body)

    # The engine must be a pure optimization: byte-for-byte the same rows.
    assert engine4.rows == serial4.rows
    assert engine6.rows == serial6.rows

    # Acceptance: >= 2x on Table IV at SMALL scale.
    assert speedup >= 2.0, (
        f"engine only {speedup:.2f}x faster "
        f"(serial {serial_s:.1f} s vs engine {engine_s:.1f} s)"
    )

    # Record the engine-mode run in the benchmark table (token cache warm
    # by now; this measures the steady-state engine).
    benchmark.pedantic(
        lambda: run_table4(ew, n_seeds=N_SEEDS, ml_workers=ML_WORKERS),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
