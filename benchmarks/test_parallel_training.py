"""Table IV fits in a process pool vs one after another.

Tables IV and VI re-fit the same classifier families over overlapping
splits of the same commits.  Both sides of this bench run the one
evaluation path: token sequences served from the shared
:class:`~repro.core.cache.CommitCache` and patch synthesis memoized
per origin sha.  The only difference is ``ew.ml_workers``: unset, the
independent fits run serially; set to ``ML_WORKERS``, they run through the
:func:`repro.ml.fit_many` process pool.  So the ratio measures the fit
pool alone.  This bench runs Table IV (and Table VI for parity) both ways
on one SMALL world and asserts:

* identical result rows in both modes (bit-identity, not approximation), and
* the pool completes Table IV at least 2x faster.

Each side starts from a cold commit cache, so each time is one
self-contained ``repro evaluate`` invocation, not cross-run cache reuse.
The pool cannot beat the serial side by more than the machine's CPU count.
"""

from __future__ import annotations

import time

from conftest import print_table

from repro.core.cache import CommitCache

from repro.analysis.experiments import run_table4, run_table6

ML_WORKERS = 4
N_SEEDS = 4


def test_engine_2x_faster_than_serial_table4(benchmark, bench_world):
    ew = bench_world
    shared_cache = ew.cache

    def cold_table4(ml_workers):
        # Neither side may inherit sequences tokenized by earlier benches
        # or by the other side.  Table IV reads only token sequences, so a
        # fresh commit cache is exactly as cold as a fresh token cache.
        ew.cache = CommitCache(ew.world, obs=ew.obs)
        ew.ml_workers = ml_workers
        start = time.perf_counter()
        result = run_table4(ew, n_seeds=N_SEEDS)
        return result, time.perf_counter() - start

    try:
        serial4, serial_s = cold_table4(None)
        serial6 = run_table6(ew)
        ew.obs.reset()
        engine4, engine_s = cold_table4(ML_WORKERS)
        engine6 = run_table6(ew)

        speedup = serial_s / engine_s
        body = "\n".join(
            [
                f"scale:                   {ew.scale.name} ({ew.scale.n_commits} commits)",
                f"ml workers:              {ML_WORKERS}",
                f"table IV serial fits:    {serial_s:8.1f} s",
                f"table IV pooled fits:    {engine_s:8.1f} s",
                f"speedup:                 {speedup:8.2f}x",
                "",
                engine4.table(),
                "",
                engine6.table(),
                "",
                ew.obs.report(),
            ]
        )
        print_table("Table IV fit pool vs serial fits", body)

        # The pool must be a pure optimization: byte-for-byte the same rows.
        assert engine4.rows == serial4.rows
        assert engine6.rows == serial6.rows

        # Acceptance: >= 2x on Table IV at SMALL scale.
        assert speedup >= 2.0, (
            f"fit pool only {speedup:.2f}x faster "
            f"(serial {serial_s:.1f} s vs pooled {engine_s:.1f} s)"
        )

        # Record the pooled run in the benchmark table (token sequences warm
        # by now; this measures the steady state).
        benchmark.pedantic(
            lambda: run_table4(ew, n_seeds=N_SEEDS),
            rounds=1,
            iterations=1,
            warmup_rounds=0,
        )
    finally:
        ew.ml_workers = None
        # Later benches read feature vectors from the world's own cache.
        ew.cache = shared_cache
