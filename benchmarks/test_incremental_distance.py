"""Incremental distance engine vs per-round full recomputation.

The augmentation schedule's cost center is the ``M×N`` weighted distance
matrix (§III-B).  ``DatasetAugmentation(incremental=True)`` maintains it
through a :class:`~repro.features.normalize.DistanceEngine` — weights fitted
once per search set, rows appended for newly verified patches, reviewed
columns masked — instead of rebuilding matrix and weights from scratch every
round.  This bench runs the same five-round schedule both ways on one wild
pool and asserts:

* identical ``RoundResult`` sequences and final sha partitions (the engine
  is an optimization, not an approximation), and
* the incremental schedule completes at least 2x faster.

Timing uses best-of-``REPS`` wall clock per mode on a pre-warmed feature
cache, so the comparison isolates distance/search work rather than feature
extraction or process noise.
"""

from __future__ import annotations

import time

from conftest import print_table

from repro.core.augmentation import DatasetAugmentation, SearchSet
from repro.core.cache import CommitCache
from repro.core.oracle import VerificationOracle
from repro.obs import ObsRegistry

MIN_POOL = 2_000
ROUNDS = 5
REPS = 5
ORACLE_SEED = 7


def _schedule_once(cache, world, seed_shas, search_sets, incremental, obs=None):
    oracle = VerificationOracle(world, seed=ORACLE_SEED)
    aug = DatasetAugmentation(cache, oracle, incremental=incremental, obs=obs)
    start = time.perf_counter()
    outcome = aug.run_schedule(list(seed_shas), search_sets)
    return time.perf_counter() - start, outcome


def test_incremental_schedule_2x_faster_than_full(benchmark, bench_world):
    world = bench_world.world
    seed_shas = sorted(world.security_shas())[::2]
    pool = bench_world.wild_pool(10**9, exclude=set(seed_shas))
    assert len(pool) >= MIN_POOL, f"bench world too small: {len(pool)} wild patches"

    cache = CommitCache(world)
    cache.matrix(seed_shas + pool)  # pre-warm: both modes start feature-hot
    search_sets = [SearchSet("Set I", tuple(pool), rounds=ROUNDS)]

    obs = ObsRegistry()
    best = {True: float("inf"), False: float("inf")}
    outcomes = {}
    for _ in range(REPS):
        for incremental in (True, False):
            elapsed, outcome = _schedule_once(
                cache, world, seed_shas, search_sets, incremental,
                obs=obs if incremental else None,
            )
            best[incremental] = min(best[incremental], elapsed)
            outcomes[incremental] = outcome

    inc, full = outcomes[True], outcomes[False]
    speedup = best[False] / best[True]

    body = "\n".join(
        [
            f"seed security patches (M): {len(seed_shas)}",
            f"wild pool (N):             {len(pool)}",
            f"rounds:                    {ROUNDS}",
            f"full rebuild per round:    {best[False] * 1e3:8.1f} ms (best of {REPS})",
            f"incremental engine:        {best[True] * 1e3:8.1f} ms (best of {REPS})",
            f"speedup:                   {speedup:8.2f}x",
            "",
            inc.table(),
            "",
            obs.report(),
        ]
    )
    print_table("Incremental distance engine vs full per-round recompute", body)

    # The engine must be a pure optimization: byte-for-byte the same rounds.
    assert inc.rounds == full.rounds
    assert inc.security_shas == full.security_shas
    assert inc.non_security_shas == full.non_security_shas
    assert len(inc.rounds) == ROUNDS

    # Acceptance: >= 2x on a pool of >= 2,000 wild patches.
    assert speedup >= 2.0, (
        f"incremental engine only {speedup:.2f}x faster "
        f"(full {best[False] * 1e3:.1f} ms vs incremental {best[True] * 1e3:.1f} ms)"
    )

    # Record the incremental schedule in the benchmark table.
    benchmark.pedantic(
        lambda: _schedule_once(cache, world, seed_shas, search_sets, True),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
