"""The closed-loop autofix benchmark: find/repair rates at bench scale.

Runs the find→patch→verify pipeline over the shared bench world and prints
its rates.  Asserts the acceptance floor of the CI gate (repair rate, zero verifier crashes) plus serial/parallel
manifest parity, and reports per-checker finder precision/recall against
the planted ground truth.
"""

import time

from conftest import print_table

from repro.autofix import AutofixConfig, autofix_world
from repro.obs import ObsRegistry

#: The same floor the CI job enforces via ``--fail-under``.
REPAIR_RATE_BAR = 0.9
#: Files drawn from the bench world (sorted-path prefix, deterministic).
MAX_FILES = 120
LOOP_WORKERS = 4


def test_closed_loop_repair_rate(benchmark, bench_world):
    config = AutofixConfig()

    serial_obs = ObsRegistry()
    start = time.perf_counter()
    serial = autofix_world(
        bench_world.world, config, workers=1, obs=serial_obs, max_files=MAX_FILES
    )
    serial_s = time.perf_counter() - start

    pool_obs = ObsRegistry()
    start = time.perf_counter()
    pooled = autofix_world(
        bench_world.world, config, workers=LOOP_WORKERS, obs=pool_obs, max_files=MAX_FILES
    )
    pooled_s = time.perf_counter() - start

    summary = serial.summary()
    body = "\n".join(
        [
            f"scale:             {bench_world.scale.name} ({MAX_FILES} files)",
            f"plants applied:    {summary['plants_applied']}",
            f"found:             {summary['found']}",
            f"verified repairs:  {summary['accepted']} "
            f"(repair rate {summary['repair_rate']:.1%})",
            f"verifier crashes:  {summary['verifier_crashes']}",
            f"serial loop:       {serial_s:8.1f} s",
            f"{LOOP_WORKERS}-worker loop:     {pooled_s:8.1f} s",
            "",
            serial.render_text(),
        ]
    )
    print_table("Closed-loop autofix — find→patch→verify", body)

    # Parallelism must be a pure optimization: byte-identical manifest.
    assert serial.to_json() == pooled.to_json()
    for name in ("autofix_plants", "autofix_found", "autofix_accepted", "autofix_crashes"):
        assert serial_obs.count(name) == pool_obs.count(name), name

    assert summary["verifier_crashes"] == 0
    assert summary["repair_rate"] >= REPAIR_RATE_BAR, (
        f"repair rate {summary['repair_rate']:.1%} under the "
        f"{REPAIR_RATE_BAR:.0%} bar"
    )
    # The finder must hold recall on every planted checker class.
    for checker, scores in summary["finder"].items():
        assert scores["recall"] >= 0.9, (checker, scores)

    benchmark.pedantic(
        lambda: autofix_world(
            bench_world.world, config, workers=LOOP_WORKERS, max_files=MAX_FILES
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
