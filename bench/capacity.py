"""Measure the request rate the server sustains for each serve workload.

Usage: ``python bench/capacity.py [--workloads classify,query] [--seed N]
[--seconds N] [--reps N]``

For each workload this launches the benchmark's server (pinned to its own
CPU, as ``run.py`` does), sends every distinct request once, then runs
``--reps`` closed loops of ``--seconds`` each with two connections: each
connection sends its next request as soon as the previous one is answered.
It prints, per loop, the correct replies per second and their median
latency, then the median over loops.  ``run.py``'s open-loop rates
(``SERVE_RATES``) are chosen against these numbers.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys

import run
from loadgen import Client, run_until_complete


async def _loops(client: Client, seed: int, seconds: float, reps: int) -> list:
    warm = await client.warmup()
    if warm.failed:
        raise run.BenchError(f"{warm.failed} warm-up requests failed")
    return [
        await client.closed_loop(run.CONNECTIONS, seconds, random.Random(seed * 1000 + i))
        for i in range(reps)
    ]


def capacity(name: str, seed: int, seconds: float, reps: int) -> tuple[float, float]:
    """Median (replies per second, median latency in ms) over *reps* loops."""
    dataset = run.ensure_dataset()
    requests, _ = run.serve_requests(name, seed, dataset)
    server = run.Server(dataset, run.OUT / f"capacity-{name}.log", cpus=run.split_cpus())
    try:
        client = Client(server.host, server.port, requests, trace_prefix=f"{seed & 0xFFFFFFFF:08x}")
        phases = run_until_complete(_loops(client, seed, seconds, reps))
    finally:
        server.stop()
    rates, p50s = [], []
    for phase in phases:
        if phase.failed:
            raise run.BenchError(f"{name}: {phase.failed} closed-loop requests failed")
        rates.append(len(phase.outcomes) / phase.duration_s)
        p50s.append(run.pct([o.service_s * 1000.0 for o in phase.outcomes], 50))
        print(f"{name:<9s} {rates[-1]:8.1f} req/s  p50 {p50s[-1]:6.2f} ms", flush=True)
    return statistics.median(rates), statistics.median(p50s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.SERVE_RATES))
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    for name in args.workloads.split(","):
        rate, p50 = capacity(name, args.seed, args.seconds, args.reps)
        share = run.SERVE_RATES[name] / rate
        print(
            f"{name:<9s} sustained {rate:.1f} req/s (p50 {p50:.2f} ms); open loop "
            f"{run.SERVE_RATES[name]:.0f} req/s is {share:.2f} of it"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
