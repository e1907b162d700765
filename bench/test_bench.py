"""Tests of the benchmark's own machinery: ``python -m pytest bench -q``."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import random
import re
import time

import numpy as np
import pytest

import compare
import job
import layers
import loadgen
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ---- load generator ---------------------------------------------------------


class StallingServer:
    """An HTTP/1.0 server that answers ``ok`` at once, except that the
    first request after :meth:`stall` is held for *stall_s* seconds."""

    def __init__(self) -> None:
        self.stall_s = 0.0

    def stall(self, seconds: float) -> None:
        self.stall_s = seconds

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            await reader.readuntil(b"\r\n\r\n")
            delay, self.stall_s = self.stall_s, 0.0
            if delay:
                await asyncio.sleep(delay)
            writer.write(b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nok")
            await writer.drain()
        except ConnectionError:
            pass  # the client gave up on a stalled request
        finally:
            writer.close()

    async def open_loop(self, stall_s: float, drain_s: float) -> loadgen.Phase:
        server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            client = loadgen.Client("127.0.0.1", port, [loadgen.Request("GET", "/")], "0000beef")
            warm = await client.warmup()
            assert warm.failed == 0
            self.stall(stall_s)
            phase = await client.open_loop(100.0, 0.5, random.Random(3), slots=1, drain_s=drain_s)
            await asyncio.sleep(stall_s)  # let a stalled handler finish before shutdown
            return phase


def test_open_loop_times_from_due_time_and_reports_lateness():
    phase = loadgen.run_until_complete(StallingServer().open_loop(stall_s=0.3, drain_s=2.0))
    assert phase.failed == 0 and len(phase.outcomes) > 20
    late = [o.sent - o.due for o in phase.outcomes]
    # Requests due during the stall wait for the single slot: the generator
    # reports them late, and their latency includes that wait.
    assert max(late) > 0.15
    for o in phase.outcomes:
        assert o.latency_s == pytest.approx((o.sent - o.due) + o.service_s)
    queued = [o for o in phase.outcomes if o.sent - o.due > 0.1]
    assert queued and all(o.service_s < 0.1 < o.latency_s for o in queued)


def test_open_loop_counts_unanswered_requests_as_failed():
    phase = loadgen.run_until_complete(StallingServer().open_loop(stall_s=1.5, drain_s=0.1))
    unsent = [o for o in phase.outcomes if o.sent < 0]
    assert unsent and phase.failed >= len(unsent)


def test_open_loop_sends_on_time_against_a_prompt_server():
    """Timers wake well within a millisecond (epoll's timeout granularity)."""
    phase = loadgen.run_until_complete(StallingServer().open_loop(stall_s=0.0, drain_s=2.0))
    late_ms = [(o.sent - o.due) * 1000.0 for o in phase.outcomes]
    assert phase.failed == 0 and float(np.median(late_ms)) < 0.5


def test_poisson_schedule_is_seeded_and_near_rate():
    a = loadgen.poisson_schedule(200.0, 5.0, 7, random.Random(11))
    assert a == loadgen.poisson_schedule(200.0, 5.0, 7, random.Random(11))
    assert 900 < len(a) < 1100
    assert all(0 <= i < 7 for _, i in a) and all(t < 5.0 for t, _ in a)


def test_closed_loop_keeps_at_most_its_connections_in_flight():
    async def measure() -> loadgen.Phase:
        server = StallingServer()
        listener = await asyncio.start_server(server.handle, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        async with listener:
            client = loadgen.Client("127.0.0.1", port, [loadgen.Request("GET", "/")], "0000beef")
            await client.warmup()
            return await client.closed_loop(2, 0.3, random.Random(1))

    phase = loadgen.run_until_complete(measure())
    assert phase.failed == 0 and len(phase.outcomes) > 10
    events = sorted([(o.sent, 1) for o in phase.outcomes] + [(o.done, -1) for o in phase.outcomes])
    in_flight = np.cumsum([step for _, step in events])
    assert in_flight.max() <= 2


# ---- self-time helpers ------------------------------------------------------


def _spanlog(tmp_path) -> layers.SpanLog:
    return layers.SpanLog(tmp_path / "workers")


def test_self_time_is_busy_time_minus_children(tmp_path):
    log = _spanlog(tmp_path)
    inner = log.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = log.wrap("outer", outer_body)
    outer()
    totals = log.collect()["totals"]
    calls, busy, self_s = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 2
    assert self_s == pytest.approx(busy - totals["inner"][1])
    assert 0.005 < self_s < busy
    assert totals["inner"][2] == pytest.approx(totals["inner"][1])


def test_reentered_layer_counts_once(tmp_path):
    log = _spanlog(tmp_path)

    def fact(n: int) -> int:
        return 1 if n <= 1 else n * traced(n - 1)

    traced = log.wrap("fact", fact)
    assert traced(5) == 120
    assert log.collect()["totals"]["fact"][0] == 1


def _call_in_worker(fn) -> None:
    fn()


def test_forked_worker_totals_are_added_at_exit(tmp_path):
    log = _spanlog(tmp_path)
    work = log.wrap("work", lambda: time.sleep(0.01))
    work()
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_call_in_worker, args=(work,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    merged = log.collect()
    assert merged["workers"] == 1
    assert merged["totals"]["work"][0] == 2  # the parent's call plus the worker's


# ---- batch operations -------------------------------------------------------


class _FakeWorld:
    """Stands in for an ``ExperimentWorld``: a digest and obs counters."""

    def __init__(self) -> None:
        self.world = type("W", (), {"digest": lambda self: "corpus"})()
        self.obs = type("O", (), {"counters": {"made": 1}})()


def test_batch_ops_cycle_inputs_and_fail_a_changed_repeat(monkeypatch, tmp_path):
    outputs = iter([b"a", b"b", b"c", b"a", b"b", b"x"])  # the last repeat differs
    seeds = []

    def fake_run(ew, seed, out):
        seeds.append(seed)
        return next(outputs), {"nonempty": True}

    monkeypatch.setitem(job.JOBS, "fake", (_FakeWorld, fake_run))
    result = job.run_ops("fake", 7, 6, tmp_path)
    assert seeds == [job.pipeline_seed(7, op) for op in range(6)] == [21, 22, 23, 21, 22, 23]
    assert len(result["setup_s"]) == len(result["job_s"]) == 6
    assert result["failed"] == 1 and result["world_digests"] == ["corpus"]
    assert result["obs"] == {"made": 6}


def test_batch_reps_do_not_depend_on_machine_speed():
    assert run.batch_reps("build", 20) == round(20 / run.BATCH_OP_S["build"])
    assert run.batch_reps("evaluate", 1) == job.INPUTS  # every input runs at least once


# ---- compare.py verdicts ----------------------------------------------------


@pytest.mark.parametrize(
    "old, new, better, expected",
    [
        ([10, 10.2, 9.9, 10.1, 10.0], [10.5, 10.4, 10.6, 10.5, 10.3], "lower", "unchanged"),
        ([10, 10.2, 9.9, 10.1, 10.0], [12.5, 12.4, 12.6, 12.5, 12.3], "lower", "regressed"),
        ([10, 10.2, 9.9, 10.1, 10.0], [8.5, 8.4, 8.6, 8.5, 8.3], "higher", "regressed"),
        ([10, 10.2, 9.9, 10.1, 10.0], [12.5, 12.4, 12.6, 12.5, 12.3], "higher", "unchanged"),
        # The parent's own spread exceeds the bound: unresolved unless every
        # new run beats every old run.
        ([8, 12, 9, 11, 10], [10.5, 10.4, 9.6, 10.5, 10.3], "lower", "unresolved"),
        ([8, 12, 9, 11, 10], [7.5, 7.4, 7.6, 7.5, 7.3], "lower", "unchanged"),
    ],
)
def test_compare_verdicts(old, new, better, expected):
    assert compare.verdict(old, new, 0.1, better) == expected


def test_spread_is_interquartile_range_over_median():
    assert compare.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert compare.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == pytest.approx(2.0 / 3.0)
    assert compare.spread([7.0]) == 0.0


# ---- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_is_self_consistent():
    spec = run.benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][1] == "bench/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    workloads = [w["name"] for w in spec["workloads"]]
    assert 2 <= len(workloads) <= 8 and tuple(workloads) == run.WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = workloads + [m["name"] for m in e2e + per_layer]
    assert len(names) == len(set(names))
    for metric in e2e + per_layer:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert all(set(m) == {"name", "unit", "better"} for m in per_layer)


def test_every_layer_metric_is_reported():
    """Each traced run reports exactly the declared layer metrics."""
    traced = {"totals": {}, "durations": {}, "values": {}, "requests": {}}
    reported = run.layer_metrics(traced, {}, {}, {"setup_s": 1.0, "p50_ms": 1.0})
    declared = [m["name"] for m in run.benchmark_spec()["per_layer"]]
    assert sorted(reported) == sorted(declared)
    # Every wrapped layer feeds at least one declared metric.
    for layer, _, _ in layers.TARGETS:
        assert any(name.startswith(layer + ".") for name in declared), layer


def test_digests_pin_every_workload():
    pins = json.loads((run.BENCH / "digests.json").read_text())
    assert pins["seed"] == run.DEFAULT_SEED
    for name in run.WORKLOADS:
        assert re.fullmatch(r"[0-9a-f]{64}", pins[name]["output_sha256"])
    for name in run.BATCH:
        assert re.fullmatch(r"[0-9a-f]{40}", pins[name]["world_digest"])
