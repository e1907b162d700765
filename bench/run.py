"""The PatchDB benchmark: four workloads, end-to-end and per-layer metrics.

Usage::

    python bench/run.py [--workload {build,evaluate,classify,query,all}]
                        [--seed N] [--seconds N] [--trace {0,1}]

Each workload runs in fresh processes, prints every metric by name with its
unit, checks that the program's outputs are correct, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same workload with
layer wrappers installed (see ``layers.py``) and reports the per-layer
metrics instead.  A wrong output makes the run exit with status 1.

Workloads (see README.md for why each exists):

* ``build``: ``repro build`` at TINY scale with two workers, repeated.
* ``evaluate``: Tables III and VI at TINY scale with two ML workers, repeated.
* ``classify``: ``repro serve`` at SMALL, fed unseen patches over HTTP.
* ``query``: the same server, fed a seeded mix of dataset queries.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qsl, urlencode, urlsplit

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

from job import INPUTS, vm_hwm_mb  # noqa: E402 - after the path set-up
from loadgen import Client, Phase, Request, run_until_complete  # noqa: E402

DEFAULT_SEED = 2021
#: Server launches per serve run; ``setup_s`` is the median of their times.
SETUPS = 5
#: Connections the load generator may hold open (the reference box's nproc).
CONNECTIONS = 2
#: Longest any child process may take.
CHILD_TIMEOUT_S = 150.0


#: Open-loop arrivals per second of each serve workload: an eighth of what
#: the server sustains with two connections on the reference box, as
#: ``capacity.py`` measured it (243 and 918 req/s; README.md, "Open-loop
#: rates").  Latency is then mostly service time: queueing would magnify
#: the machine's own speed swings into the percentiles.
SERVE_RATES = {"classify": 30.0, "query": 115.0}
#: Seconds one batch operation (set-up plus job) takes on the reference
#: box.  A batch run does ``--seconds`` worth of operations by this
#: measure, a count that does not depend on how fast the machine is, so
#: output digests and per-layer totals are comparable between runs.
BATCH_OP_S = {"build": 1.8, "evaluate": 3.0}
BATCH = tuple(BATCH_OP_S)
WORKLOADS = BATCH + tuple(SERVE_RATES)


def pct(values: list[float], q: float) -> float:
    """``numpy.percentile`` (linear), or 0.0 for no values."""
    return float(np.percentile(values, q)) if values else 0.0


class BenchError(RuntimeError):
    """A child process failed or the benchmark could not run."""


def load_pins() -> dict:
    """Output digests of the default seed (``digests.json``)."""
    return json.loads((BENCH / "digests.json").read_text())


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def run_job(args: list[str]) -> dict:
    """Run ``job.py`` with *args*; returns the JSON object it prints last."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job.py {' '.join(args)} did not end in time") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"job.py {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


class Server:
    """One ``bench/server.py`` process, from launch to its ``serving`` line."""

    def __init__(
        self,
        dataset: Path,
        log_path: Path,
        trace: Path | None = None,
        cpus: set[int] | None = None,
    ) -> None:
        cmd = [sys.executable, str(BENCH / "server.py"), str(dataset)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        self.log_path = log_path
        start = time.perf_counter()
        with log_path.open("w") as log:
            self.proc = subprocess.Popen(cmd, stderr=log, stdout=log)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        marker = "serving PatchDB on http://"
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with status {self.proc.returncode}:\n{text}")
            time.sleep(0.002)
        raise BenchError("server did not start in time")

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=30) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for it to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def source_digest() -> str:
    """Hash of the program and the benchmark's launchers: the key of the
    cached serve dataset, so another source tree never reuses it."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + [BENCH / "job.py", BENCH / "server.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_dataset() -> Path:
    """The SMALL world pickle, release and fitted model the server loads.

    Made once per source tree (about 45 s on the reference box) and kept
    under ``bench/out``; every later launch is a warm restart from it.
    """
    dataset = OUT / f"dataset-{source_digest()}"
    if (dataset / "READY").exists():
        return dataset
    for stale in OUT.glob("dataset-*"):  # other source trees' datasets
        shutil.rmtree(stale, ignore_errors=True)
    dataset.mkdir(parents=True)
    run_job(["dataset", "--out", str(dataset)])
    Server(dataset, dataset / "first-launch.log").stop()  # fits and saves model.pkl
    if not (dataset / "model.pkl").exists():
        raise BenchError("the first server launch did not save model.pkl")
    (dataset / "READY").write_text("")
    return dataset


# ---------------------------------------------------------------------------
# Request mixes
# ---------------------------------------------------------------------------


#: Seeded TINY-config worlds whose commits are the classify inputs; three
#: worlds (about 1350 patches) make the share of expensive patches, which
#: sets the tail latency, nearly the same for every seed.
CLASSIFY_WORLDS = 3


def classify_requests(seed: int) -> tuple[list[Request], list[str]]:
    """Every commit of ``CLASSIFY_WORLDS`` seeded TINY-config worlds,
    rendered as a patch.

    These are unseen by the served model.  Returns the requests and the
    sha each response must report.
    """
    from repro.analysis.experiments import TINY
    from repro.corpus.world import build_world
    from repro.patch.gitformat import render_mbox_patch

    requests, shas = [], []
    for k in range(CLASSIFY_WORLDS):
        world = build_world(TINY.world_config(seed * CLASSIFY_WORLDS + k))
        for sha in world.all_shas():
            patch = render_mbox_patch(world.patch_for(sha))
            requests.append(Request("POST", "/v1/classify", patch.encode("utf-8")))
            shas.append(sha)
    return requests, shas


#: Share of each query kind in the mix (sums to 100).  These are assumed,
#: not observed: no traffic of a deployed PatchDB service has been recorded.
#: They weight the cheap paged reads most and give each of the index, the
#: render cache and streaming a share large enough to move the percentiles.
QUERY_MIX = (("page", 35), ("filter", 20), ("point", 15), ("render", 20), ("stream", 10))
#: Distinct queries per run; every one is sent in the warm-up pass.
QUERY_DISTINCT = 4000


def query_requests(seed: int, release: Path) -> list[Request]:
    """A seeded mix of the query endpoint's access patterns over the served
    release: paged metadata, filtered pages (posting-list index), ``sha``
    and ``cve_id`` point lookups, pages with ``include_patch=1`` (render
    cache) and filtered JSONL streams."""
    records = [json.loads(line) for line in release.read_text().splitlines() if line]
    # Only security patches have a pattern type (1-12).
    typed = [r for r in records if r["pattern_type"] is not None]
    rng = random.Random(seed)
    n = len(records)
    kinds = [kind for kind, share in QUERY_MIX for _ in range(share)]
    out = []
    for _ in range(QUERY_DISTINCT):
        kind = rng.choice(kinds)
        rec = records[rng.randrange(n)]
        if kind == "page":
            params = {"limit": 20, "offset": rng.randrange(n - 20)}
        elif kind == "filter":
            variant = rng.randrange(3)
            if variant == 0:
                params = {"repo": rec["repo"], "is_security": int(rec["is_security"])}
            elif variant == 1:
                params = {"source": rec["source"], "is_security": int(rec["is_security"])}
            else:
                params = {"pattern_type": rng.choice(typed)["pattern_type"]}
            params.update(limit=20, offset=rng.randrange(3) * 20)
        elif kind == "point":
            if rec["cve_id"] and rng.random() < 0.5:
                params = {"cve_id": rec["cve_id"]}
            else:
                params = {"sha": rec["sha"]}
        elif kind == "render":
            params = {"limit": 5, "offset": rng.randrange(n - 5), "include_patch": 1}
        else:
            params = {"repo": rec["repo"], "source": rec["source"], "limit": 10}
        path = "/v1/patches.jsonl" if kind == "stream" else "/v1/patches"
        out.append(Request("GET", f"{path}?{urlencode(params)}"))
    return out


def query_body_valid(request: Request, body: bytes) -> bool:
    """Every returned record matches the request's filters and page size."""
    url = urlsplit(request.path)
    params = dict(parse_qsl(url.query))
    limit = int(params.pop("limit", 10**9))
    include_patch = params.pop("include_patch", None) is not None
    params.pop("offset", None)
    if url.path.endswith(".jsonl"):
        rows = [json.loads(line) for line in body.decode("utf-8").splitlines()]
    else:
        payload = json.loads(body)
        rows = payload["records"]
        if payload["count"] != len(rows):
            return False
    if len(rows) > limit or (include_patch and not all("patch_text" in r for r in rows)):
        return False
    if ("sha" in params or "cve_id" in params) and not rows:
        return False  # point lookups name records that exist
    for row in rows:
        for key, value in params.items():
            have = row[key]
            if key == "is_security":
                have = int(have)
            if str(have) != value:
                return False
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run measured, before metric selection."""

    attempted: int
    failed: int
    digest: str
    e2e: dict[str, float]
    info: dict[str, float | str]
    layers: dict[str, float] | None = None


def batch_reps(name: str, seconds: float) -> int:
    """Operations in a batch run of about *seconds* on the reference box."""
    return max(INPUTS, round(seconds / BATCH_OP_S[name]))


def run_batch(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> RunResult:
    """A batch workload's operations, in one fresh process.

    ``setup_s`` is the median time to construct an operation's world,
    ``p50_ms`` the median time of the job on it.
    """
    trace_file = scratch / "trace.json"
    args = [name, "--seed", str(seed), "--reps", str(batch_reps(name, seconds)),
            "--out", str(scratch)]
    job = run_job(args + (["--trace", str(trace_file)] if trace else []))
    failed = job["failed"]
    if job["world_digests"] != [load_pins()[name]["world_digest"]]:
        failed = len(job["job_s"])
    e2e = {
        "setup_s": statistics.median(job["setup_s"]),
        "p50_ms": statistics.median(job["job_s"]) * 1000.0,
        "peak_rss_mb": job["peak_rss_mb"],
    }
    info = {
        "world_digests": " ".join(job["world_digests"]),
        "operations": len(job["job_s"]),
        "job_s_total": sum(job["job_s"]),
    }
    layers = None
    if trace:
        layers = layer_metrics(json.loads(trace_file.read_text()), job["obs"], {}, e2e)
    return RunResult(len(job["job_s"]), failed, job["output_sha256"], e2e, info, layers)


async def drive(client: Client, rate: float, seed: int, seconds: float) -> tuple[Phase, Phase]:
    """The warm-up pass, then *seconds* of open loop."""
    warm = await client.warmup()
    opened = await client.open_loop(
        rate, seconds, random.Random(seed), slots=CONNECTIONS, drain_s=5.0
    )
    return warm, opened


def serve_requests(
    name: str, seed: int, dataset: Path
) -> tuple[list[Request], Callable[[int, bytes], bool]]:
    """A serve workload's distinct requests, and the check of the warm-up
    reply to request *i*."""
    if name == "classify":
        requests, shas = classify_requests(seed)

        def valid(i: int, body: bytes) -> bool:
            return json.loads(body)["sha"] == shas[i]

    else:
        requests = query_requests(seed, dataset / "patchdb.jsonl")

        def valid(i: int, body: bytes) -> bool:
            return query_body_valid(requests[i], body)

    return requests, valid


def split_cpus() -> set[int] | None:
    """Keep this process (the generator) on the first CPU and return the
    last one for the server, when there are two or more, so the generator
    never takes CPU from the server."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return {cpus[-1]}


def run_serve(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> RunResult:
    """Launch the server ``SETUPS`` times (keeping the last), then load it:
    every distinct request once, then the open loop."""
    dataset = ensure_dataset()
    requests, valid = serve_requests(name, seed, dataset)
    trace_file = scratch / "trace.json"
    server_cpus = split_cpus()
    setups = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        server = Server(
            dataset, scratch / f"server-{i}.log", trace_file if trace and last else None, server_cpus
        )
        setups.append(server.setup_s)
        if not last:
            server.stop()
    try:
        client = Client(server.host, server.port, requests, trace_prefix=f"{seed & 0xFFFFFFFF:08x}")
        # A collection in the generator would stall it mid-request and read
        # as server latency.
        gc.collect()
        gc.disable()
        try:
            warm, opened = run_until_complete(drive(client, SERVE_RATES[name], seed, seconds))
        finally:
            gc.enable()
        statsz = server.get_json("/statsz")
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        server.stop()

    for o in warm.outcomes:  # later replies are checked against these bodies
        if o.ok and not valid(o.index, client.reference[o.index]):
            o.ok = False
    bad_reference = {o.index for o in warm.outcomes if not o.ok}
    for o in opened.outcomes:
        if o.index in bad_reference:
            o.ok = False
    digest = hashlib.sha256(
        b"".join(hashlib.sha256(body or b"").digest() for body in client.reference)
    ).hexdigest()
    open_ms = [o.latency_s * 1000.0 for o in opened.outcomes if o.ok]
    e2e = {
        "setup_s": statistics.median(setups),
        "p50_ms": pct(open_ms, 50),
        "peak_rss_mb": rss,
    }
    late_ms = [(o.sent - o.due) * 1000.0 for o in opened.outcomes if o.sent >= 0]
    # The tail is printed, not gated: it moves with the machine (README.md).
    info = {
        "warmup_s": warm.duration_s,
        "open_samples": len(open_ms),
        "p90_ms": pct(open_ms, 90),
        "p95_ms": pct(open_ms, 95),
        "p99_ms": pct(open_ms, 99),
        "late_p95_ms": pct(late_ms, 95),
        "distinct_requests": len(requests),
    }
    layers = None
    if trace:
        traced = json.loads(trace_file.read_text())
        load_info = {
            "late_p95_ms": info["late_p95_ms"],
            "sent": float(sum(o.sent >= 0 for o in opened.outcomes)),
            "completed": float(sum(o.done >= 0 for o in opened.outcomes)),
            # One connection, nothing queued: client time minus service time
            # is the HTTP layer's own cost.
            "overhead_ms": [
                (o.service_s - traced["requests"][o.trace_id]) * 1000.0
                for o in warm.outcomes
                if o.ok and o.trace_id in traced["requests"]
            ],
            "batch_size_mean": _ratio(
                statsz["counters"].get("classify_batched_requests", 0),
                statsz["counters"].get("classify_batches", 0),
            ),
        }
        layers = layer_metrics(traced, statsz["counters"], load_info, e2e)
    attempted = len(warm.outcomes) + len(opened.outcomes)
    return RunResult(attempted, warm.failed + opened.failed, digest, e2e, info, layers)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, counters: dict, load: dict, e2e: dict) -> dict[str, float]:
    """Every per-layer metric from one traced run.

    *traced* is a :meth:`layers.SpanLog.collect` payload, *counters* the
    program's own obs counters (the job's registry or ``/statsz``), *load*
    the load generator's numbers (empty for batch workloads) and *e2e* the
    traced run's own end-to-end numbers, kept so the tracing overhead can be
    read off against an untraced run.
    """
    totals = traced["totals"]

    def calls(layer: str) -> float:
        return float(totals.get(layer, [0, 0.0, 0.0])[0])

    def busy(layer: str) -> float:
        return totals.get(layer, [0, 0.0, 0.0])[1]

    def self_s(layer: str) -> float:
        return totals.get(layer, [0, 0.0, 0.0])[2]

    def ratio(hit: str, other: str) -> float:
        hits = counters.get(hit, 0)
        return _ratio(hits, hits + counters.get(other, 0))

    values = traced["values"]
    out = {
        "corpus.build_world.s": busy("corpus.build_world"),
        "corpus.patch_for.calls": calls("corpus.patch_for"),
        "corpus.patch_for.s": busy("corpus.patch_for"),
        "nvd.crawl.s": busy("nvd.crawl"),
        "features.extract.calls": calls("features.extract"),
        "features.extract.s": busy("features.extract"),
        "features.extract.p99_ms": pct(traced["durations"].get("features.extract", []), 99)
        * 1000.0,
        "features.levenshtein.calls": calls("features.levenshtein"),
        "features.levenshtein.s": busy("features.levenshtein"),
        "features.distance.s": busy("features.distance"),
        "core.feature_cache.hit_ratio": ratio("vector_cache_hits", "vectors_extracted"),
        "core.search.s": busy("core.search"),
        "core.verify.s": busy("core.verify"),
        "core.categorize.calls": calls("core.categorize"),
        "core.categorize.s": busy("core.categorize"),
        "synthesis.synthesize.calls": calls("synthesis.synthesize"),
        "synthesis.synthesize.s": busy("synthesis.synthesize"),
        "core.patchdb.add.s": busy("core.patchdb.add"),
        "core.patchdb.count.s": busy("core.patchdb.count"),
        "core.patchdb.records.s": busy("core.patchdb.records"),
        "core.index.hit_ratio": ratio("index.hit", "index.fallback"),
        "core.render.s": busy("core.render"),
        "core.render_cache.hit_ratio": ratio("render_cache.hit", "render_cache.miss"),
        "ml.fit_many.s": busy("ml.fit_many"),
        "ml.rnn.fit.s": busy("ml.rnn.fit"),
        "ml.forest.fit.s": busy("ml.forest.fit"),
        "ml.tokenize.s": busy("ml.tokenize"),
        "ml.forest.predict.calls": calls("ml.forest.predict"),
        "ml.forest.predict.s": busy("ml.forest.predict"),
        "patch.parse.calls": calls("patch.parse"),
        "patch.parse.s": busy("patch.parse"),
        "staticcheck.lint_patch.calls": calls("staticcheck.lint_patch"),
        "staticcheck.lint_patch.s": busy("staticcheck.lint_patch"),
        "serve.classify.self_s": self_s("serve.classify"),
        "serve.batcher.wait_p50_ms": pct(values.get("serve.batcher.wait", []), 50) * 1000.0,
        "serve.batcher.batch_size_mean": load.get("batch_size_mean", 0.0),
        "serve.query.self_s": self_s("serve.query"),
        "serve.stream.s": busy("serve.stream"),
        "serve.telemetry.s": busy("serve.telemetry"),
        "serve.http.overhead_p50_ms": pct(load.get("overhead_ms", []), 50),
        "loadgen.late_p95_ms": load.get("late_p95_ms", 0.0),
        "loadgen.sent": load.get("sent", 0.0),
        "loadgen.completed": load.get("completed", 0.0),
        "trace.spans": sum(float(t[0]) for t in totals.values()),
        "trace.setup_s": e2e["setup_s"],
        "trace.p50_ms": e2e["p50_ms"],
    }
    return out


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    """One run of one workload; returns the result object and whether the
    outputs were correct."""
    scratch = OUT / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        runner = run_batch if name in BATCH else run_serve
        result = runner(name, seed, seconds, trace, scratch)
        if trace:
            spans = OUT / f"trace-{name}-{seed}.json"
            shutil.copyfile(scratch / "trace.json", spans)
            result.info["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    pins = load_pins()
    pinned = pins[name]["output_sha256"] if seed == pins["seed"] else None
    digest_ok = pinned is None or result.digest == pinned
    failed = result.attempted if not digest_ok else result.failed
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = result.layers if trace else result.e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"# workload={name} seed={seed} trace={int(trace)}")
    print(f"# output_sha256 = {result.digest}")
    if pinned is None:
        print(f"# pin = none for seed {seed}")
    else:
        print(f"# pin = {'match' if digest_ok else 'MISMATCH, pinned ' + pinned}")
    for key, value in result.info.items():
        print(f"# {key} = {value}")
    for metric, entry in metrics.items():
        print(f"{metric:<32s} {entry['value']:>16.6f} {entry['unit']}")
    correct = failed == 0
    return {
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": metrics,
    }, correct


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh ``run.py`` process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
            timeout=4 * CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            raise BenchError(f"workload {name} printed no result (status {proc.returncode})")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, correct = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
