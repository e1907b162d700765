"""Live telemetry for the serve layer: one locked registry, traces, /metrics.

Three pieces turn the batch-shaped :mod:`repro.obs` registry into a
long-running server's instrumentation, all bounded in memory:

* :class:`ServeTelemetry` owns one bounded :class:`~repro.obs.ObsRegistry`
  behind one lock and implements the registry's write surface
  (``add``/``observe``/``timer``) over it, so the dataset index, render
  cache, model cache, linter and classify batcher record straight into
  it.  A timer holds the lock only to book its elapsed time, and
  :meth:`ServeTelemetry.record_request` takes it once for a request's whole
  batch of writes; reads copy a snapshot taken under the lock.  The
  registry keeps a histogram window and a span cap, so per-request
  observations can never grow a week-long server's memory.
* :class:`TraceStore` — a bounded sample of finished request traces
  (:class:`~repro.obs.TraceContext` trees): the first *head* requests, a
  ring of the last *tail*, and a min-heap of the *slow* slowest requests
  over a latency threshold.  The stored traces export as the existing
  ``repro-run-manifest-v1`` JSONL (:meth:`TraceStore.export_jsonl`), so
  ``python -m repro trace`` renders live production requests exactly like
  batch runs.
* :func:`render_metrics` — Prometheus text exposition (version 0.0.4)
  over a merged registry: one ``repro_http_requests_total`` counter per
  (endpoint, status family), a fixed-bucket
  ``repro_http_request_duration_seconds`` histogram per endpoint whose
  ``_count``/``_sum`` are exact (the histogram window evicts raw values,
  never the running count/total), gauges for service identity, and every
  merged obs counter as ``repro_counter_total``.  :func:`parse_exposition`
  is the matching grammar checker — the HTTP tests and the hypothesis
  law tests both gate on it.

:class:`~repro.serve.service.PatchDBService` serves the merged views
(its base registry plus the live one) behind ``/statsz``, ``/healthz`` and
``/metrics``.
"""

from __future__ import annotations

import heapq
import json
import re
import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from ..obs import ObsRegistry, TraceContext, histogram_stats, nearest_rank

__all__ = [
    "LATENCY_BUCKETS",
    "ServeTelemetry",
    "TraceEntry",
    "TraceStore",
    "parse_exposition",
    "render_metrics",
    "window_quantiles",
]

#: Fixed latency histogram bucket upper bounds, in seconds (an +Inf bucket
#: is implicit).  Fixed at import time so bucket counters add up across
#: scrapes.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Counter-name prefixes the hot path writes per request; the render and
#: rolling-stats readers parse them back out of the merged registry.
_STATUS_PREFIX = "http_status."
_BUCKET_PREFIX = "http_bucket."
#: Histogram-name prefix of per-endpoint request latencies.
_LATENCY_PREFIX = "serve.http."

#: Span nodes a registry of the serve layer retains: merged views copy the
#: base registry's build spans, so they are capped too.
SPAN_CAP = 256
#: Span budget of each request's trace.
MAX_SPANS_PER_TRACE = 128
#: :class:`TraceStore` sample sizes the CLI does not set: the first
#: requests served, and the slowest ones over the threshold.
TRACE_HEAD = 32
TRACE_SLOW = 64


def window_quantiles(values: list[float], qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict[str, float]:
    """Nearest-rank quantiles of a (windowed) observation list.

    Same estimator as :func:`repro.obs.histogram_stats`, extended to p99
    for the rolling endpoint view; returns zeros on an empty window.
    """
    if not values:
        return {f"p{int(q * 100)}": 0.0 for q in qs}
    ordered = sorted(values)
    return {f"p{int(q * 100)}": nearest_rank(ordered, q) for q in qs}


@dataclass(slots=True)
class TraceEntry:
    """One finished request in the trace store."""

    trace: TraceContext
    endpoint: str
    status: int
    duration_s: float
    seq: int = 0

    def summary(self) -> dict[str, Any]:
        """The JSON row of a trace listing (no spans)."""
        return {
            "trace_id": self.trace.trace_id,
            "endpoint": self.endpoint,
            "status": self.status,
            "duration_s": self.duration_s,
            "started_unix": self.trace.started_unix,
            "n_spans": len(self.trace),
            "spans_dropped": self.trace.dropped,
        }


class TraceStore:
    """Bounded head/tail/slow sample of finished request traces.

    Sampling policy (all three run concurrently, all bounded):

    * **head** — the first *head* requests ever served (startup behavior).
    * **tail** — a ring of the last *tail* requests (what is happening now).
    * **slow** — the *slow* slowest requests at or above
      *slow_threshold_s* (a min-heap, so the fastest of the "slow" set is
      evicted first — the store converges on the worst offenders).

    A request may qualify for more than one set; exports deduplicate by
    arrival order.  Total retained traces ≤ head + tail + slow, each trace
    itself span-capped — a week of traffic cannot grow the store.
    """

    def __init__(
        self,
        head: int = 32,
        tail: int = 256,
        slow: int = 64,
        slow_threshold_s: float = 0.25,
    ) -> None:
        self.head_cap = max(0, head)
        self.tail_cap = max(0, tail)
        self.slow_cap = max(0, slow)
        self.slow_threshold_s = slow_threshold_s
        self._lock = threading.Lock()
        self._head: list[TraceEntry] = []
        self._tail: deque[TraceEntry] = deque(maxlen=self.tail_cap or 1)
        self._slow: list[tuple[float, int, TraceEntry]] = []
        self._seen = 0

    def offer(self, entry: TraceEntry) -> None:
        """Record one finished request (cheap: one short lock, no render)."""
        with self._lock:
            self._seen += 1
            entry.seq = self._seen
            if len(self._head) < self.head_cap:
                self._head.append(entry)
            if self.tail_cap:
                self._tail.append(entry)
            if self.slow_cap and entry.duration_s >= self.slow_threshold_s:
                heapq.heappush(self._slow, (entry.duration_s, entry.seq, entry))
                if len(self._slow) > self.slow_cap:
                    heapq.heappop(self._slow)

    # ---- read access ------------------------------------------------------

    @property
    def seen(self) -> int:
        """Total requests ever offered (sampled or not)."""
        with self._lock:
            return self._seen

    def entries(self) -> list[TraceEntry]:
        """Every retained trace, deduplicated, in arrival order."""
        with self._lock:
            combined = list(self._head) + list(self._tail) + [e for _, _, e in self._slow]
        seen: set[int] = set()
        out = []
        for entry in sorted(combined, key=lambda e: e.seq):
            if entry.seq not in seen:
                seen.add(entry.seq)
                out.append(entry)
        return out

    def get(self, trace_id: str) -> TraceEntry | None:
        """The retained entry with this trace id, if still sampled."""
        for entry in self.entries():
            if entry.trace.trace_id == trace_id:
                return entry
        return None

    def info(self) -> dict[str, Any]:
        """Store occupancy for ``/statsz``."""
        with self._lock:
            return {
                "seen": self._seen,
                "head": len(self._head),
                "tail": len(self._tail),
                "slow": len(self._slow),
                "slow_threshold_s": self.slow_threshold_s,
            }

    # ---- export -----------------------------------------------------------

    def export_jsonl(
        self,
        entries: list[TraceEntry] | None = None,
        manifest: dict[str, Any] | None = None,
    ) -> str:
        """The retained traces as ``repro-run-manifest-v1`` JSONL text.

        Line 1 is a manifest record, then every trace's spans with ids
        remapped into one shared namespace (each request's root span stays
        a root, stamped with its ``trace_id``), then a ``summary`` record
        aggregating per-span-name timers over the exported spans — the
        exact shape :func:`repro.trace.load_trace` parses, so live
        requests render through ``python -m repro trace`` unchanged.
        """
        if entries is None:
            entries = self.entries()
        head = {
            "type": "manifest",
            "format": "repro-run-manifest-v1",
            "command": "serve-traces",
            "created_unix": time.time(),
            "traces": len(entries),
            "requests_seen": self.seen,
        }
        head.update(manifest or {})
        lines = [json.dumps(head, sort_keys=True)]
        timers: dict[str, float] = {}
        calls: dict[str, int] = {}
        hists: dict[str, list[float]] = {}
        offset = 0
        n_spans = 0
        for entry in entries:
            dicts = entry.trace.span_dicts(id_offset=offset)
            for d in dicts:
                lines.append(json.dumps(d, sort_keys=True))
                if d["duration"] >= 0:
                    name = d["name"]
                    timers[name] = timers.get(name, 0.0) + d["duration"]
                    calls[name] = calls.get(name, 0) + 1
                    hists.setdefault(name, []).append(d["duration"])
            offset += len(dicts)
            n_spans += len(dicts)
        summary = {
            "type": "summary",
            "format": "repro-obs-stats-v1",
            "timers": dict(sorted(timers.items())),
            "timer_calls": dict(sorted(calls.items())),
            "counters": {"traces_exported": len(entries)},
            "histograms": {name: histogram_stats(v) for name, v in sorted(hists.items())},
            "n_spans": n_spans,
        }
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    """An obs counter name as a legal Prometheus label value component."""
    clean = _SANITIZE_RE.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def bucket_label(index: int) -> str:
    """The ``le`` label of bucket *index* (``len(LATENCY_BUCKETS)`` = +Inf)."""
    if index >= len(LATENCY_BUCKETS):
        return "+Inf"
    return format(LATENCY_BUCKETS[index], "g")


def bucket_index(elapsed_s: float) -> int:
    """The index of the first bucket whose bound is ≥ *elapsed_s*."""
    return bisect_left(LATENCY_BUCKETS, elapsed_s)


def _endpoint_rollup(merged: ObsRegistry) -> dict[str, dict[str, Any]]:
    """Per-endpoint request/status/bucket/latency facts from the merged
    registry's counter and histogram names."""
    out: dict[str, dict[str, Any]] = {}

    def slot(endpoint: str) -> dict[str, Any]:
        return out.setdefault(
            endpoint, {"families": {}, "buckets": {}, "count": 0, "sum": 0.0, "window": []}
        )

    for name, value in merged.counters.items():
        if name.startswith(_STATUS_PREFIX):
            endpoint, _, family = name[len(_STATUS_PREFIX) :].rpartition(".")
            if endpoint:
                slot(endpoint)["families"][family] = value
        elif name.startswith(_BUCKET_PREFIX):
            endpoint, _, idx = name[len(_BUCKET_PREFIX) :].rpartition(".")
            if endpoint and idx.isdigit():
                slot(endpoint)["buckets"][int(idx)] = value
    for name in merged.histograms:
        if name.startswith(_LATENCY_PREFIX):
            endpoint = name[len(_LATENCY_PREFIX) :]
            s = slot(endpoint)
            s["count"] = merged.hist_count(name)
            s["sum"] = merged.hist_total(name)
            s["window"] = merged.histograms[name]
    return out


def render_metrics(
    merged: ObsRegistry,
    gauges: dict[str, float] | None = None,
) -> str:
    """Prometheus text exposition (format 0.0.4) of a merged registry.

    Emits, in order: per-endpoint request counters by status family,
    per-endpoint fixed-bucket latency histograms (cumulative buckets,
    exact ``_count``/``_sum``), caller-supplied gauges, and every merged
    obs counter under ``repro_counter_total``.  Output is deterministic
    (sorted label sets) so scrapes diff cleanly.
    """
    rollup = _endpoint_rollup(merged)
    lines: list[str] = []

    lines.append("# HELP repro_http_requests_total HTTP requests served, by endpoint and status family.")
    lines.append("# TYPE repro_http_requests_total counter")
    for endpoint in sorted(rollup):
        for family in sorted(rollup[endpoint]["families"]):
            value = rollup[endpoint]["families"][family]
            lines.append(
                f'repro_http_requests_total{{endpoint="{_escape_label(endpoint)}",'
                f'family="{_escape_label(family)}"}} {_fmt_value(value)}'
            )

    lines.append(
        "# HELP repro_http_request_duration_seconds Request latency, fixed buckets per endpoint."
    )
    lines.append("# TYPE repro_http_request_duration_seconds histogram")
    for endpoint in sorted(rollup):
        facts = rollup[endpoint]
        if not facts["buckets"] and not facts["count"]:
            continue
        label = _escape_label(endpoint)
        cumulative = 0
        for i in range(len(LATENCY_BUCKETS)):
            cumulative += facts["buckets"].get(i, 0)
            lines.append(
                f'repro_http_request_duration_seconds_bucket{{endpoint="{label}",'
                f'le="{bucket_label(i)}"}} {cumulative}'
            )
        total = sum(facts["buckets"].values())
        lines.append(
            f'repro_http_request_duration_seconds_bucket{{endpoint="{label}",le="+Inf"}} {total}'
        )
        lines.append(
            f'repro_http_request_duration_seconds_count{{endpoint="{label}"}} {facts["count"]}'
        )
        lines.append(
            f'repro_http_request_duration_seconds_sum{{endpoint="{label}"}} '
            f"{_fmt_value(facts['sum'])}"
        )

    for name in sorted(gauges or {}):
        metric = f"repro_{_metric_name(name)}"
        lines.append(f"# HELP {metric} Service gauge {name}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_value((gauges or {})[name])}")

    lines.append("# HELP repro_counter_total Merged observability counters, by name.")
    lines.append("# TYPE repro_counter_total counter")
    for name, value in sorted(merged.counters.items()):
        lines.append(
            f'repro_counter_total{{name="{_escape_label(name)}"}} {_fmt_value(value)}'
        )
    return "\n".join(lines) + "\n"


#: One exposition line: metric name, optional label set, value.  The label
#: block must skip quoted strings wholesale — a raw ``}`` is legal inside a
#: quoted label value (only ``\\``, ``"`` and newline are escaped), so the
#: closing brace is the first ``}`` *outside* quotes, not the first overall.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[^\"}]|\"(?:[^\"\\]|\\.)*\")*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse Prometheus text exposition; raises ``ValueError`` on any
    grammar violation.

    Returns ``{metric name: [(labels, value), ...]}``.  This is the gate
    the hypothesis law tests and the CI smoke job run over ``/metrics``:
    every non-comment line must match the name/label/value grammar, label
    sets must re-parse exactly, and values must be floats (``+Inf``/
    ``NaN`` allowed).
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    # Exposition lines are \n-delimited only; str.splitlines would also
    # split on control characters (\x1c-\x1e, \x85, ...) that are legal
    # raw bytes inside label values.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: not a valid sample line: {line!r}")
        labels: dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            consumed = 0
            while consumed < len(raw):
                lm = _LABEL_RE.match(raw, consumed)
                if lm is None:
                    raise ValueError(f"line {lineno}: malformed label set: {raw!r}")
                labels[lm.group(1)] = lm.group(2)
                consumed = lm.end()
                if consumed < len(raw) and raw[consumed] == ",":
                    consumed += 1
        value_text = m.group("value")
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(value_text)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad sample value {value_text!r}") from exc
        samples.setdefault(m.group("name"), []).append((labels, value))
    if not samples:
        raise ValueError("no samples in exposition")
    return samples


# ---------------------------------------------------------------------------
# The service-facing bundle.
# ---------------------------------------------------------------------------

#: Accepted inbound trace ids: 8–64 hex chars / dashes (uuid-shaped).
_TRACE_ID_RE = re.compile(r"^[0-9a-fA-F-]{8,64}$")


class ServeTelemetry:
    """Request-scoped tracing + one locked live registry for one service.

    Implements the :class:`~repro.obs.ObsRegistry` write surface (``add``,
    ``observe``, ``timer``) over its registry, so the service hands it
    down as the ``obs`` of everything it serves through.

    Args:
        enabled: ``False`` disables everything — no traces, no registry
            writes, no lock taken — the baseline of the paired telemetry
            on/off test in ``benchmarks/test_obs_overhead.py``.
        hist_window: histogram window (raw latency samples kept per
            histogram; exact count/total always preserved).
        trace_tail / slow_threshold_s: the :class:`TraceStore` ring size
            and slow-request threshold.
    """

    TRACE_HEADER = "X-Repro-Trace-Id"

    def __init__(
        self,
        enabled: bool = True,
        hist_window: int = 1024,
        trace_tail: int = 256,
        slow_threshold_s: float = 0.25,
    ) -> None:
        self.enabled = enabled
        self.hist_window = hist_window
        self._obs = ObsRegistry(enabled=enabled, hist_window=hist_window, span_cap=SPAN_CAP)
        self._lock = threading.Lock()
        self.traces = TraceStore(
            head=TRACE_HEAD, tail=trace_tail, slow=TRACE_SLOW, slow_threshold_s=slow_threshold_s
        )
        self.started_unix = time.time()
        self._stats_cache: tuple[float, dict] | None = None
        self._stats_lock = threading.Lock()
        #: (endpoint, family, bucket) -> pre-formatted counter names; the
        #: key space is tiny (endpoints x 5 families x 14 buckets) and the
        #: cache saves four string formats per request on the hot path.
        self._names: dict[tuple[str, str, int], tuple[str, str, str, str]] = {}

    # ---- write surface (ObsRegistry duck type) ----------------------------

    def add(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self._obs.add(name, amount)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self._obs.observe(name, value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the ``with`` body outside the lock; book it under the lock."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._obs._record(name, elapsed)

    def count(self, name: str) -> int:
        """Live value of one counter."""
        with self._lock:
            return self._obs.count(name)

    # ---- request lifecycle -------------------------------------------------

    def new_trace(self, header_value: str | None = None) -> TraceContext | None:
        """A trace for one inbound request; adopts a well-formed header id,
        generates otherwise.  ``None`` when telemetry is disabled."""
        if not self.enabled:
            return None
        trace_id = None
        if header_value and _TRACE_ID_RE.match(header_value.strip()):
            trace_id = header_value.strip().lower()
        return TraceContext(trace_id=trace_id, max_spans=MAX_SPANS_PER_TRACE)

    def record_request(
        self,
        endpoint: str,
        status: int,
        elapsed_s: float,
        trace: TraceContext | None = None,
    ) -> None:
        """Fold one finished request into the registry (one lock hold for
        all of its writes) and offer its trace to the bounded store."""
        if not self.enabled:
            return
        family = f"{min(max(status // 100, 1), 5)}xx"
        bucket = bucket_index(elapsed_s)
        names = self._names.get((endpoint, family, bucket))
        if names is None:
            names = (
                f"http_{endpoint}",
                f"{_STATUS_PREFIX}{endpoint}.{family}",
                f"{_BUCKET_PREFIX}{endpoint}.{bucket}",
                f"{_LATENCY_PREFIX}{endpoint}",
            )
            self._names[(endpoint, family, bucket)] = names
        obs = self._obs
        with self._lock:
            obs.add("http_requests")
            obs.add(names[0])
            if status >= 500:
                obs.add("http_5xx")
            elif status >= 400:
                obs.add("http_4xx")
            obs.add(names[1])
            obs.add(names[2])
            obs.observe(names[3], elapsed_s)
        if trace is not None:
            self.traces.offer(
                TraceEntry(trace=trace, endpoint=endpoint, status=status, duration_s=elapsed_s)
            )

    # ---- merged views ------------------------------------------------------

    def merged(self, base: ObsRegistry | None = None) -> ObsRegistry:
        """*base* (optional) plus the live registry, folded into one fresh
        bounded registry.

        Counters and histogram ``count``/``total`` are exact; histogram
        quantiles describe the last ``hist_window`` observations.  *base*
        is written only before serving, so it is read without the lock.
        """
        out = ObsRegistry(hist_window=self.hist_window, span_cap=SPAN_CAP)
        if base is not None:
            out.merge(base)
        with self._lock:
            live = self._obs.snapshot()
        out.merge(live)
        return out

    def endpoint_stats(
        self, merged: ObsRegistry | None = None, max_age_s: float = 0.5
    ) -> dict[str, dict[str, Any]]:
        """Rolling per-endpoint latency quantiles and error rates.

        Quantiles (p50/p95/p99) are nearest-rank over the histogram
        window — the most recent ``hist_window`` samples — while ``requests`` and ``error_rate`` are exact.  Results are
        cached for *max_age_s* so hot callers (``/healthz``) pay the merge
        at most twice a second; pass a pre-merged registry to bypass the
        cache (``/statsz`` does, keeping its sections consistent).
        """
        if merged is None:
            now = time.monotonic()
            with self._stats_lock:
                cached = self._stats_cache
                if cached is not None and now - cached[0] < max_age_s:
                    return cached[1]
            stats = self._compute_endpoint_stats(self.merged())
            with self._stats_lock:
                self._stats_cache = (time.monotonic(), stats)
            return stats
        return self._compute_endpoint_stats(merged)

    @staticmethod
    def _compute_endpoint_stats(merged: ObsRegistry) -> dict[str, dict[str, Any]]:
        out: dict[str, dict[str, Any]] = {}
        for endpoint, facts in _endpoint_rollup(merged).items():
            requests = sum(facts["families"].values())
            n_5xx = facts["families"].get("5xx", 0)
            n_4xx = facts["families"].get("4xx", 0)
            window = facts["window"]
            q = window_quantiles(window)
            out[endpoint] = {
                "requests": requests,
                "error_rate": (n_5xx / requests) if requests else 0.0,
                "rate_4xx": (n_4xx / requests) if requests else 0.0,
                "p50_ms": round(q["p50"] * 1e3, 3),
                "p95_ms": round(q["p95"] * 1e3, 3),
                "p99_ms": round(q["p99"] * 1e3, 3),
                "window": len(window),
            }
        return out

    def metrics_text(
        self, base: ObsRegistry | None = None, gauges: dict[str, float] | None = None
    ) -> str:
        """The ``/metrics`` payload over the merged registry."""
        merged = self.merged(base)
        all_gauges = {"uptime_seconds": time.time() - self.started_unix}
        all_gauges.update(gauges or {})
        all_gauges.setdefault("trace_store_size", float(len(self.traces.entries())))
        return render_metrics(merged, gauges=all_gauges)
