"""PatchDB as a long-running service.

The "millions of users" direction of the ROADMAP: a stdlib
:class:`~http.server.ThreadingHTTPServer` over a built experiment world
and its PatchDB, answering dataset queries (through the unified
:class:`~repro.core.query.PatchQuery` surface), streaming JSONL releases,
classifying submitted ``.patch`` bodies against a persisted fitted model
(no per-request training), and exposing its run manifest, merged live
telemetry, Prometheus ``/metrics``, and sampled request traces over
``/healthz``/``/statsz``/``/metrics``/``/v1/traces``.

Layering:

* :mod:`repro.serve.service` — the framework-independent core
  (:class:`PatchDBService`) plus the group-commit classify batcher.
* :mod:`repro.serve.telemetry` — per-thread shard registries, the bounded
  trace store, and the Prometheus exposition behind ``/metrics``.
* :mod:`repro.serve.http` — route translation, per-request trace
  propagation (``X-Repro-Trace-Id``), and the server itself.
* :mod:`repro.serve.bench` — the load generator behind ``bench-serve``
  and the CI smoke job (writes ``BENCH_serve.json``), plus the paired
  telemetry-overhead runner (``BENCH_serve_obs.json``).
"""

from .bench import (
    BenchEndpoint,
    EndpointResult,
    default_endpoints,
    run_load,
    run_overhead,
    selective_endpoints,
    write_bench,
)
from .http import TRACE_HEADER, PatchDBServer, make_server
from .service import MODEL_CONFIG, ClassifyBatcher, PatchDBService
from .telemetry import (
    LATENCY_BUCKETS,
    ServeTelemetry,
    ShardedObs,
    TraceStore,
    parse_exposition,
    render_metrics,
)

__all__ = [
    "BenchEndpoint",
    "ClassifyBatcher",
    "EndpointResult",
    "LATENCY_BUCKETS",
    "MODEL_CONFIG",
    "PatchDBServer",
    "PatchDBService",
    "ServeTelemetry",
    "ShardedObs",
    "TRACE_HEADER",
    "TraceStore",
    "default_endpoints",
    "make_server",
    "parse_exposition",
    "render_metrics",
    "run_load",
    "run_overhead",
    "selective_endpoints",
    "write_bench",
]
