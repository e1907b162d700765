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
* :mod:`repro.serve.telemetry` — the one locked live registry, the bounded
  trace store, and the Prometheus exposition behind ``/metrics``.
* :mod:`repro.serve.http` — route translation, per-request trace
  propagation (``X-Repro-Trace-Id``), and the server itself.

The service is load-tested by the repository's committed benchmark
(``bench/run.py --workload classify|query``), not by code in this package.
"""

from .http import TRACE_HEADER, PatchDBServer, make_server
from .service import MODEL_CONFIG, ClassifyBatcher, PatchDBService
from .telemetry import (
    LATENCY_BUCKETS,
    ServeTelemetry,
    TraceStore,
    parse_exposition,
    render_metrics,
)

__all__ = [
    "ClassifyBatcher",
    "LATENCY_BUCKETS",
    "MODEL_CONFIG",
    "PatchDBServer",
    "PatchDBService",
    "ServeTelemetry",
    "TRACE_HEADER",
    "TraceStore",
    "make_server",
    "parse_exposition",
    "render_metrics",
]
