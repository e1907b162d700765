"""The stdlib HTTP layer over :class:`~repro.serve.service.PatchDBService`.

A :class:`ThreadingHTTPServer` (one thread per connection, no new
dependencies) translating routes to service methods:

====================  ======  ==================================================
``/healthz``          GET     liveness + model state + rolling endpoint latency
``/statsz``           GET     merged obs summary (timers/counters/histograms)
``/metrics``          GET     Prometheus text exposition (format 0.0.4)
``/v1/manifest``      GET     run manifest of the served world
``/v1/summary``       GET     dataset headline counts
``/v1/patches``       GET     paginated metadata query (``PatchQuery`` params)
``/v1/patches.jsonl`` GET     streaming JSONL of full records (same params)
``/v1/traces``        GET     sampled request traces as run-manifest JSONL
``/v1/classify``      POST    ``.patch`` body -> features+categorize+lint+model
``/v1/lint``          POST    ``.patch`` body -> findings JSON with stable ids
====================  ======  ==================================================

Query strings parse into the same :class:`~repro.core.query.PatchQuery`
the library uses, so HTTP filters cannot drift from the programmatic API;
parse errors surface as JSON 400s.  The JSONL endpoint writes one record
per line as it is produced (the connection close delimits the stream), so
responses of any size run in constant memory at both ends.

Every request gets a trace: the handler adopts a well-formed
``X-Repro-Trace-Id`` request header (or generates an id), opens the root
``http.<endpoint>`` span, and activates it for the handler thread so the
service/index/model spans below parent correctly.  The id is echoed in
the ``X-Repro-Trace-Id`` response header on **every** response — 200s,
400s, 404s, 500s, and streams — so callers can always correlate a
response with its sampled trace on ``/v1/traces``.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from ..errors import ReproError
from ..core.query import PatchQuery, QueryError, parse_bool
from ..obs import activate_trace, deactivate_trace, trace_span
from .service import PatchDBService

__all__ = ["PatchDBServer", "make_server", "TRACE_HEADER"]

#: Request/response header carrying the request's trace id.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Largest accepted POST request body (a .patch file), in bytes.
MAX_BODY_BYTES = 4 * 1024 * 1024


class PatchDBServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`PatchDBService`."""

    daemon_threads = True
    #: Lets tests and the CLI bind port 0 and restart quickly.
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: PatchDBService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def make_server(
    service: PatchDBService, host: str = "127.0.0.1", port: int = 0
) -> PatchDBServer:
    """Bind a server for *service*; ``port=0`` picks a free port.

    The caller drives ``serve_forever()`` (the CLI does so on the main
    thread; tests run it on a daemon thread and ``shutdown()`` it).
    """
    return PatchDBServer((host, port), service)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"

    # ---- plumbing ---------------------------------------------------------

    @property
    def service(self) -> PatchDBService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        """Per-request stderr logging is obs's job, not the socket layer's."""

    def _send_trace_header(self) -> None:
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header(TRACE_HEADER, trace_id)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._record_outcome(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self._send_trace_header()
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self._record_outcome(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._send_trace_header()
        self.end_headers()
        self.wfile.write(body)

    def _begin(self, endpoint: str, method: str) -> None:
        """Open this request's trace (adopting the inbound header id if
        well-formed), activate it on the handler thread, and start the
        request's clock."""
        self._endpoint = endpoint
        self._recorded = False
        self._trace = None
        self._trace_token = None
        self._root_span = None
        self._trace_id = None
        trace = self.service.telemetry.new_trace(self.headers.get(TRACE_HEADER))
        if trace is not None:
            self._trace = trace
            self._trace_id = trace.trace_id
            root = trace.start_span(f"http.{endpoint}", method=method, path=self.path[:200])
            self._root_span = root
            self._trace_token = activate_trace(trace, root.span_id if root else None)
        self._started = time.perf_counter()

    def _record_outcome(self, status: int) -> None:
        """Fold this request into telemetry exactly once.

        Called just *before* the response bytes go out (from ``_send_json``
        / ``_send_text``), so a client that has received a response always
        finds it counted in a subsequent ``/statsz`` read — no racing the
        handler thread.  The call at the end of each ``do_*`` is the
        fallback for paths that never sent a body (broken pipes, streams,
        send failures) and is a no-op when already recorded.
        """
        if getattr(self, "_recorded", True):
            return
        self._recorded = True
        trace = self._trace
        if trace is not None:
            if self._root_span is not None:
                self._root_span.attributes["status"] = status
                trace.end_span(self._root_span)
            deactivate_trace(self._trace_token)
            self._trace = None
            self._trace_token = None
            self._root_span = None
        self.service.record_request(
            self._endpoint, status, time.perf_counter() - self._started, trace=trace
        )

    def _query(self, raw_query: str) -> PatchQuery:
        params = dict(parse_qsl(raw_query, keep_blank_values=True))
        include = params.pop("include_patch", "").strip()
        query = PatchQuery.from_params(params)
        self._include_patch = bool(include) and parse_bool("include_patch", include)
        return query

    # ---- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler protocol
        url = urlsplit(self.path)
        route = url.path.rstrip("/") or "/"
        endpoint = {
            "/healthz": "healthz",
            "/statsz": "statsz",
            "/metrics": "metrics",
            "/v1/manifest": "manifest",
            "/v1/summary": "summary",
            "/v1/patches": "query",
            "/v1/patches.jsonl": "stream",
            "/v1/traces": "traces",
        }.get(route)
        self._begin(endpoint or "unknown", "GET")
        if endpoint is None:
            self._send_json(404, {"error": f"no such endpoint: {url.path}"})
            return
        status = 200
        try:
            if endpoint == "healthz":
                self._send_json(200, self.service.healthz())
            elif endpoint == "statsz":
                self._send_json(200, self.service.statsz())
            elif endpoint == "metrics":
                self._send_text(
                    200,
                    self.service.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif endpoint == "traces":
                params = dict(parse_qsl(url.query, keep_blank_values=True))
                self._send_text(
                    200,
                    self.service.traces_jsonl(params.get("trace_id") or None),
                    "application/x-ndjson",
                )
            elif endpoint == "manifest":
                self._send_json(200, self.service.manifest())
            elif endpoint == "summary":
                self._send_json(200, self.service.summary())
            elif endpoint == "query":
                query = self._query(url.query)
                self._send_json(200, self.service.query(query, self._include_patch))
            else:  # stream
                query = self._query(url.query)
                self._stream_jsonl(query)
        except QueryError as exc:
            status = 400
            self._send_json(status, {"error": str(exc)})
        except BrokenPipeError:
            status = 499  # client went away mid-stream; nothing to send
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            status = 500
            try:
                self._send_json(status, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass
        self._record_outcome(status)

    #: POST routes: endpoint name + the service method the body goes to.
    _POST_ROUTES = {
        "/v1/classify": ("classify", "classify"),
        "/v1/lint": ("lint", "lint"),
    }

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler protocol
        route = urlsplit(self.path).path.rstrip("/")
        entry = self._POST_ROUTES.get(route)
        self._begin(entry[0] if entry else "unknown", "POST")
        if entry is None:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        endpoint, method = entry
        status = 200
        try:
            raw_length = self.headers.get("Content-Length") or "0"
            try:
                length = int(raw_length)
            except ValueError:
                raise QueryError(f"invalid Content-Length: {raw_length!r}") from None
            if length <= 0:
                raise QueryError(f"{endpoint} requires a non-empty .patch request body")
            if length > MAX_BODY_BYTES:
                raise QueryError(f"request body exceeds {MAX_BODY_BYTES} bytes")
            body = self.rfile.read(length).decode("utf-8", errors="replace")
            self._send_json(200, getattr(self.service, method)(body))
        except QueryError as exc:
            status = 400
            self._send_json(status, {"error": str(exc)})
        except ReproError as exc:
            # Unparsable patch, un-warmed model: the request is at fault.
            status = 400
            self._send_json(status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            status = 500
            try:
                self._send_json(status, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass
        self._record_outcome(status)

    # ---- streaming --------------------------------------------------------

    def _stream_jsonl(self, query: PatchQuery) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self._send_trace_header()
        self.end_headers()
        with trace_span("service.stream") as sp:
            n = 0
            for line in self.service.query_stream(query):
                self.wfile.write(line.encode("utf-8"))
                n += 1
            if sp is not None:
                sp.attributes["records"] = n
        self.wfile.flush()
