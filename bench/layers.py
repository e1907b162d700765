"""Per-layer spans recorded from outside the program, for ``--trace 1`` runs.

:func:`install` replaces the public functions of each layer with timing
wrappers *where callers look them up* (a module global such as
``repro.serve.service.lint_patch`` or a class attribute such as
``World.patch_for``), so the program itself is unchanged.  Each wrapper
opens a span: name, start, end, parent span and the request's trace id
(read through :func:`repro.obs.current_trace` inside the server).  The
:class:`SpanLog` keeps spans in memory and folds every finished span into
per-layer totals: calls, busy time and self time (busy time minus the
part covered by child spans).  A layer re-entered while already open on
the same thread counts once, so busy time is never double counted.

Process pools fork their workers from a traced parent, so the wrappers are
inherited.  Every worker starts an empty log and writes its totals to a
file when it exits (a :class:`multiprocessing.util.Finalize` hook); the
parent adds those files to its own totals.  Functions that are pickled
into a pool are never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpanLog", "install", "TARGETS", "REQUEST_LAYERS"]

#: (layer, module, attribute) of every wrapped function.  The attribute is
#: the name callers resolve at call time: ``Class.method`` or a module
#: global imported into the calling module.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("corpus.build_world", "repro.analysis.experiments", "build_world"),
    ("corpus.patch_for", "repro.corpus.world", "World.patch_for"),
    ("nvd.crawl", "repro.nvd.crawler", "NvdCrawler.crawl"),
    ("features.extract", "repro.features.extractor", "FeatureExtractor.extract"),
    ("features.levenshtein", "repro.features.extractor", "levenshtein"),
    ("features.distance", "repro.features.normalize", "DistanceEngine.reset"),
    ("features.distance", "repro.features.normalize", "DistanceEngine.update"),
    ("features.distance", "repro.core.augmentation", "weighted_distance_matrix"),
    ("features.distance", "repro.core.baselines", "weighted_distance_matrix"),
    ("core.search", "repro.core.augmentation", "nearest_link_search"),
    ("core.search", "repro.core.baselines", "nearest_link_search"),
    ("core.verify", "repro.core.oracle", "VerificationOracle.verify_many"),
    ("core.verify", "repro.core.oracle", "VerificationOracle.verify"),
    ("core.categorize", "repro.analysis.experiments", "categorize_patch"),
    ("core.categorize", "repro.serve.service", "categorize_patch"),
    ("synthesis.synthesize", "repro.synthesis.engine", "PatchSynthesizer.synthesize"),
    ("core.patchdb.add", "repro.core.patchdb", "PatchDB.add"),
    ("core.patchdb.count", "repro.core.patchdb", "PatchDB.count"),
    ("core.patchdb.records", "repro.core.patchdb", "PatchDB.records"),
    ("core.render", "repro.core.index", "RecordRenderCache.mbox"),
    ("core.render", "repro.core.index", "RecordRenderCache.json_line"),
    ("ml.fit_many", "repro.analysis.experiments", "fit_many"),
    ("ml.fit_many", "repro.core.baselines", "fit_many"),
    ("ml.rnn.fit", "repro.ml.rnn", "RNNClassifier.fit"),
    ("ml.forest.fit", "repro.ml.forest", "RandomForestClassifier.fit"),
    ("ml.forest.predict", "repro.ml.forest", "RandomForestClassifier.predict_proba"),
    ("ml.tokenize", "repro.core.cache", "patch_token_sequence"),
    ("ml.tokenize", "repro.ml.rnn", "patch_token_sequence"),
    ("ml.tokenize", "repro.analysis.experiments", "patch_token_sequence"),
    ("patch.parse", "repro.serve.service", "parse_patch"),
    ("patch.parse", "repro.core.patchdb", "parse_patch"),
    ("patch.parse", "repro.nvd.crawler", "parse_patch"),
    ("staticcheck.lint_patch", "repro.serve.service", "lint_patch"),
    ("serve.classify", "repro.serve.service", "PatchDBService.classify"),
    ("serve.query", "repro.serve.service", "PatchDBService.query"),
    ("serve.stream", "repro.serve.http", "_Handler._stream_jsonl"),
    ("serve.telemetry", "repro.serve.service", "PatchDBService.record_request"),
    ("serve.telemetry", "repro.serve.telemetry", "ServeTelemetry.new_trace"),
)

#: Layers whose spans are one HTTP request's service-method time; their
#: durations are kept per trace id to split client latency into service
#: time and HTTP overhead.
REQUEST_LAYERS = frozenset({"serve.classify", "serve.query", "serve.stream"})

#: Layers whose every span duration is kept for percentiles.
DURATION_LAYERS = frozenset({"features.extract"})

#: Spans kept per thread for the trace file; totals keep counting past it.
MAX_SPANS = 100_000


class _Frame:
    __slots__ = ("layer", "span_id", "parent_id", "start", "child_s", "request_id")

    def __init__(self, layer: str, span_id: int, parent_id: int | None, request_id: str | None):
        self.layer = layer
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.child_s = 0.0
        self.start = time.perf_counter()


class _ThreadLog:
    """One thread's open spans and totals; only that thread writes it."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.open: set[str] = set()
        self.totals: dict[str, list[float]] = {}  # layer -> [calls, busy_s, self_s]
        self.durations: dict[str, list[float]] = {}
        self.requests: dict[str, float] = {}  # trace id -> service seconds
        self.values: dict[str, list[float]] = {}
        self.spans: list[tuple] = []


class SpanLog:
    """Spans and per-layer totals of one process.

    Args:
        worker_dir: where forked pool workers write their totals at exit.
        request_id: returns the active request's trace id (or ``None``).
    """

    def __init__(
        self, worker_dir: str | Path, request_id: Callable[[], str | None] = lambda: None
    ) -> None:
        self.worker_dir = Path(worker_dir)
        self.request_id = request_id
        self._reset()
        mp_util.register_after_fork(self, SpanLog._start_worker)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadLog] = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    def _start_worker(self) -> None:
        """In a freshly forked pool worker: drop the parent's state and
        dump this worker's totals when it exits."""
        self._reset()
        mp_util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(self.snapshot(spans=False)))

    def _thread(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._threads.append(log)
        return log

    # ---- recording ----------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """*fn* with a span around every outermost call of *layer*."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = self._thread()
            if layer in log.open:
                return fn(*args, **kwargs)
            parent = log.stack[-1] if log.stack else None
            frame = _Frame(
                layer,
                next(self._ids),
                parent.span_id if parent else None,
                self.request_id(),
            )
            log.stack.append(frame)
            log.open.add(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(log, frame)

        return traced

    def _close(self, log: _ThreadLog, frame: _Frame) -> None:
        end = time.perf_counter()
        duration = end - frame.start
        log.stack.pop()
        log.open.discard(frame.layer)
        if log.stack:
            log.stack[-1].child_s += duration
        total = log.totals.setdefault(frame.layer, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame.child_s
        if frame.layer in DURATION_LAYERS:
            log.durations.setdefault(frame.layer, []).append(duration)
        if frame.request_id is not None and frame.layer in REQUEST_LAYERS:
            log.requests[frame.request_id] = duration
        if len(log.spans) < MAX_SPANS:
            log.spans.append(
                (frame.span_id, frame.parent_id, frame.layer, frame.start, end, frame.request_id)
            )

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a named value (e.g. a batcher wait)."""
        self._thread().values.setdefault(name, []).append(value)

    # ---- reading ------------------------------------------------------------

    def snapshot(self, spans: bool = True) -> dict:
        """This process's totals (and spans) as JSON-ready data."""
        with self._lock:
            threads = list(self._threads)
        out: dict[str, Any] = {"totals": {}, "durations": {}, "requests": {}, "values": {}}
        for log in threads:
            _merge(out, vars(log))
            out["requests"].update(log.requests)
        if spans:
            out["spans"] = [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4], "request": s[5]}
                for log in threads
                for s in list(log.spans)
            ]
        return out

    def collect(self) -> dict:
        """This process's snapshot plus the totals of every pool worker
        that has exited."""
        out = self.snapshot()
        out["workers"] = 0
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            _merge(out, json.loads(path.read_text()))
            out["workers"] += 1
        return out


def _merge(out: dict, part: dict) -> None:
    """Add *part*'s per-layer totals and sample lists into *out*."""
    for layer, (calls, busy, self_s) in list(part["totals"].items()):
        acc = out["totals"].setdefault(layer, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += busy
        acc[2] += self_s
    for key in ("durations", "values"):
        for name, values in list(part[key].items()):
            out[key].setdefault(name, []).extend(values)


def install(log: SpanLog) -> None:
    """Wrap every function in :data:`TARGETS`, plus the classify batcher.

    Must run before the program creates any process pool, so forked
    workers inherit the wrappers.
    """
    for layer, module_name, attr in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, name, log.wrap(layer, getattr(owner, name)))
    _install_batcher(log)


def _install_batcher(log: SpanLog) -> None:
    """Time how long each classify request waits in the micro-batcher
    before its batch's model call starts."""
    from repro.serve.service import ClassifyBatcher

    submitted: dict[int, float] = {}
    submit, process = ClassifyBatcher.submit, ClassifyBatcher._process

    @functools.wraps(submit)
    def traced_submit(self, row):
        start = time.perf_counter()
        future = submit(self, row)
        submitted[id(future)] = start
        return future

    @functools.wraps(process)
    def traced_process(self, batch):
        start = time.perf_counter()
        for _, future, _ in batch:
            sent = submitted.pop(id(future), None)
            if sent is not None:
                log.observe("serve.batcher.wait", start - sent)
        return process(self, batch)

    ClassifyBatcher.submit = traced_submit
    ClassifyBatcher._process = traced_process
