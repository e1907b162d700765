"""The framework-independent service core behind ``python -m repro serve``.

:class:`PatchDBService` owns everything the HTTP layer exposes: a built
:class:`~repro.analysis.experiments.ExperimentWorld`, the
:class:`~repro.core.patchdb.PatchDB` it serves, and a persisted
:class:`~repro.ml.model_cache.FittedModelCache` holding the classify-on-
demand model.  The HTTP handler in :mod:`repro.serve.http` is a thin
translation layer over this class, so every endpoint is equally usable as a
plain method call (tests drive both).

Three design points:

* **One query surface.**  Every record-returning entry point takes a
  :class:`~repro.core.query.PatchQuery`; the HTTP layer parses query
  strings into the same object the CLI and library use, so filter
  semantics cannot drift between access paths.
* **No per-request training.**  :meth:`warm` fits (or loads) the classify
  model exactly once, keyed by the sha of the served training set.  With a
  persisted model cache, a restart against the same dataset loads the
  pickle and never calls ``fit`` at all.
* **Group-commit classification.**  Concurrent classify requests share
  one model lock in :class:`ClassifyBatcher`: the request thread holding it
  stacks every queued feature row into a single ``decision_scores`` call,
  so a lone request predicts at once and requests that pile up behind a
  running call go together in the next one.  Per-row predictions are
  independent, so batched responses are bit-identical to serial ones.
* **One live registry.**  Every per-request observation (HTTP counters,
  latency histograms, dataset index/render-cache hits, lint and batcher
  counters) goes to the one bounded registry a
  :class:`~repro.serve.telemetry.ServeTelemetry` guards with one lock, so
  counts from concurrent handler threads are exact and a week-long server
  never grows its histograms.  Request traces (:class:`~repro.obs.TraceContext`)
  thread from the HTTP handler through query/classify/lint down into the
  index, render cache, model cache, and the batcher's group model call,
  even when another request's thread runs it; finished traces land in a
  bounded store exportable as ``repro-run-manifest-v1`` JSONL
  (``/v1/traces`` → ``python -m repro trace``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Iterator

import numpy as np

from ..analysis.experiments import ExperimentWorld
from ..core.categorize import categorize_patch
from ..core.patchdb import PatchDB, PatchRecord
from ..core.query import PatchQuery
from ..corpus.vulnpatterns import PATTERN_NAMES
from ..errors import ReproError
from ..features.extractor import extract_features
from ..features.vector import FEATURE_NAMES
from ..ml import RandomForestClassifier
from ..ml.model_cache import FittedModelCache, training_key
from ..obs import ObsRegistry, TraceContext, current_trace_site, trace_span
from ..patch.gitformat import parse_patch
from ..staticcheck import lint_patch
from .telemetry import ServeTelemetry

__all__ = ["ClassifyBatcher", "PatchDBService", "MODEL_CONFIG"]

#: Hyperparameters of the served classifier; part of the model cache key,
#: so changing them can never serve a stale fit.
MODEL_CONFIG = {
    "estimator": "RandomForestClassifier",
    "n_estimators": 40,
    "max_depth": 14,
    "features": "table1-60-contextfree",
}


class ClassifyBatcher:
    """Group-commits concurrent single-row predictions into stacked calls.

    :meth:`submit` appends a row to a pending list; :meth:`commit` takes
    the model lock, drains up to ``max_batch`` pending rows into one
    ``predict_batch`` call, and repeats until the caller's own row is
    resolved.  A lone request therefore predicts at once on its own thread;
    requests that arrive while a call runs queue behind the lock and go
    together in the next call — batching under load with no timer and no
    worker thread.  Per-row predictions are independent, so a batched
    response is bit-identical to the serial one.

    Args:
        predict_batch: ``(N, F) matrix -> (N,) probabilities`` callable.
        max_batch: largest batch assembled per model call.
        obs: registry for ``classify_batches`` / ``classify_batched_requests``
            counters and the per-batch ``classify_batch`` size histogram.
    """

    def __init__(
        self,
        predict_batch: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 64,
        obs: ObsRegistry | None = None,
    ) -> None:
        self._predict = predict_batch
        self._max_batch = max(1, max_batch)
        self.obs = obs if obs is not None else ObsRegistry()
        # Any thread appends; only the model-lock holder pops.
        self._pending: deque = deque()
        self._model_lock = threading.Lock()
        self._closed = False

    def submit(self, row: np.ndarray) -> "Future[float]":
        """Queue one feature row; :meth:`commit` resolves its future.

        The caller's active trace site (if any) is captured with the row:
        whichever thread runs the group's model call attaches a
        ``model.predict`` span to each member's trace, so every request
        trace shows the prediction it was part of.
        """
        if self._closed:
            raise ReproError("ClassifyBatcher is closed")
        future: Future[float] = Future()
        self._pending.append((row, future, current_trace_site()))
        return future

    def commit(self, future: "Future[float]") -> float:
        """Run queued groups on this thread until *future* is resolved, and
        return its probability (or raise its model call's exception).

        Every future of a group is resolved before the lock is released,
        even when the group's model call raises.
        """
        with self._model_lock:
            while not future.done():
                pending = self._pending
                batch = [pending.popleft() for _ in range(min(len(pending), self._max_batch))]
                if not batch:
                    raise ReproError("commit() of a future this batcher never queued")
                try:
                    self._process(batch)
                except Exception as exc:  # fail every member still unresolved
                    for _, member, _ in batch:
                        if not member.done():
                            member.set_exception(exc)
        return future.result()

    def close(self) -> None:
        """Reject further submissions (idempotent)."""
        self._closed = True

    def _process(
        self, batch: list[tuple[np.ndarray, "Future[float]", tuple[TraceContext, str | None] | None]]
    ) -> None:
        X = np.vstack([row for row, _, _ in batch])
        start = time.perf_counter()
        probs = self._predict(X)
        duration = time.perf_counter() - start
        # Stitch the shared model call into every member's trace before
        # resolving the futures, so a sampled trace read right after the
        # response always contains its predict span.
        for _, _, site in batch:
            if site is not None:
                trace, parent_id = site
                trace.add_span(
                    "model.predict",
                    parent_id,
                    start,
                    duration,
                    batch_size=len(batch),
                    batched=True,
                )
        for (_, future, _), p in zip(batch, probs):
            future.set_result(float(p))
        self.obs.add("classify_batches")
        self.obs.add("classify_batched_requests", len(batch))
        self.obs.observe("classify_batch", float(len(batch)))


def _record_meta(record: PatchRecord, patch_text: str | None = None) -> dict:
    """The JSON shape of one record on the query endpoint (metadata-first;
    the full patch text, rendered through the dataset's render cache, rides
    along only when the caller supplies it)."""
    out = {
        "sha": record.patch.sha,
        "repo": record.patch.repo,
        "source": record.source,
        "is_security": record.is_security,
        "pattern_type": record.pattern_type,
        "cve_id": record.cve_id,
        "subject": record.patch.subject,
        "files_changed": len(record.patch.files),
    }
    if patch_text is not None:
        out["patch_text"] = patch_text
    return out


class PatchDBService:
    """Query + classify + observability over one built world and dataset.

    Args:
        ew: the experiment world the dataset was built from (manifest,
            digest, and obs identity come from here).
        db: the PatchDB being served.
        model_cache: persisted fitted-model cache; a fresh in-memory one
            is created if omitted.
        obs: base registry (build-time history); defaults to ``ew.obs``.
            Per-request observations go to the telemetry registry, not
            here — ``/statsz`` merges both.
        max_batch: largest classify batch per model call.
        telemetry: live-telemetry bundle (locked registry + trace store); a
            default-configured one is created if omitted.  Pass
            ``ServeTelemetry(enabled=False)`` for the zero-instrumentation
            baseline of the paired overhead test
            (``benchmarks/test_obs_overhead.py``).
    """

    def __init__(
        self,
        ew: ExperimentWorld,
        db: PatchDB,
        model_cache: FittedModelCache | None = None,
        obs: ObsRegistry | None = None,
        max_batch: int = 64,
        telemetry: ServeTelemetry | None = None,
    ) -> None:
        self.ew = ew
        self.db = db
        self.obs = obs if obs is not None else ew.obs
        self.telemetry = telemetry if telemetry is not None else ServeTelemetry()
        # Every per-request write goes to the telemetry's locked registry,
        # which /statsz and /metrics fold together with the base one.
        # Dataset index/render-cache hits, model-cache and lint counters,
        # and the batcher's stats all record there.
        db.rebind_obs(self.telemetry)
        self.models = model_cache if model_cache is not None else FittedModelCache()
        self.models.obs = self.telemetry
        self._records: list[PatchRecord] = db.records()
        self._max_batch = max_batch
        self._model: RandomForestClassifier | None = None
        self._model_key: str | None = None
        self._model_was_cached: bool | None = None
        self._batcher: ClassifyBatcher | None = None
        self._started_unix = time.time()
        self._lock = threading.Lock()

    # ---- model warm-up ----------------------------------------------------

    def _training_set(self) -> tuple[list[PatchRecord], list[int]]:
        """The natural (non-synthetic) records and their labels."""
        natural = [r for r in self._records if r.source != "synthetic"]
        return natural, [int(r.is_security) for r in natural]

    def warm(self) -> dict:
        """Fit or load the classify model and build its batcher.

        The model is keyed by the sha256 of the served training set (sorted
        ``(sha, label)`` pairs) plus :data:`MODEL_CONFIG`, so a cache hit is
        guaranteed to be the fit this exact dataset would produce; on a hit
        no feature extraction or training happens at all.  Returns a
        warm-up summary for the startup log and the manifest.
        """
        natural, labels = self._training_set()
        if not natural:
            raise ReproError("cannot warm the classify model: dataset has no natural records")
        key = training_key([r.patch.sha for r in natural], labels, MODEL_CONFIG)
        before = len(self.models)

        def fit() -> RandomForestClassifier:
            X = np.vstack([extract_features(r.patch) for r in natural])
            y = np.array(labels)
            model = RandomForestClassifier(
                n_estimators=MODEL_CONFIG["n_estimators"],
                max_depth=MODEL_CONFIG["max_depth"],
                seed=self.ew.seed,
                obs=self.obs,
            )
            model.fit(X, y)
            return model

        start = time.perf_counter()
        model = self.models.get_or_fit(key, fit)
        with self._lock:
            self._model = model
            self._model_key = key
            self._model_was_cached = len(self.models) == before
            if self._batcher is not None:
                self._batcher.close()
            self._batcher = ClassifyBatcher(
                model.decision_scores,
                max_batch=self._max_batch,
                obs=self.telemetry,
            )
        return {
            "model_key": key,
            "cached": self._model_was_cached,
            "n_train": len(natural),
            "warm_s": round(time.perf_counter() - start, 3),
        }

    @property
    def model_key(self) -> str | None:
        """The training-set sha key of the active model (None before warm)."""
        return self._model_key

    def close(self) -> None:
        """Retire the classify batcher (idempotent)."""
        with self._lock:
            if self._batcher is not None:
                self._batcher.close()
                self._batcher = None

    # ---- query ------------------------------------------------------------

    def query(self, query: PatchQuery, include_patch: bool = False) -> dict:
        """The paginated query endpoint: metadata rows + match accounting.

        Both the match count and the page come from the dataset's
        posting-list index (O(smallest posting list), not O(N)); requested
        patch text is served from the render-once cache.
        """
        with self.telemetry.timer("serve.query"), trace_span(
            "service.query", include_patch=include_patch
        ):
            with trace_span("query.count"):
                total = self.db.count(query)
            with trace_span("query.page"):
                rows = [
                    _record_meta(r, self.db.record_mbox(r) if include_patch else None)
                    for r in self.db.records(query)
                ]
        return {
            "query": query.to_dict(),
            "total_matching": total,
            "count": len(rows),
            "records": rows,
        }

    def query_stream(self, query: PatchQuery) -> Iterator[str]:
        """Matching records as JSONL lines (full ``git format-patch`` text).

        The same one-record-at-a-time shape as
        :meth:`~repro.core.patchdb.PatchDB.write_jsonl`, so arbitrarily
        large responses stream in constant memory on the wire; each line
        renders at most once ever (the render cache is shared with
        :meth:`query` and :meth:`~repro.core.patchdb.PatchDB.save_jsonl`),
        so repeated streams of the same records cost bytes-out only.
        """
        for record in self.db.records(query):
            yield self.db.record_json(record) + "\n"

    # ---- classify ---------------------------------------------------------

    def classify(self, patch_text: str, batched: bool = True) -> dict:
        """Feature-extract + categorize + lint + model-classify one patch.

        Args:
            patch_text: a ``git format-patch``/unified-diff body.
            batched: route the prediction through the group-commit batcher
                (the HTTP path); ``False`` predicts inline — results are
                bit-identical, which the parity tests assert.

        Raises:
            ReproError: unparsable patch (HTTP 400) or un-warmed service.
        """
        with self._lock:
            model, batcher = self._model, self._batcher
        if model is None:
            raise ReproError("service is not warmed: no classify model loaded")
        with self.telemetry.timer("serve.classify"), trace_span("service.classify"):
            with trace_span("patch.parse"):
                patch = parse_patch(patch_text)
            with trace_span("features.extract"):
                vec = extract_features(patch)
            if batched and batcher is not None:
                # Whichever thread runs the group's model call attaches the
                # model.predict child span via the site captured in submit().
                with trace_span("classify.batch"):
                    prob = batcher.commit(batcher.submit(vec))
            else:
                with trace_span("model.predict", batched=False):
                    prob = float(model.decision_scores(vec[np.newaxis, :])[0])
            with trace_span("categorize"):
                pattern = categorize_patch(patch)
            with trace_span("lint.patch"):
                lint = lint_patch(patch, obs=self.telemetry)
        findings = lint.findings()
        return {
            "sha": patch.sha,
            "subject": patch.subject,
            "files_changed": len(patch.files),
            "is_security": bool(prob >= 0.5),
            "security_probability": prob,
            "pattern_type": pattern,
            "pattern_name": PATTERN_NAMES[pattern],
            "lint": {
                "n_findings": len(findings),
                "by_checker": lint.counts_by_checker(),
                "findings": [f.render() for f in findings[:25]],
            },
            "features": {
                name: float(v)
                for name, v in zip(FEATURE_NAMES, vec)
                if v != 0
            },
            "model_key": self._model_key,
        }

    # ---- lint -------------------------------------------------------------

    def lint(self, patch_text: str) -> dict:
        """Run the static-analysis suite over one patch's post-image.

        Unlike :meth:`classify` this needs no warmed model — it is pure
        analysis, usable the moment the service is constructed.  Findings
        carry their stable ids so callers can build ``lint --baseline``
        files straight from the endpoint.

        Raises:
            ReproError: unparsable patch (HTTP 400).
        """
        with self.telemetry.timer("serve.lint"), trace_span("service.lint"):
            self.telemetry.add("lint.request")
            with trace_span("patch.parse"):
                patch = parse_patch(patch_text)
            with trace_span("lint.patch"):
                report = lint_patch(patch, obs=self.telemetry)
        findings = report.findings()
        self.telemetry.add("lint.findings", len(findings))
        return {
            "sha": patch.sha,
            "subject": patch.subject,
            "files_changed": len(patch.files),
            "n_findings": len(findings),
            "by_checker": report.counts_by_checker(),
            "findings": [f.to_dict() for f in findings],
        }

    # ---- observability ----------------------------------------------------

    def healthz(self) -> dict:
        """Liveness: records served, model state, uptime, rolling latency.

        The per-endpoint block (p50/p95/p99 over the histogram windows,
        exact request counts and error rates) comes from the telemetry
        stats cache, so polling ``/healthz`` at high rate pays the merge
        at most twice a second.
        """
        return self._health(self.telemetry.endpoint_stats() if self.telemetry.enabled else None)

    def _health(self, endpoints: dict | None) -> dict:
        """The ``/healthz`` payload around an already computed endpoint
        table (``None`` when telemetry is off)."""
        out = {
            "status": "ok",
            "records": len(self._records),
            "model_warm": self._model is not None,
            "uptime_s": round(time.time() - self._started_unix, 3),
        }
        if endpoints is not None:
            out["endpoints"] = endpoints
        return out

    def summary(self) -> dict:
        """The dataset's headline counts (the ``stats`` CLI view)."""
        return {"summary": self.db.summary()}

    def manifest(self) -> dict:
        """The run manifest of the served world + serving identity."""
        return self.ew.manifest(
            command="serve",
            records=len(self._records),
            model_key=self._model_key,
            model_cached=self._model_was_cached,
        )

    def statsz(self) -> dict:
        """Machine-readable telemetry: merged registry + service identity.

        The payload folds the base registry (build/warm history) together
        with the live one, plus the rolling per-endpoint latency table and
        trace-store occupancy.  The ``service`` block is :meth:`healthz`
        over the same endpoint table, so the registries merge once.
        """
        endpoints = None
        if self.telemetry.enabled:
            merged = self.telemetry.merged(self.obs)
            payload = merged.to_dict()
            endpoints = payload["endpoints"] = self.telemetry.endpoint_stats(merged)
            payload["traces"] = self.telemetry.traces.info()
        else:
            payload = self.obs.to_dict()
        payload["service"] = self._health(endpoints)
        return payload

    def metrics_text(self) -> str:
        """The Prometheus text exposition served on ``/metrics``."""
        gauges = {
            "records": float(len(self._records)),
            "model_warm": 1.0 if self._model is not None else 0.0,
            "model_cached": 1.0 if self._model_was_cached else 0.0,
        }
        return self.telemetry.metrics_text(base=self.obs, gauges=gauges)

    def traces_jsonl(self, trace_id: str | None = None) -> str:
        """Sampled request traces as ``repro-run-manifest-v1`` JSONL.

        Optionally filtered to one trace id; the output feeds straight
        into ``python -m repro trace`` (via ``--url`` or a saved file).
        """
        store = self.telemetry.traces
        entries = store.entries()
        if trace_id:
            entries = [e for e in entries if e.trace.trace_id == trace_id]
        return store.export_jsonl(
            entries,
            manifest={"records": len(self._records), "model_key": self._model_key},
        )

    def counter(self, name: str) -> int:
        """One counter's merged value across the base and live registries
        (what ``/statsz`` would report for it)."""
        return self.obs.count(name) + self.telemetry.count(name)

    def record_request(
        self,
        endpoint: str,
        status: int,
        elapsed_s: float,
        trace: TraceContext | None = None,
    ) -> None:
        """Fold one HTTP request into the live registry and sample its
        trace into the store."""
        self.telemetry.record_request(endpoint, status, elapsed_s, trace=trace)
