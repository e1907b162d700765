"""Observability: spans, wall-time phases, counters, and latency histograms.

One :class:`ObsRegistry` is threaded through the hot paths — feature
extraction and tokenization (:class:`~repro.core.cache.CommitCache`), the
incremental distance engine
(:class:`~repro.features.normalize.DistanceEngine`), the augmentation
loop, model training (:func:`~repro.ml.fit_many`,
:class:`~repro.ml.RandomForestClassifier`), and the linter
(:func:`~repro.staticcheck.lint_sources`) — so a CLI run or benchmark can
answer "where did the time go" without a profiler.

Three recording primitives build on each other:

* :meth:`ObsRegistry.timer` — a flat wall-time phase.  Each ``with`` body
  adds to the phase's total seconds and call count and appends one latency
  observation to the phase's histogram, so per-item phases (``extract``,
  ``tokenize``, ``lint``, ``rf_tree``) report p50/p95/max, not just sums.
* :meth:`ObsRegistry.add` — a monotonic integer counter.
* :meth:`ObsRegistry.span` — a *hierarchical* phase.  A span nests under
  the currently active span, carries arbitrary attributes
  (``obs.span("augment.round", round=3)``), records a node in the span
  tree for trace export, and still feeds the flat timer of the same name,
  so every ``timer``-based consumer keeps working when a call site is
  upgraded to a span.

**Cross-process merge protocol.**  Process-pool workers cannot write to the
parent's registry, so :func:`repro.parallel.map_chunks` — the one process
pool behind world construction, the commit cache, ``fit_many``, the
random forest, ``lint_sources``, and autofix — has each
worker chunk record into a fresh local registry and pickle a
:meth:`snapshot` back with the chunk result; the parent folds them in with
:meth:`merge` in deterministic chunk order once the pool has finished (the
serial path records straight into the caller's registry).  Merging adds
timer seconds/calls and counters, concatenates histogram observations, and
grafts any worker spans under the parent's active span — so serial and
parallel runs report *identical* counters and timer call counts.  Merge is
associative and commutative on counters and on histogram multisets
(property-tested in ``tests/test_obs_merge.py``).

**Export.**  :meth:`to_dict` is the machine-readable summary behind the CLI
``--stats-json`` flag; :meth:`export_trace` writes a JSONL trace (manifest
record, one record per span, summary record) that ``python -m repro trace``
renders back into a span tree (see :mod:`repro.trace`).

Phase timer names in use: ``extract``, ``extract_parallel``, ``distance``,
``search``, ``verify``, ``tokenize``, ``tokenize_parallel``, ``fit``,
``fit_parallel``, ``rf_tree``, ``rf_tree_parallel``, ``lint``,
``lint_parallel``, ``autofix.file``, ``autofix_parallel``, ``gate``,
``delta``, ``world.shard``, ``world_build_parallel`` (each ``*_parallel``
timer is one :func:`~repro.parallel.map_chunks` pool attempt).
Counter names in use: ``world_commits_attempted``,
``world_commits_produced``, ``world_commits_skipped_no_c_paths``,
``world_commits_skipped_exhausted``, ``world_outline_full``,
``world_outline_incremental``, ``world_outline_fallback``,
``world_outline_unparsable`` (how each text the world builder's generators
read was outlined; see :func:`repro.corpus.mutate.function_spans`),
``vectors_extracted``, ``vector_cache_hits``, ``distance_cells_computed``,
``distance_cells_reused``, ``distance_full_recomputes``,
``distance_incremental_updates``, ``token_cache_hits``,
``token_cache_misses``, ``fits_serial``,
``fits_parallel``, ``rf_trees_serial``, ``rf_trees_parallel``,
``files_linted``, ``lint_findings``, ``lint_<checker>`` (one per checker
id, dashes as underscores), ``variant_equiv_checks``,
``variant_equiv_failures``, ``delta_vectors``, ``delta_blob_cache_hits``,
``index.hit`` (PatchDB queries served by the posting-list planner),
``render_cache.hit``, ``render_cache.miss`` (memoized record serializations),
``model_cache_hits``, ``model_cache_misses``, ``models_loaded``,
``pool_fallback.<name>`` (a :func:`~repro.parallel.map_chunks` pool that
could not start, lost a worker, or could not pickle a chunk, so ran
serially; ``<name>`` is the pool's timer prefix), ``cache.corrupt`` (an
unreadable persisted cache file treated as a cold cache), ``cache.stale``
(a readable one written under another format or by other code, also a cold
cache; see :mod:`repro.persist`).
"""

from __future__ import annotations

import json
import math
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "ObsRegistry",
    "ObsSnapshot",
    "SpanRecord",
    "TraceContext",
    "activate_trace",
    "current_trace",
    "current_trace_site",
    "deactivate_trace",
    "histogram_stats",
    "nearest_rank",
    "new_trace_id",
    "trace_span",
]

#: Attribute value types that survive JSON round-trips unchanged.
_ATTR_TYPES = (str, int, float, bool, type(None))


def _clean_attributes(attributes: dict[str, Any]) -> dict[str, Any]:
    """Coerce non-JSON-safe attribute values to their ``repr`` in place."""
    for key, value in attributes.items():
        if not isinstance(value, _ATTR_TYPES):
            attributes[key] = repr(value)
    return attributes


@dataclass(slots=True)
class SpanRecord:
    """One node of the span tree.

    Attributes:
        span_id: registry-local id (1-based, allocation order).
        parent_id: enclosing span's id, or ``None`` for a root span.
        name: span name (dotted-phase convention, e.g. ``augment.round``).
        attributes: caller-supplied key/value context.
        start: seconds since the registry epoch when the span opened.
        duration: wall seconds the span was open (-1.0 while still open).
    """

    span_id: int
    parent_id: int | None
    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    duration: float = -1.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``span`` record of a trace file)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attributes),
            "start": self.start,
            "duration": self.duration,
        }


@dataclass(slots=True)
class ObsSnapshot:
    """A picklable, mergeable copy of a registry's observations.

    This is what pool workers ship back to the parent: plain dicts and
    lists, no locks, no clocks.  ``spans`` uses the worker registry's local
    ids; :meth:`ObsRegistry.merge` remaps them into the receiving registry.
    """

    timers: dict[str, float] = field(default_factory=dict)
    timer_calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, list[float]] = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    #: Exact per-histogram observation counts/sums.  Empty for unbounded
    #: registries (there ``len``/``sum`` of the raw values are already
    #: exact); bounded (windowed) registries ship these so merges preserve
    #: true ``count``/``total`` even though old observations were evicted.
    hist_counts: dict[str, int] = field(default_factory=dict)
    hist_totals: dict[str, float] = field(default_factory=dict)
    spans_dropped: int = 0

    def exact_hist_count(self, name: str) -> int:
        """True observation count for one histogram (eviction-proof)."""
        n = self.hist_counts.get(name)
        return n if n is not None else len(self.histograms.get(name, ()))

    def exact_hist_total(self, name: str) -> float:
        """True observation sum for one histogram (eviction-proof)."""
        t = self.hist_totals.get(name)
        return t if t is not None else sum(self.histograms.get(name, ()))


def nearest_rank(ordered: list[float], q: float) -> float:
    """The nearest-rank *q*-quantile of a sorted, non-empty list — always
    an actually-observed value."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def histogram_stats(values: list[float]) -> dict[str, float]:
    """Summary stats of one latency histogram: count/total/mean/p50/p95/max.

    Percentiles use the nearest-rank method on the sorted observations
    (:func:`nearest_rank`), so every reported quantile is an
    actually-observed latency.
    """
    if not values:
        return {"count": 0, "total": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    ordered = sorted(values)
    n = len(ordered)
    total = sum(ordered)
    return {
        "count": n,
        "total": total,
        "mean": total / n,
        "p50": nearest_rank(ordered, 0.50),
        "p95": nearest_rank(ordered, 0.95),
        "max": ordered[-1],
    }


class ObsRegistry:
    """Accumulates spans, named wall-time phases, counters, and histograms.

    Args:
        enabled: when False every recording primitive is a no-op that still
            runs its ``with`` body — the baseline the instrumentation
            overhead benchmark compares against.
        hist_window: when set, each histogram keeps only the most recent
            *hist_window* raw observations (a ring window for quantiles)
            while exact running ``count``/``total`` are preserved — the
            serve-mode bound that keeps week-long servers from leaking.
            ``None`` (the default, batch-run mode) keeps every observation,
            byte-identical to the pre-windowing behavior.
        span_cap: when set, at most *span_cap* span nodes are retained;
            further spans still time their bodies (the flat timer keeps
            counting) but record no tree node, counted in
            ``spans_dropped``.  ``None`` keeps every span.
    """

    def __init__(
        self,
        enabled: bool = True,
        hist_window: int | None = None,
        span_cap: int | None = None,
    ) -> None:
        self.enabled = enabled
        self._hist_window = hist_window
        self._span_cap = span_cap
        self._timers: dict[str, float] = {}
        self._timer_calls: dict[str, int] = {}
        self._counters: dict[str, int] = {}
        self._hists: dict[str, list[float]] = {}
        self._hist_counts: dict[str, int] = {}
        self._hist_totals: dict[str, float] = {}
        self._spans: list[SpanRecord] = []
        self._spans_dropped = 0
        self._stack: list[int] = []
        self._next_span = 1
        self._epoch = time.perf_counter()

    # ---- recording --------------------------------------------------------

    def _observe_hist(self, name: str, value: float) -> None:
        values = self._hists.setdefault(name, [])
        values.append(value)
        window = self._hist_window
        if window is not None:
            self._hist_counts[name] = self._hist_counts.get(name, 0) + 1
            self._hist_totals[name] = self._hist_totals.get(name, 0.0) + value
            if len(values) > window:
                del values[: len(values) - window]

    def _record(self, name: str, elapsed: float) -> None:
        self._timers[name] = self._timers.get(name, 0.0) + elapsed
        self._timer_calls[name] = self._timer_calls.get(name, 0) + 1
        self._observe_hist(name, elapsed)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the ``with`` body under *name*.

        Feeds the flat phase total, the call count, and the phase's latency
        histogram; does not create a span node (per-item phases would drown
        the trace — use :meth:`span` for structural phases).
        """
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, time.perf_counter() - start)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator["SpanRecord | None"]:
        """Open a hierarchical span named *name* for the ``with`` body.

        The span nests under the currently active span (spans opened inside
        the body nest under this one), carries *attributes* into the trace,
        and on close also feeds the flat timer of the same name, so any
        existing ``timer`` consumer sees the span as a normal phase.

        Yields the open :class:`SpanRecord` (or ``None`` when disabled) so
        callers can attach attributes discovered mid-span::

            with obs.span("augment.round", round=3) as sp:
                ...
                sp.attributes["verified"] = len(verified)
        """
        if not self.enabled:
            yield None
            return
        if self._span_cap is not None and len(self._spans) >= self._span_cap:
            # Span budget exhausted (serve mode): keep the flat timing,
            # drop the tree node so a long-running server stays bounded.
            self._spans_dropped += 1
            start = time.perf_counter()
            try:
                yield None
            finally:
                self._record(name, time.perf_counter() - start)
            return
        _clean_attributes(attributes)
        record = SpanRecord(
            span_id=self._next_span,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            attributes=attributes,
            start=time.perf_counter() - self._epoch,
        )
        self._next_span += 1
        self._spans.append(record)
        self._stack.append(record.span_id)
        start = time.perf_counter()
        try:
            yield record
        finally:
            elapsed = time.perf_counter() - start
            record.duration = elapsed
            self._stack.pop()
            self._record(name, elapsed)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* by *amount*."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Append one observation to histogram *name* (no timer bookkeeping)."""
        if not self.enabled:
            return
        self._observe_hist(name, value)

    # ---- read access ------------------------------------------------------

    @property
    def timers(self) -> dict[str, float]:
        """Accumulated seconds per phase (a copy)."""
        return dict(self._timers)

    @property
    def timer_calls(self) -> dict[str, int]:
        """Completed ``timer``/``span`` bodies per phase (a copy)."""
        return dict(self._timer_calls)

    @property
    def counters(self) -> dict[str, int]:
        """Counter values (a copy)."""
        return dict(self._counters)

    @property
    def histograms(self) -> dict[str, list[float]]:
        """Raw latency observations per phase (a copy)."""
        return {name: list(values) for name, values in self._hists.items()}

    @property
    def spans(self) -> list[SpanRecord]:
        """Recorded spans in allocation order (a shallow copy)."""
        return list(self._spans)

    def seconds(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 if never timed)."""
        return self._timers.get(name, 0.0)

    def calls(self, name: str) -> int:
        """Completed timer/span bodies for one phase (0 if never timed)."""
        return self._timer_calls.get(name, 0)

    def count(self, name: str) -> int:
        """Value of one counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def hist_count(self, name: str) -> int:
        """Exact observation count of one histogram, eviction-proof."""
        n = self._hist_counts.get(name)
        return n if n is not None else len(self._hists.get(name, ()))

    def hist_total(self, name: str) -> float:
        """Exact observation sum of one histogram, eviction-proof."""
        t = self._hist_totals.get(name)
        return t if t is not None else sum(self._hists.get(name, ()))

    @property
    def spans_dropped(self) -> int:
        """Spans discarded by the ``span_cap`` bound (0 when uncapped)."""
        return self._spans_dropped

    def _one_hist_stats(self, name: str, values: list[float]) -> dict[str, float]:
        stats = histogram_stats(values)
        if self._hist_window is not None and name in self._hist_counts:
            # Quantiles come from the window; count/total/mean stay exact.
            n = self._hist_counts[name]
            total = self._hist_totals.get(name, 0.0)
            stats["count"] = n
            stats["total"] = total
            stats["mean"] = total / n if n else 0.0
        return stats

    def hist_stats(self) -> dict[str, dict[str, float]]:
        """Summary stats (count/total/mean/p50/p95/max) per histogram.

        For windowed registries the quantiles describe the retained window
        while ``count``/``total``/``mean`` stay exact over every
        observation ever made.
        """
        return {name: self._one_hist_stats(name, values) for name, values in self._hists.items()}

    def reset(self) -> None:
        """Zero every timer, counter, histogram, and span."""
        self._timers.clear()
        self._timer_calls.clear()
        self._counters.clear()
        self._hists.clear()
        self._hist_counts.clear()
        self._hist_totals.clear()
        self._spans.clear()
        self._spans_dropped = 0
        self._stack.clear()
        self._next_span = 1
        self._epoch = time.perf_counter()

    # ---- merge protocol ---------------------------------------------------

    def snapshot(self) -> ObsSnapshot:
        """A picklable copy of every observation (see :class:`ObsSnapshot`)."""
        return ObsSnapshot(
            timers=dict(self._timers),
            timer_calls=dict(self._timer_calls),
            counters=dict(self._counters),
            histograms={name: list(values) for name, values in self._hists.items()},
            spans=[
                SpanRecord(
                    span_id=s.span_id,
                    parent_id=s.parent_id,
                    name=s.name,
                    attributes=dict(s.attributes),
                    start=s.start,
                    duration=s.duration,
                )
                for s in self._spans
            ],
            hist_counts=dict(self._hist_counts),
            hist_totals=dict(self._hist_totals),
            spans_dropped=self._spans_dropped,
        )

    def merge(self, other: "ObsSnapshot | ObsRegistry") -> None:
        """Fold another registry's observations into this one.

        Timer seconds and counters add, call counts add, histograms
        concatenate (associative and commutative as multisets), and the
        other side's spans are appended with fresh ids — root spans of
        *other* are grafted under this registry's currently active span.
        Pool parents call this once per worker chunk, in ``pool.map``
        order, so repeated runs merge identically.
        """
        snap = other.snapshot() if isinstance(other, ObsRegistry) else other
        if not self.enabled:
            return
        for name, secs in snap.timers.items():
            self._timers[name] = self._timers.get(name, 0.0) + secs
        for name, calls in snap.timer_calls.items():
            self._timer_calls[name] = self._timer_calls.get(name, 0) + calls
        for name, value in snap.counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        window = self._hist_window
        for name, values in snap.histograms.items():
            target = self._hists.setdefault(name, [])
            target.extend(values)
            if window is not None:
                self._hist_counts[name] = (
                    self._hist_counts.get(name, 0) + snap.exact_hist_count(name)
                )
                self._hist_totals[name] = (
                    self._hist_totals.get(name, 0.0) + snap.exact_hist_total(name)
                )
                if len(target) > window:
                    del target[: len(target) - window]
        self._spans_dropped += snap.spans_dropped
        if snap.spans:
            offset = self._next_span - 1
            graft_parent = self._stack[-1] if self._stack else None
            for s in snap.spans:
                if self._span_cap is not None and len(self._spans) >= self._span_cap:
                    self._spans_dropped += 1
                    continue
                self._spans.append(
                    SpanRecord(
                        span_id=s.span_id + offset,
                        parent_id=s.parent_id + offset if s.parent_id is not None else graft_parent,
                        name=s.name,
                        attributes=dict(s.attributes),
                        start=s.start,
                        duration=s.duration,
                    )
                )
            self._next_span += len(snap.spans)

    # ---- export -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary: timers, call counts, counters, histograms.

        This is the payload behind the CLI ``--stats-json`` flag; histogram
        stats carry per-item latency quantiles, and ``timer_calls`` makes
        call counts machine-readable (they used to live only in
        :meth:`report`'s text).
        """
        out = {
            "format": "repro-obs-stats-v1",
            "timers": dict(sorted(self._timers.items())),
            "timer_calls": dict(sorted(self._timer_calls.items())),
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                name: self._one_hist_stats(name, v) for name, v in sorted(self._hists.items())
            },
            "n_spans": len(self._spans),
        }
        if self._span_cap is not None or self._hist_window is not None:
            # Only bounded (serve-mode) registries carry the drop counter;
            # batch-run payloads stay byte-identical to the unbounded era.
            out["spans_dropped"] = self._spans_dropped
        return out

    def export_trace(self, path: str | Path, manifest: dict[str, Any] | None = None) -> Path:
        """Write the run as a JSONL trace file; returns the path.

        Line 1 is the ``manifest`` record (caller-supplied run identity:
        seed, scale, world digest, wall clock — see
        :meth:`~repro.analysis.experiments.ExperimentWorld.manifest`), then
        one ``span`` record per span in allocation order, then a single
        ``summary`` record with the flat timers/calls/counters/histogram
        stats.  ``python -m repro trace <file>`` renders it back.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"type": "manifest", **(manifest or {})}, sort_keys=True)]
        lines.extend(json.dumps(s.to_dict(), sort_keys=True) for s in self._spans)
        summary = self.to_dict()
        lines.append(json.dumps({"type": "summary", **summary}, sort_keys=True))
        target.write_text("\n".join(lines) + "\n")
        return target

    def report(self) -> str:
        """Human-readable phase/counter table (histogram quantiles included)."""
        lines = []
        if self._timers:
            lines.append("phase timings:")
            for name in sorted(self._timers):
                line = (
                    f"  {name:>28s}: {self._timers[name]:9.3f}s"
                    f"  ({self._timer_calls[name]} calls)"
                )
                values = self._hists.get(name)
                if values and len(values) > 1:
                    stats = histogram_stats(values)
                    line += (
                        f"  p50={stats['p50'] * 1e3:.2f}ms"
                        f" p95={stats['p95'] * 1e3:.2f}ms"
                        f" max={stats['max'] * 1e3:.2f}ms"
                    )
                lines.append(line)
        if self._counters:
            lines.append("counters:")
            for name in sorted(self._counters):
                lines.append(f"  {name:>28s}: {self._counters[name]}")
        return "\n".join(lines) if lines else "(no observations recorded)"


# ---------------------------------------------------------------------------
# Request-scoped tracing.
#
# A TraceContext is one request's private span tree: the HTTP layer creates
# (or adopts, via the X-Repro-Trace-Id header) one per request, activates it
# on the handler thread, and every instrumented layer underneath — the
# service methods, the posting-list index, the render cache, the model
# cache, the classify batcher — attaches spans through the
# module-level ``trace_span`` helper without any plumbing through call
# signatures.  Propagation uses a ContextVar, so concurrent requests on
# different handler threads never see each other's traces; the batcher's
# group model call, which serves many traces at once from one request's
# thread, attaches spans explicitly via ``TraceContext.add_span`` using the
# site each member captured at submit time.
# ---------------------------------------------------------------------------


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4, no dashes)."""
    return uuid.uuid4().hex


class TraceContext:
    """One request's span tree, safe for cross-thread span attachment.

    Unlike :class:`ObsRegistry` spans (one global tree per run), a
    TraceContext is created per request, carries a ``trace_id``, and bounds
    itself: at most *max_spans* spans are kept, further ones are counted in
    :attr:`dropped`.  All mutation goes through one small lock, so another
    request's thread (the classify batcher's group model call) can attach
    spans to a trace owned by a handler thread.

    Args:
        trace_id: adopt this id (an ``X-Repro-Trace-Id`` header value);
            ``None`` generates one.
        max_spans: per-request span budget.
    """

    __slots__ = (
        "trace_id",
        "max_spans",
        "dropped",
        "started_unix",
        "_spans",
        "_lock",
        "_next",
        "_epoch",
    )

    def __init__(self, trace_id: str | None = None, max_spans: int = 128) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.max_spans = max_spans
        self.dropped = 0
        self.started_unix = time.time()
        self._spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._next = 1
        self._epoch = time.perf_counter()

    # ---- recording --------------------------------------------------------

    def start_span(
        self, name: str, parent_id: int | None = None, **attributes: Any
    ) -> SpanRecord | None:
        """Open a span; returns ``None`` when the span budget is exhausted."""
        start = time.perf_counter() - self._epoch
        _clean_attributes(attributes)
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return None
            record = SpanRecord(
                span_id=self._next,
                parent_id=parent_id,
                name=name,
                attributes=attributes,
                start=start,
            )
            self._next += 1
            self._spans.append(record)
        return record

    def end_span(self, record: SpanRecord) -> None:
        """Close an open span (sets its duration)."""
        record.duration = time.perf_counter() - self._epoch - record.start

    def add_span(
        self,
        name: str,
        parent_id: int | None,
        start_perf: float,
        duration: float,
        **attributes: Any,
    ) -> SpanRecord | None:
        """Attach an externally timed span (another thread's work).

        *start_perf* is an absolute ``time.perf_counter()`` reading; it is
        rebased onto this trace's epoch so the span lines up with the ones
        the request thread recorded.
        """
        _clean_attributes(attributes)
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return None
            record = SpanRecord(
                span_id=self._next,
                parent_id=parent_id,
                name=name,
                attributes=attributes,
                start=start_perf - self._epoch,
                duration=duration,
            )
            self._next += 1
            self._spans.append(record)
        return record

    # ---- read access ------------------------------------------------------

    @property
    def spans(self) -> list[SpanRecord]:
        """Recorded spans in allocation order (a shallow copy)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def duration_s(self) -> float:
        """Wall seconds from the trace epoch to the latest closed span end."""
        with self._lock:
            ends = [s.start + s.duration for s in self._spans if s.duration >= 0]
        return max(ends) if ends else 0.0

    def span_dicts(self, id_offset: int = 0) -> list[dict[str, Any]]:
        """JSON-ready span records, ids shifted by *id_offset* and every
        span stamped with this trace's id (the multi-trace export shape)."""
        out = []
        for s in self.spans:
            d = s.to_dict()
            d["id"] += id_offset
            if d["parent"] is not None:
                d["parent"] += id_offset
            d["trace_id"] = self.trace_id
            out.append(d)
        return out


#: The active (trace, parent span id) of the current execution context.
_TRACE_STATE: ContextVar = ContextVar("repro_trace_state", default=None)


def activate_trace(trace: TraceContext, parent_id: int | None = None):
    """Make *trace* the ambient trace of this context; returns a token for
    :func:`deactivate_trace`."""
    return _TRACE_STATE.set((trace, parent_id))


def deactivate_trace(token) -> None:
    """Restore the trace state captured by :func:`activate_trace`."""
    _TRACE_STATE.reset(token)


def current_trace() -> TraceContext | None:
    """The ambient trace of this execution context, if any."""
    state = _TRACE_STATE.get()
    return state[0] if state is not None else None


def current_trace_site() -> "tuple[TraceContext, int | None] | None":
    """The ambient ``(trace, active span id)`` pair — what a request
    captures when another request's thread may run its work (the classify
    batcher's group model call), so spans land in the right trace."""
    return _TRACE_STATE.get()


@contextmanager
def trace_span(name: str, **attributes: Any) -> Iterator[SpanRecord | None]:
    """Open a span on the ambient trace for the ``with`` body.

    A no-op (yielding ``None``) when no trace is active — hot paths like
    the posting-list index call this unconditionally and only pay a
    ContextVar read outside of traced requests — or when the trace's span
    budget is spent.
    """
    state = _TRACE_STATE.get()
    if state is None:
        yield None
        return
    trace, parent = state
    record = trace.start_span(name, parent, **attributes)
    if record is None:
        yield None
        return
    token = _TRACE_STATE.set((trace, record.span_id))
    try:
        yield record
    finally:
        _TRACE_STATE.reset(token)
        trace.end_span(record)
