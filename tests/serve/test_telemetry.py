"""Tests for the live-telemetry layer: the locked registry, traces, and
exposition.

Covers, at the unit level: the one locked live registry loses no counts
under concurrent writers and readers and matches a single-threaded
reference exactly; the trace store honors its head/tail/slow bounds;
request traces nest across the batcher thread handoff; the trace export
round-trips through :mod:`repro.trace`; and ``/metrics`` output is
grammatical and consistent with ``/statsz``.
"""

import json
import sys
import threading
import time

import pytest

from repro.obs import (
    ObsRegistry,
    TraceContext,
    activate_trace,
    deactivate_trace,
    trace_span,
)
from repro.serve.telemetry import (
    LATENCY_BUCKETS,
    ServeTelemetry,
    TraceEntry,
    TraceStore,
    bucket_index,
    parse_exposition,
    render_metrics,
)
from repro.trace import parse_trace


class _RaisingLock:
    def __enter__(self):
        raise AssertionError("disabled telemetry took the registry lock")

    def __exit__(self, *exc):
        return False


class TestShardedObs:
    """The live registry's write surface and merged reads (kept under the
    name of the per-thread shard router it replaced)."""

    def test_counts_survive_many_threads_no_losses(self):
        tel = ServeTelemetry()
        reference = ObsRegistry()
        ref_lock = threading.Lock()
        per_thread, n_threads = 500, 8

        def work():
            for _ in range(per_thread):
                tel.add("hits")
                tel.observe("lat", 0.001)
                with ref_lock:
                    reference.add("hits")
                    reference.observe("lat", 0.001)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = tel.merged()
        assert merged.count("hits") == reference.count("hits") == per_thread * n_threads
        assert merged.hist_count("lat") == reference.hist_count("lat")
        assert tel.count("hits") == per_thread * n_threads

    def test_record_request_exact_under_concurrent_reads(self):
        """Long-lived and short-lived writer threads plus a reader looping
        on the merged views: every count is exact, equal to a serial replay
        into one registry, and no read raises."""
        tel = ServeTelemetry()
        per_thread, n_long, n_short = 500, 8, 50
        stop = threading.Event()
        errors: list[BaseException] = []
        reads = 0

        def reader():
            nonlocal reads
            while True:
                try:
                    tel.merged()
                    parse_exposition(tel.metrics_text())
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return
                reads += 1
                if stop.is_set():
                    return

        query_stream = [(500 if i % 10 == 0 else 200, 0.001 * (i % 7)) for i in range(per_thread)]

        def long_lived(target=tel):
            for status, elapsed in query_stream:
                target.record_request("query", status, elapsed)

        def short_lived(target=tel):
            target.record_request("classify", 200, 0.002)

        # A tiny GIL switch interval makes an unlocked read-modify-write
        # lose counts, so this test fails if a write path drops the lock.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            read_thread = threading.Thread(target=reader)
            read_thread.start()
            writers = [threading.Thread(target=long_lived) for _ in range(n_long)]
            writers += [threading.Thread(target=short_lived) for _ in range(n_short)]
            for t in writers:
                t.start()
            for t in writers:
                t.join()
            stop.set()
            read_thread.join()
        finally:
            sys.setswitchinterval(switch_interval)
        assert not errors, errors
        assert reads >= 1

        reference = ServeTelemetry()
        for _ in range(n_long):
            long_lived(reference)
        for _ in range(n_short):
            short_lived(reference)
        merged = tel.merged()
        assert merged.counters == reference.merged().counters
        assert tel.count("http_requests") == n_long * per_thread + n_short
        assert merged.count("http_5xx") == n_long * per_thread // 10
        assert merged.hist_count("serve.http.query") == n_long * per_thread
        assert merged.hist_count("serve.http.classify") == n_short

    def test_merged_includes_base_registry(self):
        base = ObsRegistry()
        base.add("built", 7)
        tel = ServeTelemetry()
        tel.add("live", 2)
        merged = tel.merged(base)
        assert merged.count("built") == 7
        assert merged.count("live") == 2

    def test_disabled_router_is_inert(self):
        tel = ServeTelemetry(enabled=False)
        tel._lock = _RaisingLock()  # the disabled path must never lock
        tel.add("hits")
        tel.observe("lat", 1.0)
        with tel.timer("phase"):
            pass
        tel.record_request("query", 200, 0.01)
        tel._lock = threading.Lock()
        merged = tel.merged()
        assert merged.count("hits") == 0
        assert merged.calls("phase") == 0
        assert merged.counters == {}

    def test_merge_order_insensitive(self):
        """Folding the same registry snapshots in any order yields the same
        counters (integer sums commute)."""
        shards = []
        for k in range(4):
            reg = ObsRegistry(hist_window=8)
            reg.add("hits", k + 1)
            reg.observe("lat", float(k))
            shards.append(reg)
        fwd = ObsRegistry(hist_window=8)
        rev = ObsRegistry(hist_window=8)
        for reg in shards:
            fwd.merge(reg.snapshot())
        for reg in reversed(shards):
            rev.merge(reg.snapshot())
        assert fwd.counters == rev.counters
        assert fwd.hist_count("lat") == rev.hist_count("lat")
        assert fwd.hist_total("lat") == rev.hist_total("lat")


class TestTraceContext:
    def test_nesting_and_parentage(self):
        trace = TraceContext()
        token = activate_trace(trace)
        try:
            with trace_span("outer") as outer:
                with trace_span("inner") as inner:
                    pass
        finally:
            deactivate_trace(token)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert all(s.duration >= 0 for s in trace.spans)

    def test_span_budget_drops_excess(self):
        trace = TraceContext(max_spans=3)
        token = activate_trace(trace)
        try:
            for _ in range(10):
                with trace_span("s"):
                    pass
        finally:
            deactivate_trace(token)
        assert len(trace) == 3
        assert trace.dropped == 7

    def test_no_active_trace_is_noop(self):
        with trace_span("orphan") as sp:
            assert sp is None

    def test_cross_thread_add_span(self):
        trace = TraceContext()
        token = activate_trace(trace)
        try:
            with trace_span("request") as root:
                start = time.perf_counter()

                def worker():
                    trace.add_span(
                        "model.predict", root.span_id, start, 0.005, batch_size=3
                    )

                t = threading.Thread(target=worker)
                t.start()
                t.join()
        finally:
            deactivate_trace(token)
        names = {s.name: s for s in trace.spans}
        assert names["model.predict"].parent_id == names["request"].span_id
        assert names["model.predict"].duration == pytest.approx(0.005)

    def test_adopts_caller_trace_id(self):
        tel = ServeTelemetry()
        adopted = tel.new_trace("ABCD1234-dead-beef")
        assert adopted.trace_id == "abcd1234-dead-beef"
        generated = tel.new_trace("no good : id")
        assert generated.trace_id != "no good : id"
        assert len(generated.trace_id) == 32


def _entry(endpoint="q", status=200, duration=0.01, trace=None):
    return TraceEntry(
        trace=trace if trace is not None else TraceContext(),
        endpoint=endpoint,
        status=status,
        duration_s=duration,
    )


class TestTraceStore:
    def test_head_tail_slow_bounds(self):
        store = TraceStore(head=3, tail=4, slow=2, slow_threshold_s=0.1)
        for i in range(100):
            store.offer(_entry(duration=0.001 * (i + 1)))
        entries = store.entries()
        assert store.seen == 100
        # head(3) + tail(last 4) + slow(2 slowest >= 0.1s), deduped.
        seqs = [e.seq for e in entries]
        assert seqs == sorted(seqs)
        assert set(seqs[:3]) == {1, 2, 3}
        assert set(seqs[-4:]) == {97, 98, 99, 100}
        assert len(entries) <= 3 + 4 + 2

    def test_slow_keeps_the_slowest(self):
        store = TraceStore(head=0, tail=0, slow=3, slow_threshold_s=0.5)
        for d in (0.6, 2.0, 0.7, 1.5, 0.9, 3.0, 0.1):
            store.offer(_entry(duration=d))
        kept = sorted(e.duration_s for e in store.entries())
        assert kept == [1.5, 2.0, 3.0]

    def test_get_by_trace_id(self):
        store = TraceStore()
        entry = _entry()
        store.offer(entry)
        assert store.get(entry.trace.trace_id) is entry
        assert store.get("nope") is None

    def test_export_round_trips_through_repro_trace(self):
        store = TraceStore()
        for _ in range(3):
            trace = TraceContext()
            token = activate_trace(trace)
            with trace_span("http.query"):
                with trace_span("index.lookup", rows=5):
                    pass
            deactivate_trace(token)
            store.offer(_entry(trace=trace))
        text = store.export_jsonl()
        parsed = parse_trace(text, origin="<memory>")
        assert parsed.manifest["format"] == "repro-run-manifest-v1"
        assert parsed.n_spans == 6
        assert len(parsed.roots) == 3  # one root per request
        for root in parsed.roots:
            assert root.name == "http.query"
            assert [c.name for c in root.children] == ["index.lookup"]
        assert parsed.summary["timer_calls"]["index.lookup"] == 3

    def test_exported_spans_carry_trace_ids(self):
        store = TraceStore()
        trace = TraceContext()
        token = activate_trace(trace)
        with trace_span("http.q"):
            pass
        deactivate_trace(token)
        store.offer(_entry(trace=trace))
        spans = [
            json.loads(l)
            for l in store.export_jsonl().splitlines()
            if json.loads(l).get("type") == "span"
        ]
        assert spans and all(s["trace_id"] == trace.trace_id for s in spans)


class TestExposition:
    def _telemetry_with_traffic(self):
        tel = ServeTelemetry()
        for i in range(20):
            tel.record_request("query", 200, 0.002 * (i + 1))
        tel.record_request("query", 500, 0.3)
        tel.record_request("classify", 404, 0.05)
        return tel

    def test_metrics_parse_and_match_statsz(self):
        tel = self._telemetry_with_traffic()
        merged = tel.merged()
        samples = parse_exposition(tel.metrics_text())
        requests = {
            (l["endpoint"], l["family"]): v
            for l, v in samples["repro_http_requests_total"]
        }
        assert requests[("query", "2xx")] == 20
        assert requests[("query", "5xx")] == 1
        assert requests[("classify", "4xx")] == 1
        # _count/_sum agree with the merged registry's exact values.
        counts = {
            l["endpoint"]: v
            for l, v in samples["repro_http_request_duration_seconds_count"]
        }
        sums = {
            l["endpoint"]: v
            for l, v in samples["repro_http_request_duration_seconds_sum"]
        }
        assert counts["query"] == merged.hist_count("serve.http.query") == 21
        assert sums["query"] == pytest.approx(merged.hist_total("serve.http.query"))
        # Every merged counter is also exposed under repro_counter_total.
        by_name = {l["name"]: v for l, v in samples["repro_counter_total"]}
        for name, value in merged.counters.items():
            assert by_name[name] == value

    def test_bucket_counts_monotone_and_exhaustive(self):
        tel = self._telemetry_with_traffic()
        samples = parse_exposition(tel.metrics_text())
        per_endpoint = {}
        for labels, value in samples["repro_http_request_duration_seconds_bucket"]:
            per_endpoint.setdefault(labels["endpoint"], []).append((labels["le"], value))
        counts = {
            l["endpoint"]: v
            for l, v in samples["repro_http_request_duration_seconds_count"]
        }
        for endpoint, buckets in per_endpoint.items():
            values = [v for _, v in buckets]
            assert values == sorted(values), f"{endpoint} buckets not monotone"
            assert buckets[-1][0] == "+Inf"
            assert buckets[-1][1] == counts[endpoint]

    def test_bucket_index_matches_le_semantics(self):
        for value, expect in ((0.0005, 0), (0.001, 0), (0.0011, 1), (50.0, len(LATENCY_BUCKETS))):
            assert bucket_index(value) == expect

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not prometheus\n")
        with pytest.raises(ValueError):
            parse_exposition('metric{unclosed="x} 1\n')
        with pytest.raises(ValueError):
            parse_exposition("metric nan_value_that_is_not_a_float\n")

    def test_label_escaping_round_trips(self):
        reg = ObsRegistry()
        reg.add('weird"name\\with\nstuff', 3)
        samples = parse_exposition(render_metrics(reg))
        by_name = {l["name"]: v for l, v in samples["repro_counter_total"]}
        assert by_name['weird\\"name\\\\with\\nstuff'] == 3

    def test_endpoint_stats_quantiles_and_errors(self):
        tel = self._telemetry_with_traffic()
        stats = tel.endpoint_stats(tel.merged())
        q = stats["query"]
        assert q["requests"] == 21
        assert q["error_rate"] == pytest.approx(1 / 21)
        assert 0 < q["p50_ms"] <= q["p95_ms"] <= q["p99_ms"]
        assert stats["classify"]["rate_4xx"] == 1.0


class TestServiceIntegration:
    def test_classify_trace_has_nested_pipeline_spans(self, service, patch_text):
        trace = service.telemetry.new_trace(None)
        token = activate_trace(trace)
        try:
            with trace_span("http.classify"):
                service.classify(patch_text, batched=True)
        finally:
            deactivate_trace(token)
        names = [s.name for s in trace.spans]
        for expected in (
            "http.classify",
            "service.classify",
            "patch.parse",
            "features.extract",
            "classify.batch",
            "model.predict",
            "categorize",
            "lint.patch",
        ):
            assert expected in names, f"missing span {expected}: {names}"
        by_name = {s.name: s for s in trace.spans}
        assert by_name["service.classify"].parent_id == by_name["http.classify"].span_id
        # The batcher-thread span parents under the submit-side span.
        assert by_name["model.predict"].parent_id == by_name["classify.batch"].span_id
        assert by_name["model.predict"].attributes["batched"] is True

    def test_query_trace_shows_index_spans(self, service):
        from repro.core import PatchQuery

        trace = service.telemetry.new_trace(None)
        token = activate_trace(trace)
        try:
            with trace_span("http.query"):
                service.query(PatchQuery(is_security=True, limit=2, offset=1))
        finally:
            deactivate_trace(token)
        names = [s.name for s in trace.spans]
        assert "service.query" in names
        assert "query.count" in names
        assert "query.page" in names

    def test_statsz_carries_endpoint_and_trace_sections(self, service):
        service.record_request("query", 200, 0.01)
        stats = service.statsz()
        assert "endpoints" in stats and "traces" in stats
        assert stats["endpoints"]["query"]["requests"] >= 1
        assert stats["traces"]["seen"] >= 0

    def test_metrics_text_consistent_with_statsz(self, service):
        service.record_request("query", 200, 0.01)
        stats = service.statsz()
        samples = parse_exposition(service.metrics_text())
        by_name = {l["name"]: v for l, v in samples["repro_counter_total"]}
        for name in ("http_requests", "http_query"):
            assert by_name[name] == stats["counters"][name]
        assert samples["repro_records"][0][1] == len(service.db)

    def test_disabled_telemetry_service_still_serves(self, experiment_world):
        from repro.analysis.experiments import build_patchdb
        from repro.core import PatchQuery
        from repro.serve import PatchDBService

        svc = PatchDBService(
            experiment_world,
            build_patchdb(experiment_world),
            telemetry=ServeTelemetry(enabled=False),
        )
        try:
            assert svc.query(PatchQuery(limit=1))["count"] == 1
            svc.record_request("query", 200, 0.01)
            stats = svc.statsz()
            assert "endpoints" not in stats
            assert svc.telemetry.new_trace(None) is None
        finally:
            svc.close()
