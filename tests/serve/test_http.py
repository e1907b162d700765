"""Tests for the HTTP layer: real sockets against the warmed TINY service."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.core import PatchQuery, PatchRecord
from repro.serve import TRACE_HEADER, make_server, parse_exposition
from repro.trace import parse_trace


@pytest.fixture(scope="session")
def base_url(service):
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def _get(base_url, path):
    with urllib.request.urlopen(f"{base_url}{path}", timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(base_url, path, body):
    req = urllib.request.Request(
        f"{base_url}{path}", data=body.encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestGetEndpoints:
    @pytest.mark.parametrize("path", ["/healthz", "/statsz", "/v1/manifest", "/v1/summary"])
    def test_round_trips(self, base_url, path):
        status, payload = _get(base_url, path)
        assert status == 200
        assert isinstance(payload, dict)

    def test_healthz_reports_warm_model(self, base_url):
        _, payload = _get(base_url, "/healthz")
        assert payload["status"] == "ok"
        assert payload["model_warm"] is True

    def test_query_matches_service_side(self, base_url, service):
        status, payload = _get(base_url, "/v1/patches?is_security=1&limit=5")
        assert status == 200
        expected = service.query(PatchQuery(is_security=True, limit=5))
        assert payload == json.loads(json.dumps(expected))

    def test_pagination_windows_are_disjoint(self, base_url):
        _, first = _get(base_url, "/v1/patches?limit=3")
        _, second = _get(base_url, "/v1/patches?limit=3&offset=3")
        rows = [json.dumps(r, sort_keys=True) for r in first["records"] + second["records"]]
        assert len(rows) == len(set(rows)) == 6

    def test_include_patch_param(self, base_url):
        _, payload = _get(base_url, "/v1/patches?limit=1&include_patch=1")
        assert "diff --git" in payload["records"][0]["patch_text"]

    def test_stream_jsonl_parses_and_respects_limit(self, base_url):
        url = f"{base_url}/v1/patches.jsonl?source=wild&limit=4"
        with urllib.request.urlopen(url, timeout=10) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [l for l in resp.read().decode("utf-8").splitlines() if l.strip()]
        assert 0 < len(lines) <= 4
        for line in lines:
            assert PatchRecord.from_json(line).source == "wild"

    def test_unknown_route_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(base_url, "/v1/nope")
        assert exc.value.code == 404

    def test_bad_query_param_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(base_url, "/v1/patches?flavour=spicy")
        assert exc.value.code == 400
        assert "unknown query parameter" in json.loads(exc.value.read())["error"]

    def test_bad_boolean_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(base_url, "/v1/patches?is_security=maybe")
        assert exc.value.code == 400


class TestClassifyEndpoint:
    def test_round_trip(self, base_url, patch_text):
        status, payload = _post(base_url, "/v1/classify", patch_text)
        assert status == 200
        assert 0.0 <= payload["security_probability"] <= 1.0
        assert payload["model_key"]

    def test_matches_inline_service_call(self, base_url, service, patch_text):
        _, payload = _post(base_url, "/v1/classify", patch_text)
        inline = service.classify(patch_text, batched=False)
        assert payload["security_probability"] == inline["security_probability"]
        assert payload["pattern_type"] == inline["pattern_type"]

    def test_concurrent_posts_bit_identical(self, base_url, service, patch_text):
        results = []
        lock = threading.Lock()

        def hit():
            _, payload = _post(base_url, "/v1/classify", patch_text)
            with lock:
                results.append(payload)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        canonical = json.dumps(results[0], sort_keys=True)
        assert all(json.dumps(r, sort_keys=True) == canonical for r in results)
        inline = service.classify(patch_text, batched=False)
        assert results[0]["security_probability"] == inline["security_probability"]

    def test_line_separator_inside_a_patch_line_is_200(self, base_url):
        # U+2028 is an ordinary character of a patch line, not a line break.
        text = (
            "commit " + "a" * 40 + "\n"
            "Author: Dev <d@example.org>\n"
            "Date:   Tue Nov 5 10:00:00 2019 -0500\n"
            "\n"
            "    fix\n"
            "\n"
            "diff --git a/f.c b/f.c\n"
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -1,2 +1,2 @@\n"
            " /* a\u2028b */\n"
            "-if (n > 4) x = 1;\n"
            "+if (n >= 4) x = 1;\n"
        )
        status, payload = _post(base_url, "/v1/classify", text)
        assert status == 200
        assert 0.0 <= payload["security_probability"] <= 1.0

    def test_empty_body_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base_url, "/v1/classify", "")
        assert exc.value.code == 400

    def test_unparsable_body_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base_url, "/v1/classify", "definitely not a patch")
        assert exc.value.code == 400

    def test_bad_content_length_400(self, base_url):
        host, port = urlsplit(base_url).netloc.split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/classify")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            body = json.loads(resp.read().decode("utf-8"))
        finally:
            conn.close()
        assert resp.status == 400
        assert "Content-Length" in body["error"]

    def test_post_to_unknown_route_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base_url, "/v1/other", "x")
        assert exc.value.code == 404


class TestLintEndpoint:
    def test_round_trip_matches_service_side(self, base_url, service, patch_text):
        status, payload = _post(base_url, "/v1/lint", patch_text)
        assert status == 200
        inline = service.lint(patch_text)
        assert payload == json.loads(json.dumps(inline))
        assert payload["n_findings"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) >= {"id", "checker", "severity", "path", "line", "message"}

    def test_empty_body_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base_url, "/v1/lint", "")
        assert exc.value.code == 400

    def test_unparsable_body_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base_url, "/v1/lint", "definitely not a patch")
        assert exc.value.code == 400

    def test_requests_counted_in_statsz(self, base_url, patch_text):
        _, before = _get(base_url, "/statsz")
        _post(base_url, "/v1/lint", patch_text)
        _post(base_url, "/v1/lint", patch_text)
        # http_lint is recorded after the response bytes go out, so poll
        # briefly rather than race the handler thread.
        deadline = time.monotonic() + 5.0
        while True:
            _, after = _get(base_url, "/statsz")
            gains = {
                name: after["counters"].get(name, 0) - before["counters"].get(name, 0)
                for name in ("http_lint", "lint.request")
            }
            if all(g >= 2 for g in gains.values()) or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert all(g >= 2 for g in gains.values()), gains


class TestPointLookups:
    def test_sha_query_returns_exactly_that_record(self, base_url, service):
        _, sample = _get(base_url, "/v1/patches?limit=1")
        sha = sample["records"][0]["sha"]
        status, payload = _get(base_url, f"/v1/patches?sha={sha}")
        assert status == 200
        assert payload["total_matching"] >= 1
        assert all(r["sha"] == sha for r in payload["records"])

    def test_cve_id_query_filters(self, base_url, service):
        with_cve = [r for r in service.db if r.cve_id]
        if not with_cve:
            pytest.skip("TINY dataset has no CVE-tagged records")
        cve = with_cve[0].cve_id
        _, payload = _get(base_url, f"/v1/patches?cve_id={cve}")
        assert payload["total_matching"] == sum(1 for r in with_cve if r.cve_id == cve)


class TestMalformedPatches:
    @pytest.mark.parametrize("route", ["/v1/classify", "/v1/lint"])
    def test_overrunning_hunk_is_a_400(self, base_url, overrun_patch, route):
        _, before = _get(base_url, "/statsz")
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base_url, route, overrun_patch)
        assert exc.value.code == 400
        assert "overruns its header counts" in json.loads(exc.value.read())["error"]
        _, after = _get(base_url, "/statsz")
        assert after["counters"].get("http_5xx", 0) == before["counters"].get("http_5xx", 0)


class TestStatsAccounting:
    def test_requests_are_counted(self, base_url):
        _, before = _get(base_url, "/statsz")
        _get(base_url, "/healthz")
        _get(base_url, "/healthz")
        _, after = _get(base_url, "/statsz")
        gained = after["counters"]["http_healthz"] - before["counters"].get("http_healthz", 0)
        assert gained >= 2
        assert after["counters"].get("http_5xx", 0) == before["counters"].get("http_5xx", 0)

    def test_index_and_render_counters_surface(self, base_url):
        _, before = _get(base_url, "/statsz")
        _get(base_url, "/v1/patches?source=wild&limit=3")
        with urllib.request.urlopen(f"{base_url}/v1/patches.jsonl?limit=2", timeout=10) as resp:
            resp.read()
        _, mid = _get(base_url, "/statsz")
        with urllib.request.urlopen(f"{base_url}/v1/patches.jsonl?limit=2", timeout=10) as resp:
            resp.read()
        _, after = _get(base_url, "/statsz")

        def gained(snap_a, snap_b, name):
            return snap_b["counters"].get(name, 0) - snap_a["counters"].get(name, 0)

        # count + page of the filtered query, plus the stream pages.
        assert gained(before, mid, "index.hit") >= 3
        # The repeat stream serves both of its lines from the render cache.
        assert gained(mid, after, "render_cache.hit") >= 2
        assert gained(mid, after, "render_cache.miss") == 0


class TestConcurrentLoad:
    """Four clients on every route at once: all 200s, every request counted."""

    CLIENTS = 4
    ROUNDS = 2

    def test_every_route_200_and_counted(self, base_url, service, patch_text):
        sha = service.db.records()[0].patch.sha
        gets = [
            "/healthz",
            "/statsz",
            "/metrics",
            "/v1/manifest",
            "/v1/summary",
            "/v1/patches?limit=20",
            "/v1/patches?is_security=1&limit=20",
            f"/v1/patches?sha={sha}",
            "/v1/patches?limit=2&include_patch=1",
            "/v1/patches.jsonl?limit=10",
            "/v1/traces",
        ]
        posts = ["/v1/classify", "/v1/lint"]
        requests = [(path, None) for path in gets] + [(path, patch_text) for path in posts]
        statuses: list[tuple[str, int]] = []
        lock = threading.Lock()

        def client():
            for _ in range(self.ROUNDS):
                for path, body in requests:
                    data = body.encode("utf-8") if body is not None else None
                    req = urllib.request.Request(f"{base_url}{path}", data=data)
                    try:
                        with urllib.request.urlopen(req, timeout=30) as resp:
                            resp.read()
                            status = resp.status
                    except urllib.error.HTTPError as exc:
                        status = exc.code
                    with lock:
                        statuses.append((path, status))

        before = service.telemetry.merged()
        threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        after = service.telemetry.merged()

        sent = self.CLIENTS * self.ROUNDS * len(requests)
        assert len(statuses) == sent
        assert [s for s in statuses if s[1] != 200] == []
        assert after.count("http_5xx") == before.count("http_5xx")
        # Each request is folded into telemetry before its response is
        # complete, so once every client has read its reply the count is
        # exact.
        assert after.count("http_requests") - before.count("http_requests") == sent


class TestTraceHeader:
    @pytest.mark.parametrize(
        "path", ["/healthz", "/statsz", "/metrics", "/v1/manifest", "/v1/patches?limit=1"]
    )
    def test_every_response_carries_a_trace_id(self, base_url, path):
        with urllib.request.urlopen(f"{base_url}{path}", timeout=10) as resp:
            trace_id = resp.headers[TRACE_HEADER]
        assert trace_id and len(trace_id) == 32

    def test_provided_trace_id_is_echoed(self, base_url):
        req = urllib.request.Request(f"{base_url}/healthz")
        req.add_header(TRACE_HEADER, "CAFEBABE-0000-1111-2222-333344445555")
        with urllib.request.urlopen(req, timeout=10) as resp:
            echoed = resp.headers[TRACE_HEADER]
        assert echoed == "cafebabe-0000-1111-2222-333344445555"

    def test_malformed_trace_id_replaced(self, base_url):
        req = urllib.request.Request(f"{base_url}/healthz")
        req.add_header(TRACE_HEADER, "not a trace id!!")
        with urllib.request.urlopen(req, timeout=10) as resp:
            echoed = resp.headers[TRACE_HEADER]
        assert echoed != "not a trace id!!"
        assert len(echoed) == 32

    def test_error_responses_carry_trace_ids_too(self, base_url, patch_text):
        with pytest.raises(urllib.error.HTTPError) as exc404:
            _get(base_url, "/v1/nope")
        assert exc404.value.headers[TRACE_HEADER]
        with pytest.raises(urllib.error.HTTPError) as exc400:
            _post(base_url, "/v1/classify", "definitely not a patch")
        assert exc400.value.headers[TRACE_HEADER]

    def test_stream_responses_carry_trace_ids(self, base_url):
        with urllib.request.urlopen(f"{base_url}/v1/patches.jsonl?limit=1", timeout=10) as resp:
            assert resp.headers[TRACE_HEADER]


class TestMetricsEndpoint:
    def test_parses_and_matches_statsz(self, base_url):
        _get(base_url, "/healthz")
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=10) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        samples = parse_exposition(text)
        _, stats = _get(base_url, "/statsz")
        by_name = {l["name"]: v for l, v in samples["repro_counter_total"]}
        # The scrape and /statsz read racing shards at different instants;
        # counters only grow, and the later /statsz read must be >= the
        # scrape for every http_* counter the scrape saw.
        http_counters = {n: v for n, v in by_name.items() if n.startswith("http_")}
        assert by_name["http_requests"] > 0 and by_name["http_healthz"] > 0
        for name, value in http_counters.items():
            assert stats["counters"][name] >= value, name
        total = sum(v for _, v in samples["repro_http_requests_total"])
        assert total == by_name["http_requests"]
        gauges = {n: s[0][1] for n, s in samples.items() if not n.startswith("repro_http")}
        assert gauges["repro_model_warm"] == 1.0
        assert gauges["repro_records"] == stats["service"]["records"]
        assert gauges["repro_uptime_seconds"] >= 0

    def test_histogram_buckets_well_formed(self, base_url):
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=10) as resp:
            samples = parse_exposition(resp.read().decode("utf-8"))
        series: dict[str, list[float]] = {}
        for labels, value in samples["repro_http_request_duration_seconds_bucket"]:
            series.setdefault(labels["endpoint"], []).append(value)
        counts = {
            l["endpoint"]: v
            for l, v in samples["repro_http_request_duration_seconds_count"]
        }
        assert series, "no latency histograms exposed"
        for endpoint, values in series.items():
            assert values == sorted(values)
            assert values[-1] == counts[endpoint]


class TestTracesEndpoint:
    def test_classify_trace_shows_nested_pipeline(self, base_url, patch_text):
        req = urllib.request.Request(
            f"{base_url}/v1/classify", data=patch_text.encode("utf-8"), method="POST"
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            trace_id = resp.headers[TRACE_HEADER]
        with urllib.request.urlopen(
            f"{base_url}/v1/traces?trace_id={trace_id}", timeout=10
        ) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            text = resp.read().decode("utf-8")
        parsed = parse_trace(text, origin="serve")
        assert parsed.manifest["format"] == "repro-run-manifest-v1"
        assert len(parsed.roots) == 1
        root = parsed.roots[0]
        assert root.name == "http.classify"
        assert root.attributes["status"] == 200

        def names(node, acc):
            acc.add(node.name)
            for child in node.children:
                names(child, acc)
            return acc

        seen = names(root, set())
        for expected in (
            "service.classify",
            "patch.parse",
            "features.extract",
            "classify.batch",
            "model.predict",
            "categorize",
            "lint.patch",
        ):
            assert expected in seen, f"missing span {expected}: {sorted(seen)}"

    def test_query_trace_shows_index_spans(self, base_url):
        with urllib.request.urlopen(
            f"{base_url}/v1/patches?source=wild&limit=2&include_patch=1", timeout=10
        ) as resp:
            trace_id = resp.headers[TRACE_HEADER]
        with urllib.request.urlopen(
            f"{base_url}/v1/traces?trace_id={trace_id}", timeout=10
        ) as resp:
            parsed = parse_trace(resp.read().decode("utf-8"), origin="serve")
        assert len(parsed.roots) == 1

        def names(node, acc):
            acc.add(node.name)
            for child in node.children:
                names(child, acc)
            return acc

        seen = names(parsed.roots[0], set())
        assert {"http.query", "service.query", "query.count", "query.page"} <= seen

    def test_full_dump_renders(self, base_url):
        _get(base_url, "/healthz")
        with urllib.request.urlopen(f"{base_url}/v1/traces", timeout=10) as resp:
            parsed = parse_trace(resp.read().decode("utf-8"), origin="serve")
        assert parsed.manifest["traces"] >= 1
        assert parsed.n_spans >= 1
        from repro.trace import render_span_tree

        rendered = render_span_tree(parsed)
        assert "http." in rendered
