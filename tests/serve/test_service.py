"""Tests for the framework-independent service core (no sockets)."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import PatchQuery
from repro.errors import ReproError
from repro.ml import FittedModelCache
from repro.obs import TraceContext, activate_trace, deactivate_trace, trace_span
from repro.serve import MODEL_CONFIG, ClassifyBatcher, PatchDBService


class TestWarm:
    def test_cold_fit_then_cache_hit(self, served):
        service, warm = served
        assert warm["cached"] is False
        assert warm["n_train"] > 0
        assert service.model_key == warm["model_key"]
        # Re-warming the same dataset must hit the cache, not re-fit.
        again = service.warm()
        assert again["cached"] is True
        assert again["model_key"] == warm["model_key"]

    def test_empty_dataset_rejected(self, experiment_world):
        from repro.core import PatchDB

        service = PatchDBService(experiment_world, PatchDB())
        with pytest.raises(ReproError):
            service.warm()

    def test_classify_before_warm_rejected(self, experiment_world, patch_text):
        from repro.analysis.experiments import build_patchdb

        service = PatchDBService(experiment_world, build_patchdb(experiment_world))
        with pytest.raises(ReproError, match="not warmed"):
            service.classify(patch_text)


class TestQuery:
    def test_counts_and_pagination(self, service):
        everything = service.query(PatchQuery())
        assert everything["total_matching"] == len(service.db)
        page = service.query(PatchQuery(limit=5, offset=2))
        assert page["count"] == 5
        assert page["total_matching"] == everything["total_matching"]
        assert page["records"] == everything["records"][2:7]

    def test_filters_restrict(self, service):
        sec = service.query(PatchQuery(is_security=True))
        assert 0 < sec["total_matching"] < len(service.db)
        assert all(r["is_security"] for r in sec["records"])

    def test_include_patch_adds_text(self, service):
        row = service.query(PatchQuery(limit=1), include_patch=True)["records"][0]
        assert "diff --git" in row["patch_text"]
        bare = service.query(PatchQuery(limit=1))["records"][0]
        assert "patch_text" not in bare

    def test_stream_parses_back(self, service):
        from repro.core import PatchRecord

        lines = list(service.query_stream(PatchQuery(source="wild", limit=3)))
        assert 0 < len(lines) <= 3
        for line in lines:
            assert PatchRecord.from_json(line).source == "wild"


class TestClassify:
    def test_shape(self, service, patch_text):
        result = service.classify(patch_text)
        assert 0.0 <= result["security_probability"] <= 1.0
        assert result["is_security"] == (result["security_probability"] >= 0.5)
        assert result["pattern_name"]
        assert result["model_key"] == service.model_key
        assert result["lint"]["n_findings"] >= 0
        assert result["features"]  # a real patch has nonzero features

    def test_batched_matches_serial_bit_identical(self, service, patch_text):
        serial = service.classify(patch_text, batched=False)
        batched = service.classify(patch_text, batched=True)
        assert serial["security_probability"] == batched["security_probability"]
        assert serial["is_security"] == batched["is_security"]

    def test_concurrent_classify_is_deterministic(self, service, patch_text):
        results = []
        lock = threading.Lock()

        def hit():
            out = service.classify(patch_text)
            with lock:
                results.append(out["security_probability"])

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert results[0] == service.classify(patch_text, batched=False)["security_probability"]

    def test_unparsable_patch_rejected(self, service):
        with pytest.raises(ReproError):
            service.classify("this is not a patch")


class TestLint:
    def test_shape_and_stable_ids(self, service, patch_text):
        payload = service.lint(patch_text)
        assert payload["n_findings"] == len(payload["findings"])
        assert sum(payload["by_checker"].values()) == payload["n_findings"]
        for finding in payload["findings"]:
            assert len(finding["id"]) == 16

    def test_is_deterministic(self, service, patch_text):
        assert service.lint(patch_text) == service.lint(patch_text)

    def test_needs_no_warm_model(self, experiment_world, patch_text):
        from repro.analysis.experiments import build_patchdb

        cold = PatchDBService(experiment_world, build_patchdb(experiment_world))
        try:
            assert cold.lint(patch_text)["n_findings"] >= 0
        finally:
            cold.close()

    def test_unparsable_patch_rejected(self, service):
        with pytest.raises(ReproError):
            service.lint("this is not a patch")

    def test_counters(self, service, patch_text):
        # Per-request counters land in the live telemetry registry; the
        # merged view (what /statsz serves) adds the base registry.
        before = service.counter("lint.request")
        service.lint(patch_text)
        assert service.counter("lint.request") == before + 1


class _Gate:
    """Blocks the first predict call until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def hold(self):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(5.0)


def _blocked_group(batcher, gate, n_queued):
    """Submit row 0 on one thread and hold its model call on *gate* until
    *n_queued* more threads (rows 1..n_queued) have queued behind it, then
    release it.  Returns ``{row index: probability or exception}``."""
    results = {}

    def classify_row(i):
        try:
            results[i] = batcher.commit(batcher.submit(np.array([float(i), 0.0])))
        except Exception as exc:  # noqa: BLE001 - recorded for the assertions
            results[i] = exc

    first = threading.Thread(target=classify_row, args=(0,))
    first.start()
    assert gate.entered.wait(5.0)
    others = [threading.Thread(target=classify_row, args=(i,)) for i in range(1, n_queued + 1)]
    for t in others:
        t.start()
    deadline = time.monotonic() + 5.0
    while len(batcher._pending) < n_queued and time.monotonic() < deadline:
        time.sleep(0.001)
    assert len(batcher._pending) == n_queued
    gate.release.set()
    for t in [first, *others]:
        t.join(5.0)
    return results


class TestBatcher:
    def test_lone_commit_predicts_at_once(self):
        calls = []

        def predict(X):
            calls.append((X.shape[0], threading.get_ident()))
            return X[:, 0]

        batcher = ClassifyBatcher(predict)
        future = batcher.submit(np.array([3.0, 1.0]))
        assert not future.done()
        # Predicted on the caller's thread, with no wait window.
        assert batcher.commit(future) == 3.0
        assert future.done()
        assert calls == [(1, threading.get_ident())]

    def test_queued_rows_share_one_call(self):
        calls, gate = [], _Gate()

        def predict(X):
            calls.append(X.shape[0])
            gate.hold()
            return X[:, 0]

        batcher = ClassifyBatcher(predict, max_batch=16)
        results = _blocked_group(batcher, gate, 9)
        assert calls == [1, 9]
        assert results == {i: float(i) for i in range(10)}

    def test_max_batch_caps_each_call(self):
        calls, gate = [], _Gate()

        def predict(X):
            calls.append(X.shape[0])
            gate.hold()
            return X[:, 0]

        batcher = ClassifyBatcher(predict, max_batch=4)
        results = _blocked_group(batcher, gate, 9)
        assert calls == [1, 4, 4, 1]
        assert results == {i: float(i) for i in range(10)}

    def test_predict_failure_fails_whole_group(self):
        gate = _Gate()
        failing = [True]

        def predict(X):
            gate.hold()
            if failing[0]:
                raise RuntimeError("boom")
            return X[:, 0]

        batcher = ClassifyBatcher(predict, max_batch=16)
        results = _blocked_group(batcher, gate, 5)
        assert len(results) == 6
        for outcome in results.values():
            assert isinstance(outcome, RuntimeError) and str(outcome) == "boom"
        failing[0] = False
        assert batcher.commit(batcher.submit(np.array([7.0, 0.0]))) == 7.0

    def test_process_failure_still_resolves_futures(self):
        class Broken(ClassifyBatcher):
            def _process(self, batch):
                raise RuntimeError("stitch failed")

        batcher = Broken(lambda X: X[:, 0])
        future = batcher.submit(np.zeros(2))
        with pytest.raises(RuntimeError, match="stitch failed"):
            batcher.commit(future)
        assert future.done()

    def test_commit_of_foreign_future_rejected(self):
        calls = []
        batcher = ClassifyBatcher(lambda X: calls.append(X) or X[:, 0])
        with pytest.raises(ReproError):
            batcher.commit(Future())
        assert calls == []  # no empty batch reached the model

    def test_process_receives_row_future_site_triples(self):
        seen = []

        class Recording(ClassifyBatcher):
            def _process(self, batch):
                seen.extend(batch)
                super()._process(batch)

        batcher = Recording(lambda X: X[:, 0])
        row = np.array([2.0, 0.0])
        future = batcher.submit(row)
        batcher.commit(future)
        trace = TraceContext()
        token = activate_trace(trace)
        try:
            with trace_span("classify.batch") as span:
                traced = batcher.submit(row)
                batcher.commit(traced)
        finally:
            deactivate_trace(token)
        assert len(seen) == 2
        (r0, f0, site0), (r1, f1, site1) = seen
        assert r0 is row and f0 is future and site0 is None
        assert r1 is row and f1 is traced and site1 == (trace, span.span_id)
        assert [s.name for s in trace.spans] == ["classify.batch", "model.predict"]

    def test_submit_after_close_rejected(self):
        batcher = ClassifyBatcher(lambda X: X[:, 0])
        batcher.close()
        with pytest.raises(ReproError):
            batcher.submit(np.zeros(2))


class TestObservability:
    def test_healthz_and_manifest(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["model_warm"] is True
        assert health["records"] == len(service.db)
        manifest = service.manifest()
        assert manifest["command"] == "serve"
        assert manifest["model_key"] == service.model_key

    def test_statsz_folds_requests(self, service):
        service.record_request("query", 200, 0.01)
        service.record_request("query", 503, 0.02)
        stats = service.statsz()
        assert stats["counters"]["http_requests"] >= 2
        assert stats["counters"]["http_5xx"] >= 1
        assert stats["service"]["status"] == "ok"

    def test_statsz_merges_live_registry_once(self, service, monkeypatch):
        from repro.obs import ObsRegistry

        merged = []
        merge = ObsRegistry.merge

        def counting(self, other):
            merged.append(other)
            return merge(self, other)

        monkeypatch.setattr(ObsRegistry, "merge", counting)
        service.record_request("query", 200, 0.01)
        service.telemetry._stats_cache = None  # stale: healthz would re-merge
        stats = service.statsz()
        assert len(merged) == 2  # base, then live; the service block reuses them
        assert stats["service"]["endpoints"] == stats["endpoints"]

    def test_model_cache_key_uses_config(self, service):
        natural, labels = service._training_set()
        from repro.ml import training_key

        assert service.model_key == training_key(
            [r.patch.sha for r in natural], labels, MODEL_CONFIG
        )
