"""The producer-keyed envelope both persisted caches load and save through."""

import pickle
import shutil
from pathlib import Path

import pytest

import repro
from repro import persist
from repro.ml import FittedModelCache
from repro.obs import ObsRegistry
from repro.persist import load_cache, package_digest, save_cache, source_digest

FMT = "repro-test-cache"


def _load(path, fmt=FMT):
    obs = ObsRegistry()
    return load_cache(path, fmt, obs), obs


def _save_by_other_code(monkeypatch, path, payload, fmt=FMT):
    monkeypatch.setattr(persist, "source_digest", lambda: "0" * 64)
    save_cache(path, fmt, payload)
    monkeypatch.undo()


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the ``repro`` sources, without bytecode."""
    copy = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = save_cache(tmp_path / "c.pkl", FMT, {"k": [1, 2]})
        payload, obs = _load(path)
        assert payload == {"k": [1, 2]}
        assert obs.counters == {}

    def test_header_records_format_and_producer(self, tmp_path):
        path = save_cache(tmp_path / "c.pkl", FMT, 1)
        with path.open("rb") as fh:
            assert pickle.load(fh) == {"format": FMT, "producer": source_digest()}
            assert pickle.load(fh) == 1

    def test_missing_file_is_cold_and_uncounted(self, tmp_path):
        payload, obs = _load(tmp_path / "absent.pkl")
        assert payload is None
        assert obs.counters == {}

    def test_other_producer_is_stale(self, tmp_path, monkeypatch):
        path = tmp_path / "c.pkl"
        _save_by_other_code(monkeypatch, path, {"k": 1})
        payload, obs = _load(path)
        assert payload is None
        assert obs.counters == {"cache.stale": 1}

    def test_other_format_is_stale(self, tmp_path):
        path = save_cache(tmp_path / "c.pkl", "another-cache", {"k": 1})
        payload, obs = _load(path)
        assert payload is None
        assert obs.counters == {"cache.stale": 1}

    @pytest.mark.parametrize(
        "data",
        [b"\x00garbage bytes, not a pickle", b"\x80\x04truncated", b""],
        ids=["garbage", "truncated", "empty"],
    )
    def test_unreadable_file_is_corrupt(self, tmp_path, data):
        path = tmp_path / "c.pkl"
        path.write_bytes(data)
        payload, obs = _load(path)
        assert payload is None
        assert obs.counters == {"cache.corrupt": 1}

    def test_truncated_payload_is_corrupt(self, tmp_path):
        path = save_cache(tmp_path / "c.pkl", FMT, list(range(1000)))
        path.write_bytes(path.read_bytes()[:-20])
        payload, obs = _load(path)
        assert payload is None
        assert obs.counters == {"cache.corrupt": 1}

    def test_garbage_file_is_corrupt_until_resaved(self, tmp_path):
        path = tmp_path / "c.pkl"
        path.write_bytes(b"\x00garbage bytes, not a pickle")
        payload, obs = _load(path)
        assert payload is None
        assert obs.counters == {"cache.corrupt": 1}
        save_cache(path, FMT, {"k": 1})
        payload, obs = _load(path)
        assert payload == {"k": 1}
        assert obs.counters == {}


class TestCrashSafeSave:
    """Saves replace the file atomically."""

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = save_cache(tmp_path / "c.pkl", FMT, {"k": 1})

        def torn_dump(obj, fh):
            fh.write(b"\x80\x04partial")
            raise RuntimeError("crash mid-save")

        monkeypatch.setattr("repro.persist.pickle.dump", torn_dump)
        with pytest.raises(RuntimeError, match="crash mid-save"):
            save_cache(path, FMT, {"k": 2})
        monkeypatch.undo()
        payload, obs = _load(path)
        assert payload == {"k": 1}
        assert obs.counters == {}
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_model_cache_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "models.pkl"
        cache = FittedModelCache(persist_path=path)
        cache.put("first", "model")
        cache.save()
        cache.put("second", "model")

        def torn_dump(obj, fh):
            fh.write(b"\x80\x04partial")
            raise RuntimeError("crash mid-save")

        monkeypatch.setattr("repro.persist.pickle.dump", torn_dump)
        with pytest.raises(RuntimeError, match="crash mid-save"):
            cache.save()
        monkeypatch.undo()
        reloaded = FittedModelCache(persist_path=path)
        assert len(reloaded) == 1
        assert reloaded.obs.count("cache.corrupt") == 0
        assert list(tmp_path.iterdir()) == [path]

    def test_save_keeps_its_name(self, tmp_path):
        target = save_cache(tmp_path / "vectors.cache", FMT, 1)
        assert list(tmp_path.iterdir()) == [target]
        assert _load(target)[0] == 1


class TestSourceDigest:
    def test_computed_once_per_process(self):
        assert source_digest() is source_digest()
        assert source_digest() == package_digest(Path(repro.__file__).parent)

    def test_changes_when_a_module_changes(self, package_copy):
        before = package_digest(package_copy)
        assert package_digest(package_copy) == before
        module = package_copy / "features" / "extractor.py"
        module.write_text(module.read_text() + "\n# edited\n")
        assert package_digest(package_copy) != before

    def test_changes_when_a_module_moves(self, package_copy):
        before = package_digest(package_copy)
        (package_copy / "trace.py").rename(package_copy / "trace2.py")
        assert package_digest(package_copy) != before

    def test_ignores_files_that_are_not_python(self, package_copy):
        before = package_digest(package_copy)
        (package_copy / "notes.txt").write_text("not code")
        assert package_digest(package_copy) == before

    def test_editing_a_module_makes_a_warm_cache_stale(self, package_copy, tmp_path, monkeypatch):
        path = tmp_path / "models.pkl"
        monkeypatch.setattr(persist, "_PACKAGE", package_copy)
        source_digest.cache_clear()
        try:
            saved = FittedModelCache(persist_path=path)
            saved.put("key", "model")
            saved.save()
            assert len(FittedModelCache(persist_path=path)) == 1
            module = package_copy / "ml" / "tokenizer.py"
            module.write_text(module.read_text() + "\n# edited\n")
            source_digest.cache_clear()
            cold = FittedModelCache(persist_path=path)
        finally:
            monkeypatch.undo()
            source_digest.cache_clear()
        assert len(cold) == 0
        assert cold.obs.count("cache.stale") == 1
        assert cold.obs.count("cache.corrupt") == 0
