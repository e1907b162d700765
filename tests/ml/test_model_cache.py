"""Tests for the persisted fitted-model cache and its training-set keying."""

import pickle

import numpy as np
import pytest

from repro.ml import FittedModelCache, RandomForestClassifier, training_key
from repro.obs import ObsRegistry

SHAS = [f"{i:040x}" for i in range(8)]
LABELS = [i % 2 for i in range(8)]
CONFIG = {"estimator": "RandomForestClassifier", "n_estimators": 5, "max_depth": 4}


def _fit_model(seed=7):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 6))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    model = RandomForestClassifier(n_estimators=5, max_depth=4, seed=seed)
    model.fit(X, y)
    return model, X


class TestTrainingKey:
    def test_deterministic(self):
        assert training_key(SHAS, LABELS, CONFIG) == training_key(SHAS, LABELS, CONFIG)

    def test_order_insensitive(self):
        pairs = list(zip(SHAS, LABELS))[::-1]
        shas, labels = zip(*pairs)
        assert training_key(shas, labels, CONFIG) == training_key(SHAS, LABELS, CONFIG)

    def test_label_change_changes_key(self):
        flipped = [1 - l for l in LABELS]
        assert training_key(SHAS, flipped, CONFIG) != training_key(SHAS, LABELS, CONFIG)

    def test_sha_change_changes_key(self):
        other = ["f" * 40] + SHAS[1:]
        assert training_key(other, LABELS, CONFIG) != training_key(SHAS, LABELS, CONFIG)

    def test_config_change_changes_key(self):
        deeper = dict(CONFIG, max_depth=9)
        assert training_key(SHAS, LABELS, deeper) != training_key(SHAS, LABELS, CONFIG)


class TestCacheLookup:
    def test_get_or_fit_fits_once(self):
        obs = ObsRegistry()
        cache = FittedModelCache(obs=obs)
        key = training_key(SHAS, LABELS, CONFIG)
        calls = []

        def fit():
            calls.append(1)
            return _fit_model()[0]

        first = cache.get_or_fit(key, fit)
        second = cache.get_or_fit(key, fit)
        assert first is second
        assert len(calls) == 1
        assert obs.counters["model_cache_misses"] == 1
        assert obs.counters["model_cache_hits"] == 1

    def test_get_counts_hits_and_misses(self):
        obs = ObsRegistry()
        cache = FittedModelCache(obs=obs)
        assert cache.get("absent") is None
        cache.put("present", object())
        assert cache.get("present") is not None
        assert obs.counters["model_cache_misses"] == 1
        assert obs.counters["model_cache_hits"] == 1
        assert "present" in cache
        assert len(cache) == 1


class TestPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        path = tmp_path / "models.pkl"
        model, X = _fit_model()
        key = training_key(SHAS, LABELS, CONFIG)
        cache = FittedModelCache(persist_path=path)
        cache.put(key, model)
        cache.save()

        reloaded = FittedModelCache(persist_path=path)
        assert len(reloaded) == 1
        back = reloaded.get(key)
        np.testing.assert_array_equal(back.decision_scores(X), model.decision_scores(X))

    def test_warm_restart_never_fits(self, tmp_path):
        path = tmp_path / "models.pkl"
        key = training_key(SHAS, LABELS, CONFIG)
        cold = FittedModelCache(persist_path=path)
        cold.get_or_fit(key, lambda: _fit_model()[0])
        cold.save()

        def boom():
            raise AssertionError("warm cache must not fit")

        warm = FittedModelCache(persist_path=path)
        assert warm.get_or_fit(key, boom) is not None

    def test_corrupt_pickle_degrades_to_cold(self, tmp_path):
        path = tmp_path / "models.pkl"
        path.write_bytes(b"\x80\x04 this is not a pickle")
        cache = FittedModelCache(persist_path=path)
        assert len(cache) == 0  # no exception, just cold

    def test_format_mismatch_degrades_to_cold(self, tmp_path):
        import pickle

        path = tmp_path / "models.pkl"
        path.write_bytes(pickle.dumps({"format": "other-v9", "models": {"k": 1}}))
        assert len(FittedModelCache(persist_path=path)) == 0

    def test_save_without_path_rejected(self):
        with pytest.raises(ValueError):
            FittedModelCache().save()


def test_garbage_pickle_counts_cache_corrupt(tmp_path):
    path = tmp_path / "models.pkl"
    path.write_bytes(b"\x00garbage bytes, not a pickle")
    cache = FittedModelCache(persist_path=path)
    assert len(cache) == 0
    assert cache.obs.count("cache.corrupt") == 1


class TestStaleAndCorrupt:
    """The model pickle loads through :mod:`repro.persist`'s envelope."""

    def test_producer_mismatch_is_cold_and_counted_stale(self, tmp_path, monkeypatch):
        from repro import persist

        path = tmp_path / "models.pkl"
        cache = FittedModelCache(persist_path=path)
        cache.put(training_key(SHAS, LABELS, CONFIG), _fit_model()[0])
        monkeypatch.setattr(persist, "source_digest", lambda: "0" * 64)
        cache.save()
        monkeypatch.undo()
        cold = FittedModelCache(persist_path=path)
        assert len(cold) == 0
        assert cold.obs.count("cache.stale") == 1
        assert cold.obs.count("cache.corrupt") == 0
        assert cold.obs.count("models_loaded") == 0

    def test_format_mismatch_is_counted_stale(self, tmp_path):
        path = tmp_path / "models.pkl"
        path.write_bytes(pickle.dumps({"format": "other-v9", "models": {"k": 1}}))
        cache = FittedModelCache(persist_path=path)
        assert cache.obs.count("cache.stale") == 1
        assert cache.obs.count("cache.corrupt") == 0

    def test_garbage_is_not_counted_stale(self, tmp_path):
        path = tmp_path / "models.pkl"
        path.write_bytes(b"\x00garbage bytes, not a pickle")
        cache = FittedModelCache(persist_path=path)
        assert cache.obs.count("cache.corrupt") == 1
        assert cache.obs.count("cache.stale") == 0

    def test_warm_load_counts_nothing_stale(self, tmp_path):
        path = tmp_path / "models.pkl"
        cache = FittedModelCache(persist_path=path)
        cache.put("k", _fit_model()[0])
        cache.save()
        warm = FittedModelCache(persist_path=path)
        assert warm.obs.count("models_loaded") == 1
        assert warm.obs.count("cache.stale") == warm.obs.count("cache.corrupt") == 0
