"""Tests for the parallel training engine: fit_many and RF n_jobs.

The contract under test is *bit-identity*: every parallel path must produce
exactly the estimator the serial path produces, because all randomness is
pre-drawn (per-tree seeds) or self-contained (each estimator owns its RNG).
"""

import os

import numpy as np
import pytest

from repro.ml import (
    LogisticRegression,
    RandomForestClassifier,
    RNNClassifier,
    fit_many,
)
from repro.obs import ObsRegistry


class _FailsInWorker:
    """An estimator whose ``fit`` raises only outside the process that
    built it, i.e. only in a pool worker."""

    def __init__(self):
        self.parent = os.getpid()

    def fit(self, X, y):
        if os.getpid() != self.parent:
            raise RuntimeError("fit failed in a worker")
        return self


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((120, 8))
    w = rng.standard_normal(8)
    y = (X @ w + 0.3 * rng.standard_normal(120) > 0).astype(np.int64)
    return X, y


class TestForestNJobs:
    def test_parallel_matches_serial(self, xy):
        X, y = xy
        serial = RandomForestClassifier(n_estimators=12, max_depth=6, seed=3).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=12, max_depth=6, seed=3, n_jobs=2
        ).fit(X, y)
        assert np.array_equal(serial.predict_proba(X), parallel.predict_proba(X))
        assert np.array_equal(serial.feature_importances(), parallel.feature_importances())

    def test_n_jobs_one_stays_serial(self, xy):
        X, y = xy
        obs = ObsRegistry()
        RandomForestClassifier(n_estimators=4, seed=0, n_jobs=1, obs=obs).fit(X, y)
        assert obs.count("rf_trees_parallel") == 0
        assert obs.count("rf_trees_serial") == 4

    def test_parallel_counters(self, xy):
        X, y = xy
        obs = ObsRegistry()
        RandomForestClassifier(n_estimators=6, seed=0, n_jobs=2, obs=obs).fit(X, y)
        assert obs.count("rf_trees_parallel") == 6
        assert obs.calls("rf_tree_parallel") == 1
        assert obs.calls("rf_tree") == 6


class TestFitMany:
    def test_serial_returns_same_objects(self, xy):
        X, y = xy
        clfs = [LogisticRegression(n_iter=50 + 10 * i) for i in range(3)]
        fitted = fit_many([(c, X, y) for c in clfs])
        assert all(a is b for a, b in zip(fitted, clfs))

    def test_parallel_matches_serial_mixed_types(self, xy):
        X, y = xy

        def make():
            return [
                RandomForestClassifier(n_estimators=8, max_depth=5, seed=1),
                LogisticRegression(n_iter=80),
                RandomForestClassifier(n_estimators=8, max_depth=5, seed=9),
            ]

        serial = fit_many([(c, X, y) for c in make()], workers=None)
        parallel = fit_many([(c, X, y) for c in make()], workers=2)
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.predict_proba(X), p.predict_proba(X))

    def test_parallel_matches_serial_rnn(self):
        seqs = [["if", "(", "VAR", ")"], ["return", "NUM", ";"]] * 10
        y = np.array([1, 0] * 10)
        serial = fit_many([(RNNClassifier(epochs=2, seed=5), seqs, y)], workers=None)[0]
        parallel = fit_many([(RNNClassifier(epochs=2, seed=5), seqs, y)], workers=2)[0]
        assert np.array_equal(serial.predict_proba(seqs), parallel.predict_proba(seqs))
        assert serial.loss_history == parallel.loss_history
        assert serial._params.keys() == parallel._params.keys()
        for key, value in serial._params.items():
            assert np.array_equal(value, parallel._params[key]), key

    def test_empty_input(self):
        assert fit_many([]) == []
        assert fit_many([], workers=4) == []

    def test_obs_counters(self, xy):
        X, y = xy
        obs = ObsRegistry()
        fit_many([(LogisticRegression(n_iter=50), X, y)], workers=None, obs=obs)
        assert obs.count("fits_serial") == 1
        fit_many(
            [(LogisticRegression(n_iter=50 + 10 * i), X, y) for i in range(2)], workers=2, obs=obs
        )
        assert obs.count("fits_parallel") == 2

    def test_worker_fit_error_propagates(self, xy):
        # A bug inside a pool worker must surface, not be refit serially.
        X, y = xy
        obs = ObsRegistry()
        with pytest.raises(RuntimeError, match="fit failed in a worker"):
            fit_many([(_FailsInWorker(), X, y) for _ in range(2)], workers=2, obs=obs)
        assert obs.count("fits_serial") == 0
        assert obs.count("pool_fallback.fit") == 0
