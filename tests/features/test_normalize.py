"""Tests for max-abs weighting and the weighted distance matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import FeatureError
from repro.features import DistanceEngine, MaxAbsWeighter, weighted_distance_matrix


class TestMaxAbsWeighter:
    def test_weights_formula(self):
        m = np.array([[2.0, -4.0], [1.0, 2.0]])
        w = MaxAbsWeighter().fit(m)
        assert np.allclose(w.weights, [0.5, 0.25])

    def test_transform_in_range(self):
        m = np.array([[10.0, -3.0], [-20.0, 1.0], [5.0, 0.0]])
        out = MaxAbsWeighter().fit_transform(m)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_sign_preserved(self):
        m = np.array([[5.0, -2.0], [-5.0, 2.0]])
        out = MaxAbsWeighter().fit_transform(m)
        assert np.all(np.sign(out) == np.sign(m))

    def test_constant_zero_column_weight_zero(self):
        m = np.array([[0.0, 1.0], [0.0, 2.0]])
        w = MaxAbsWeighter().fit(m)
        assert w.weights[0] == 0.0

    def test_fit_over_union(self):
        a = np.array([[1.0]])
        b = np.array([[4.0]])
        w = MaxAbsWeighter().fit(a, b)
        assert w.weights[0] == 0.25

    def test_unfitted_raises(self):
        with pytest.raises(FeatureError):
            MaxAbsWeighter().transform(np.ones((2, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(FeatureError):
            MaxAbsWeighter().fit(np.zeros((0, 3)))

    def test_shape_mismatch_raises(self):
        w = MaxAbsWeighter().fit(np.ones((2, 3)))
        with pytest.raises(FeatureError):
            w.transform(np.ones((2, 4)))


class TestWeightedDistanceMatrix:
    def test_matches_naive_computation(self):
        rng = np.random.default_rng(0)
        sec = rng.uniform(-5, 5, size=(4, 6))
        wild = rng.uniform(-5, 5, size=(7, 6))
        d = weighted_distance_matrix(sec, wild)
        w = MaxAbsWeighter().fit(sec, wild)
        s, x = w.transform(sec), w.transform(wild)
        naive = np.array([[np.linalg.norm(s[i] - x[j]) for j in range(7)] for i in range(4)])
        assert np.allclose(d, naive, atol=1e-9)

    def test_shape(self):
        d = weighted_distance_matrix(np.ones((3, 5)), np.ones((8, 5)))
        assert d.shape == (3, 8)

    def test_identical_rows_zero_distance(self):
        sec = np.array([[1.0, 2.0, 3.0]])
        wild = np.array([[1.0, 2.0, 3.0], [9.0, 9.0, 9.0]])
        d = weighted_distance_matrix(sec, wild)
        assert d[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert d[0, 1] > 0

    @given(
        sec=arrays(np.float64, (3, 4), elements=st.floats(-100, 100)),
        wild=arrays(np.float64, (5, 4), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, sec, wild):
        if np.all(np.abs(sec) < 1e-300) and np.all(np.abs(wild) < 1e-300):
            return  # all columns below the subnormal floor carry no signal
        d = weighted_distance_matrix(sec, wild)
        assert np.all(d >= 0)
        assert np.all(np.isfinite(d))


class TestDistanceEngine:
    """The incremental engine must be indistinguishable from full rebuilds."""

    def _random_sides(self, seed=0, m=5, n=20, d=6):
        rng = np.random.default_rng(seed)
        return rng.uniform(-5, 5, size=(m, d)), rng.uniform(-5, 5, size=(n, d))

    def test_reset_matches_full(self):
        sec, wild = self._random_sides()
        engine = DistanceEngine()
        assert np.array_equal(engine.reset(sec, wild), weighted_distance_matrix(sec, wild))

    def test_update_appends_rows_and_masks_columns(self):
        sec, wild = self._random_sides()
        engine = DistanceEngine()
        engine.reset(sec, wild)
        d = engine.update(new_security=wild[2:4], drop_wild=[2, 3])
        assert d.shape == (7, 20)
        assert engine.alive_columns == 18
        assert np.all(np.isinf(d[:, [2, 3]]))
        live = [i for i in range(20) if i not in (2, 3)]
        ref = weighted_distance_matrix(np.vstack([sec, wild[2:4]]), wild[live])
        assert np.allclose(d[:, live], ref, atol=1e-9)

    def test_multi_round_parity_with_from_scratch(self):
        """Property-style drive: several rounds of random deltas stay within
        1e-9 of a from-scratch rebuild over the live pool."""
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            sec, wild = self._random_sides(seed=200 + trial, m=4, n=30)
            engine = DistanceEngine()
            engine.reset(sec, wild)
            security = sec
            live = np.ones(len(wild), dtype=bool)
            for _ in range(4):
                live_idx = np.flatnonzero(live)
                if len(live_idx) <= len(security):
                    break
                reviewed = rng.choice(live_idx, size=min(3, len(live_idx) - 1), replace=False)
                verified = reviewed[: rng.integers(0, len(reviewed) + 1)]
                live[reviewed] = False
                security = np.vstack([security, wild[verified]]) if len(verified) else security
                d = engine.update(
                    new_security=wild[verified] if len(verified) else None,
                    drop_wild=reviewed,
                )
                live_idx = np.flatnonzero(live)
                ref = weighted_distance_matrix(security, wild[live_idx])
                assert np.allclose(d[:, live_idx], ref, atol=1e-9)
                assert np.all(np.isinf(d[:, ~live]))

    def test_fallback_when_max_holder_dropped(self):
        """Dropping the single row holding a column's max-abs must trigger a
        full recompute (the fitted weights went stale) and still match."""
        from repro.obs import ObsRegistry

        sec = np.array([[1.0, 1.0], [2.0, 0.5]])
        wild = np.array([[10.0, 1.0], [1.0, 1.0], [2.0, 1.5], [0.5, 0.2]])
        obs = ObsRegistry()
        engine = DistanceEngine(obs=obs)
        engine.reset(sec, wild)
        assert obs.count("distance_full_recomputes") == 1
        d = engine.update(drop_wild=[0])  # wild[0] held the max of column 0
        assert obs.count("distance_full_recomputes") == 2
        ref = weighted_distance_matrix(sec, wild[1:])
        assert np.allclose(d[:, 1:], ref, atol=1e-9)

    def test_no_fallback_when_maxima_survive(self):
        from repro.obs import ObsRegistry

        sec = np.array([[1.0, 1.0], [2.0, 0.5]])
        wild = np.array([[10.0, 1.0], [10.0, 1.0], [2.0, 1.5], [0.5, 0.2]])
        obs = ObsRegistry()
        engine = DistanceEngine(obs=obs)
        engine.reset(sec, wild)
        engine.update(drop_wild=[0])  # wild[1] still holds the column-0 max
        assert obs.count("distance_full_recomputes") == 1
        assert obs.count("distance_incremental_updates") == 1

    def test_matrix_is_buffer_view_across_updates(self):
        sec, wild = self._random_sides()
        engine = DistanceEngine()
        first = engine.reset(sec, wild)
        engine.update(drop_wild=[0])
        assert np.all(np.isinf(engine.matrix[:, 0]))
        assert engine.shape == (5, 20)
        assert first.shape == (5, 20)

    def test_reset_empty_raises(self):
        engine = DistanceEngine()
        with pytest.raises(FeatureError):
            engine.reset(np.zeros((0, 4)), np.ones((3, 4)))
        with pytest.raises(FeatureError):
            engine.reset(np.ones((3, 4)), np.zeros((0, 4)))

    def test_update_before_reset_raises(self):
        with pytest.raises(FeatureError):
            DistanceEngine().update(new_security=np.ones((1, 4)))
        with pytest.raises(FeatureError):
            _ = DistanceEngine().matrix

    def test_masking_every_column_raises(self):
        sec, wild = self._random_sides(m=2, n=4)
        engine = DistanceEngine()
        engine.reset(sec, wild)
        with pytest.raises(FeatureError):
            engine.update(drop_wild=[0, 1, 2, 3])

    def test_fit_maxima_matches_fit(self):
        sec, wild = self._random_sides()
        by_rows = MaxAbsWeighter().fit(sec, wild)
        by_max = MaxAbsWeighter().fit_maxima(
            np.max(np.abs(np.vstack([sec, wild])), axis=0)
        )
        assert np.array_equal(by_rows.weights, by_max.weights)
