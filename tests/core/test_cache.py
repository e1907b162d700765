"""Tests for the per-world commit cache (feature vectors and token sequences)."""

import numpy as np
import pytest

from repro import parallel
from repro.analysis.experiments import TINY, ExperimentWorld, run_table3, run_table6
from repro.core import CommitCache
from repro.features import FEATURE_COUNT, FeatureExtractor, feature_index
from repro.ml import RandomForestClassifier, patch_token_sequence


class TestPatchFeatureCache:
    def test_vector_shape(self, tiny_world):
        cache = CommitCache(tiny_world)
        vec = cache.vector(tiny_world.all_shas()[0])
        assert vec.shape == (FEATURE_COUNT,)

    def test_vector_cached(self, tiny_world):
        cache = CommitCache(tiny_world)
        sha = tiny_world.all_shas()[0]
        assert cache.vector(sha) is cache.vector(sha)
        assert len(cache) == 1

    def test_matrix_order_matches_input(self, tiny_world):
        cache = CommitCache(tiny_world)
        shas = tiny_world.all_shas()[:5]
        matrix = cache.matrix(shas)
        for i, sha in enumerate(shas):
            assert np.array_equal(matrix[i], cache.vector(sha))

    def test_empty_matrix(self, tiny_world):
        assert CommitCache(tiny_world).matrix([]).shape == (0, FEATURE_COUNT)

    def test_repo_context_used(self, tiny_world):
        """With context, affected-files percent reflects the repo size."""
        cache = CommitCache(tiny_world)
        idx = feature_index("affected_files_pct")
        sha = tiny_world.all_shas()[0]
        without = FeatureExtractor(None).extract(tiny_world.patch_for(sha))
        # Context divides by total repo files (>1); fallback uses 1.0.
        assert cache.vector(sha)[idx] < without[idx]

    def test_unknown_sha_raises(self, tiny_world):
        cache = CommitCache(tiny_world)
        with pytest.raises(KeyError):
            cache.vector("f" * 40)


class TestParallelExtraction:
    def test_workers_match_serial(self, tiny_world):
        shas = tiny_world.all_shas()[:60]
        serial = CommitCache(tiny_world).matrix(shas)
        parallel = CommitCache(tiny_world, workers=2).matrix(shas)
        assert np.array_equal(serial, parallel)

    def test_default_workers_used(self, tiny_world):
        shas = tiny_world.all_shas()[:40]
        cache = CommitCache(tiny_world, workers=2)
        assert np.array_equal(cache.matrix(shas), CommitCache(tiny_world).matrix(shas))
        assert cache.obs.calls("extract_parallel") == 1

    def test_small_batches_stay_serial(self, tiny_world):
        # Below ~2 chunks per worker the pool is skipped; results identical.
        shas = tiny_world.all_shas()[:3]
        cache = CommitCache(tiny_world, workers=8)
        assert cache.matrix(shas).shape == (3, FEATURE_COUNT)
        assert cache.obs.calls("extract_parallel") == 0


class TestTokenSequenceCache:
    def test_matches_direct_tokenization(self, tiny_world):
        cache = CommitCache(tiny_world)
        for sha in tiny_world.all_shas()[:10]:
            assert cache.sequence(sha) == patch_token_sequence(tiny_world.patch_for(sha))

    def test_hit_and_miss_counters(self, tiny_world):
        cache = CommitCache(tiny_world)
        sha = tiny_world.all_shas()[0]
        assert cache.sequence(sha) is cache.sequence(sha)
        assert cache.obs.count("token_cache_misses") == 1
        assert cache.obs.count("token_cache_hits") == 1
        assert len(cache) == 1

    def test_sequence_of_memoizes_by_sha(self, tiny_world):
        cache = CommitCache(tiny_world)
        patch = tiny_world.patch_for(tiny_world.all_shas()[0])
        assert cache.sequence_of(patch) is cache.sequence_of(patch)
        assert cache.sequence_of(patch) == patch_token_sequence(patch)

    def test_sequences_preserve_order_and_duplicates(self, tiny_world):
        cache = CommitCache(tiny_world)
        shas = tiny_world.all_shas()[:4]
        shas = shas + [shas[0]]
        seqs = cache.sequences(shas)
        assert len(seqs) == 5
        assert seqs[0] == seqs[-1]

    def test_parallel_matches_serial(self, tiny_world):
        shas = tiny_world.all_shas()[:40]
        serial = CommitCache(tiny_world).sequences(shas)
        parallel = CommitCache(tiny_world, workers=2).sequences(shas)
        assert serial == parallel


class TestOnePool:
    """Extraction, tokenization and stateless fits share the cache's pool."""

    def test_extract_and_tokenize_share_the_live_pool(self, tiny_world):
        cache = CommitCache(tiny_world, workers=2)
        shas = tiny_world.all_shas()[:40]
        cache.matrix(shas)
        live = parallel._LIVE
        assert live is not None and live.state() is cache
        cache.sequences(shas)
        assert parallel._LIVE is live
        assert cache.obs.calls("tokenize_parallel") == 1

    def test_forest_fit_keeps_the_live_pool(self, tiny_world):
        cache = CommitCache(tiny_world, workers=2)
        shas = tiny_world.all_shas()[:40]
        X = cache.matrix(shas)
        live = parallel._LIVE
        assert live is not None and live.state() is cache
        y = np.array([i % 2 for i in range(len(shas))])
        RandomForestClassifier(n_estimators=8, seed=0, n_jobs=2, obs=cache.obs).fit(X, y)
        assert cache.obs.count("rf_trees_parallel") == 8
        assert parallel._LIVE is live

    def test_tables_3_and_6_fork_one_pool(self, monkeypatch):
        ew = ExperimentWorld(TINY, seed=2021, workers=2, ml_workers=2)
        forks = []
        new_executor = parallel._new_executor

        def counting(workers):
            forks.append(workers)
            return new_executor(workers)

        monkeypatch.setattr(parallel, "_new_executor", counting)
        run_table3(ew)
        run_table6(ew)
        assert ew.obs.calls("extract_parallel") > 0
        assert ew.obs.calls("tokenize_parallel") > 0
        assert len(forks) <= 1
