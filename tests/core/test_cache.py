"""Tests for the per-world feature and token-sequence caches."""

import numpy as np
import pytest

from repro.core import PatchFeatureCache, TokenSequenceCache
from repro.features import FEATURE_COUNT, feature_index
from repro.ml import patch_token_sequence


class TestPatchFeatureCache:
    def test_vector_shape(self, tiny_world):
        cache = PatchFeatureCache(tiny_world)
        vec = cache.vector(tiny_world.all_shas()[0])
        assert vec.shape == (FEATURE_COUNT,)

    def test_vector_cached(self, tiny_world):
        cache = PatchFeatureCache(tiny_world)
        sha = tiny_world.all_shas()[0]
        assert cache.vector(sha) is cache.vector(sha)
        assert len(cache) == 1

    def test_matrix_order_matches_input(self, tiny_world):
        cache = PatchFeatureCache(tiny_world)
        shas = tiny_world.all_shas()[:5]
        matrix = cache.matrix(shas)
        for i, sha in enumerate(shas):
            assert np.array_equal(matrix[i], cache.vector(sha))

    def test_empty_matrix(self, tiny_world):
        assert PatchFeatureCache(tiny_world).matrix([]).shape == (0, FEATURE_COUNT)

    def test_repo_context_used(self, tiny_world):
        """With context, affected-files percent reflects the repo size."""
        with_ctx = PatchFeatureCache(tiny_world, use_repo_context=True)
        without = PatchFeatureCache(tiny_world, use_repo_context=False)
        idx = feature_index("affected_files_pct")
        sha = tiny_world.all_shas()[0]
        # Context divides by total repo files (>1); fallback uses 1.0.
        assert with_ctx.vector(sha)[idx] < without.vector(sha)[idx]

    def test_unknown_sha_raises(self, tiny_world):
        cache = PatchFeatureCache(tiny_world)
        with pytest.raises(KeyError):
            cache.vector("f" * 40)


class TestParallelExtraction:
    def test_workers_match_serial(self, tiny_world):
        shas = tiny_world.all_shas()[:60]
        serial = PatchFeatureCache(tiny_world).matrix(shas)
        parallel = PatchFeatureCache(tiny_world).matrix(shas, workers=2)
        assert np.array_equal(serial, parallel)

    def test_default_workers_used(self, tiny_world):
        shas = tiny_world.all_shas()[:40]
        cache = PatchFeatureCache(tiny_world, default_workers=2)
        assert np.array_equal(
            cache.matrix(shas), PatchFeatureCache(tiny_world).matrix(shas)
        )

    def test_small_batches_stay_serial(self, tiny_world):
        # Below ~2 chunks per worker the pool is skipped; results identical.
        shas = tiny_world.all_shas()[:3]
        cache = PatchFeatureCache(tiny_world)
        assert cache.matrix(shas, workers=8).shape == (3, FEATURE_COUNT)


class TestTokenSequenceCache:
    def test_matches_direct_tokenization(self, tiny_world):
        cache = TokenSequenceCache(tiny_world)
        for sha in tiny_world.all_shas()[:10]:
            assert cache.sequence(sha) == patch_token_sequence(tiny_world.patch_for(sha))

    def test_hit_and_miss_counters(self, tiny_world):
        cache = TokenSequenceCache(tiny_world)
        sha = tiny_world.all_shas()[0]
        assert cache.sequence(sha) is cache.sequence(sha)
        assert cache.obs.count("token_cache_misses") == 1
        assert cache.obs.count("token_cache_hits") == 1
        assert len(cache) == 1

    def test_sequence_of_memoizes_by_sha(self, tiny_world):
        cache = TokenSequenceCache(tiny_world)
        patch = tiny_world.patch_for(tiny_world.all_shas()[0])
        assert cache.sequence_of(patch) is cache.sequence_of(patch)
        assert cache.sequence_of(patch) == patch_token_sequence(patch)

    def test_sequences_preserve_order_and_duplicates(self, tiny_world):
        cache = TokenSequenceCache(tiny_world)
        shas = tiny_world.all_shas()[:4]
        shas = shas + [shas[0]]
        seqs = cache.sequences(shas)
        assert len(seqs) == 5
        assert seqs[0] == seqs[-1]

    def test_parallel_matches_serial(self, tiny_world):
        shas = tiny_world.all_shas()[:40]
        serial = TokenSequenceCache(tiny_world).sequences(shas)
        parallel = TokenSequenceCache(tiny_world).sequences(shas, workers=2)
        assert serial == parallel
