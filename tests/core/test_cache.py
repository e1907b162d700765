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


class TestNpzPersistence:
    def test_round_trip(self, tiny_world, tmp_path):
        shas = tiny_world.all_shas()[:25]
        path = tmp_path / "vectors.npz"
        cache = PatchFeatureCache(tiny_world, persist_path=path)
        matrix = cache.matrix(shas)
        cache.save()
        assert path.exists()

        reloaded = PatchFeatureCache(tiny_world, persist_path=path)
        assert len(reloaded) == len(set(shas))
        assert reloaded.obs.count("npz_vectors_loaded") == len(set(shas))
        assert np.array_equal(reloaded.matrix(shas), matrix)
        assert reloaded.obs.count("vectors_extracted") == 0

    def test_save_without_path_raises(self, tiny_world):
        with pytest.raises(ValueError):
            PatchFeatureCache(tiny_world).save()

    def test_save_to_explicit_path(self, tiny_world, tmp_path):
        cache = PatchFeatureCache(tiny_world)
        cache.vector(tiny_world.all_shas()[0])
        target = cache.save(tmp_path / "explicit.npz")
        assert target.exists()

    def test_corrupt_file_is_cold_cache(self, tiny_world, tmp_path):
        path = tmp_path / "vectors.npz"
        path.write_bytes(b"not an npz archive")
        cache = PatchFeatureCache(tiny_world, persist_path=path)
        assert len(cache) == 0
        assert cache.vector(tiny_world.all_shas()[0]).shape == (FEATURE_COUNT,)

    def test_context_flag_mismatch_ignored(self, tiny_world, tmp_path):
        path = tmp_path / "vectors.npz"
        cache = PatchFeatureCache(tiny_world, use_repo_context=True, persist_path=path)
        cache.vector(tiny_world.all_shas()[0])
        cache.save()
        other = PatchFeatureCache(tiny_world, use_repo_context=False, persist_path=path)
        assert len(other) == 0  # contextless vectors differ; file must be ignored


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

    def test_persistence_round_trip(self, tiny_world, tmp_path):
        path = tmp_path / "tokens.pkl"
        shas = tiny_world.all_shas()[:15]
        cache = TokenSequenceCache(tiny_world, persist_path=path)
        seqs = cache.sequences(shas)
        cache.save()
        assert path.exists()

        reloaded = TokenSequenceCache(tiny_world, persist_path=path)
        assert len(reloaded) == len(set(shas))
        assert reloaded.obs.count("token_sequences_loaded") == len(set(shas))
        assert reloaded.sequences(shas) == seqs
        assert reloaded.obs.count("token_cache_misses") == 0

    def test_save_without_path_raises(self, tiny_world):
        with pytest.raises(ValueError):
            TokenSequenceCache(tiny_world).save()

    def test_corrupt_file_is_cold_cache(self, tiny_world, tmp_path):
        path = tmp_path / "tokens.pkl"
        path.write_bytes(b"not a pickle")
        cache = TokenSequenceCache(tiny_world, persist_path=path)
        assert len(cache) == 0
        assert cache.sequence(tiny_world.all_shas()[0])

    def test_context_flag_mismatch_ignored(self, tiny_world, tmp_path):
        path = tmp_path / "tokens.pkl"
        cache = TokenSequenceCache(tiny_world, include_context=True, persist_path=path)
        cache.sequence(tiny_world.all_shas()[0])
        cache.save()
        other = TokenSequenceCache(tiny_world, include_context=False, persist_path=path)
        assert len(other) == 0  # context tokens differ; file must be ignored


class TestCrashSafePersistence:
    """Saves replace the file atomically; unreadable files are counted."""

    def test_failed_token_save_keeps_previous_file(self, tiny_world, tmp_path, monkeypatch):
        path = tmp_path / "tokens.pkl"
        cache = TokenSequenceCache(tiny_world, persist_path=path)
        cache.sequences(tiny_world.all_shas()[:5])
        cache.save()
        cache.sequences(tiny_world.all_shas()[5:10])

        def torn_dump(obj, fh):
            fh.write(b"\x80\x04partial")
            raise RuntimeError("crash mid-save")

        monkeypatch.setattr("repro.core.cache.pickle.dump", torn_dump)
        with pytest.raises(RuntimeError, match="crash mid-save"):
            cache.save()
        monkeypatch.undo()
        reloaded = TokenSequenceCache(tiny_world, persist_path=path)
        assert len(reloaded) == 5
        assert reloaded.obs.count("cache.corrupt") == 0
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_npz_save_keeps_previous_file(self, tiny_world, tmp_path, monkeypatch):
        path = tmp_path / "vectors.npz"
        cache = PatchFeatureCache(tiny_world, persist_path=path)
        cache.matrix(tiny_world.all_shas()[:4])
        cache.save()

        def torn_savez(fh, **arrays):
            fh.write(b"PK\x03\x04partial")
            raise RuntimeError("crash mid-save")

        monkeypatch.setattr(np, "savez_compressed", torn_savez)
        with pytest.raises(RuntimeError, match="crash mid-save"):
            cache.save()
        monkeypatch.undo()
        reloaded = PatchFeatureCache(tiny_world, persist_path=path)
        assert len(reloaded) == 4
        assert list(tmp_path.iterdir()) == [path]

    def test_npz_save_keeps_its_name(self, tiny_world, tmp_path):
        cache = PatchFeatureCache(tiny_world)
        cache.vector(tiny_world.all_shas()[0])
        target = cache.save(tmp_path / "vectors.cache")
        assert list(tmp_path.iterdir()) == [target]
        assert len(PatchFeatureCache(tiny_world, persist_path=target)) == 1

    def test_garbage_token_cache_is_counted(self, tiny_world, tmp_path):
        path = tmp_path / "tokens.pkl"
        path.write_bytes(b"\x00garbage bytes, not a pickle")
        cache = TokenSequenceCache(tiny_world, persist_path=path)
        assert len(cache) == 0
        assert cache.obs.count("cache.corrupt") == 1

    def test_garbage_npz_is_counted(self, tiny_world, tmp_path):
        path = tmp_path / "vectors.npz"
        path.write_bytes(b"not an npz archive")
        cache = PatchFeatureCache(tiny_world, persist_path=path)
        assert len(cache) == 0
        assert cache.obs.count("cache.corrupt") == 1
