"""Tests for the Table III baseline methods."""

import pytest

from repro.core import (
    CommitCache,
    VerificationOracle,
    brute_force_candidates,
    evaluate_candidates,
    nearest_link_candidates,
    pseudo_label_candidates,
    uncertainty_candidates,
)
from repro.errors import AugmentationError


@pytest.fixture(scope="module")
def setup(tiny_world):
    cache = CommitCache(tiny_world)
    seed_sec = tiny_world.nvd_shas()
    nonsec = [s for s in tiny_world.all_shas() if not tiny_world.label(s).is_security]
    seed_non = nonsec[: 2 * len(seed_sec)]
    pool = [s for s in tiny_world.wild_shas() if s not in set(seed_non)][:150]
    return cache, seed_sec, seed_non, pool


class TestBruteForce:
    def test_returns_whole_pool(self, setup):
        _, _, _, pool = setup
        assert brute_force_candidates(pool) == pool

    def test_copy_not_alias(self, setup):
        _, _, _, pool = setup
        out = brute_force_candidates(pool)
        assert out is not pool


class TestPseudoLabeling:
    def test_candidate_count_defaults_to_seed_size(self, setup):
        cache, seed_sec, seed_non, pool = setup
        out = pseudo_label_candidates(cache, seed_sec, seed_non, pool, seed=0)
        assert len(out) == len(seed_sec)

    def test_explicit_candidate_count(self, setup):
        cache, seed_sec, seed_non, pool = setup
        out = pseudo_label_candidates(cache, seed_sec, seed_non, pool, n_candidates=5, seed=0)
        assert len(out) == 5

    def test_candidates_from_pool(self, setup):
        cache, seed_sec, seed_non, pool = setup
        out = pseudo_label_candidates(cache, seed_sec, seed_non, pool, seed=0)
        assert set(out) <= set(pool)

    def test_needs_both_classes(self, setup):
        cache, seed_sec, _, pool = setup
        with pytest.raises(AugmentationError):
            pseudo_label_candidates(cache, seed_sec, [], pool)


class TestUncertainty:
    def test_unanimous_consensus_subset(self, setup):
        cache, seed_sec, seed_non, pool = setup
        out = uncertainty_candidates(cache, seed_sec, seed_non, pool, seed=0)
        assert set(out) <= set(pool)

    def test_custom_ensemble(self, setup):
        from repro.ml import GaussianNaiveBayes, LogisticRegression

        cache, seed_sec, seed_non, pool = setup
        out = uncertainty_candidates(
            cache, seed_sec, seed_non, pool,
            classifiers=[GaussianNaiveBayes(), LogisticRegression()],
        )
        assert set(out) <= set(pool)

    def test_needs_both_classes(self, setup):
        cache, seed_sec, _, pool = setup
        with pytest.raises(AugmentationError):
            uncertainty_candidates(cache, seed_sec, [], pool)


class TestNearestLinkCandidates:
    def test_one_candidate_per_seed(self, setup):
        cache, seed_sec, _, pool = setup
        out = nearest_link_candidates(cache, seed_sec, pool)
        assert len(out) == len(set(out)) == len(seed_sec)


class TestEvaluate:
    def test_full_verification_when_small(self, tiny_world, setup):
        _, _, _, pool = setup
        oracle = VerificationOracle(tiny_world, seed=0)
        result = evaluate_candidates("m", pool[:20], len(pool), oracle, sample_size=100)
        assert result.sampled == 20
        truth = sum(tiny_world.label(s).is_security for s in pool[:20])
        assert result.sampled_security == truth

    def test_sampling_caps_effort(self, tiny_world, setup):
        _, _, _, pool = setup
        oracle = VerificationOracle(tiny_world, seed=0)
        result = evaluate_candidates("m", pool, len(pool), oracle, sample_size=30)
        assert result.sampled == 30
        assert oracle.stats.candidates_reviewed == 30

    def test_empty_candidates(self, tiny_world, setup):
        _, _, _, pool = setup
        result = evaluate_candidates("m", [], len(pool), VerificationOracle(tiny_world))
        assert result.n_candidates == 0
        assert result.proportion == 0.0

    def test_row_renders(self, tiny_world, setup):
        _, _, _, pool = setup
        result = evaluate_candidates(
            "Nearest Link", pool[:10], len(pool), VerificationOracle(tiny_world, seed=1)
        )
        assert "Nearest Link" in result.row()
        assert "security=" in result.row()


class TestOrdering:
    def test_nearest_link_beats_brute_force(self, tiny_world, setup):
        """The paper's headline: targeted candidates out-yield the base rate."""
        cache, seed_sec, _, pool = setup
        nl = nearest_link_candidates(cache, seed_sec, pool)
        oracle = VerificationOracle(tiny_world, seed=2)
        nl_result = evaluate_candidates("nl", nl, len(pool), oracle, sample_size=500)
        bf_result = evaluate_candidates(
            "bf", pool, len(pool), VerificationOracle(tiny_world, seed=3), sample_size=500
        )
        assert nl_result.proportion > bf_result.proportion
