"""Tests for the verification oracle and the augmentation loop."""

import numpy as np
import pytest

from repro.core import (
    DatasetAugmentation,
    CommitCache,
    SearchSet,
    VerificationOracle,
)
from repro.errors import AugmentationError


@pytest.fixture(scope="module")
def cache(tiny_world):
    return CommitCache(tiny_world)


class TestOracle:
    def test_perfect_oracle_matches_truth(self, tiny_world):
        oracle = VerificationOracle(tiny_world, seed=0)
        for sha in tiny_world.all_shas()[:50]:
            assert oracle.verify(sha) == tiny_world.label(sha).is_security

    def test_stats_accumulate(self, tiny_world):
        oracle = VerificationOracle(tiny_world, seed=0)
        shas = tiny_world.all_shas()[:30]
        verdicts = oracle.verify_many(shas)
        assert oracle.stats.candidates_reviewed == 30
        assert oracle.stats.labeled_security == int(verdicts.sum())
        assert oracle.stats.labeled_non_security == 30 - int(verdicts.sum())

    def test_noisy_oracle_flips_some(self, tiny_world):
        noisy = VerificationOracle(tiny_world, annotator_error_rate=0.45, seed=1)
        shas = tiny_world.all_shas()[:200]
        truth = np.array([tiny_world.label(s).is_security for s in shas])
        verdicts = noisy.verify_many(shas)
        assert np.any(verdicts != truth)
        assert noisy.stats.disagreements > 0

    def test_majority_vote_suppresses_small_noise(self, tiny_world):
        slightly_noisy = VerificationOracle(
            tiny_world, n_annotators=3, annotator_error_rate=0.05, seed=2
        )
        shas = tiny_world.all_shas()[:200]
        truth = np.array([tiny_world.label(s).is_security for s in shas])
        verdicts = slightly_noisy.verify_many(shas)
        # Majority of 3 at 5% flip rate -> < 1% expected decision errors.
        assert np.mean(verdicts != truth) < 0.05

    def test_even_panel_rejected(self, tiny_world):
        with pytest.raises(AugmentationError):
            VerificationOracle(tiny_world, n_annotators=2)

    def test_bad_error_rate_rejected(self, tiny_world):
        with pytest.raises(AugmentationError):
            VerificationOracle(tiny_world, annotator_error_rate=0.7)


class TestAugmentationRound:
    def test_round_partitions_candidates(self, tiny_world, cache):
        oracle = VerificationOracle(tiny_world, seed=3)
        aug = DatasetAugmentation(cache, oracle)
        seed_sec = tiny_world.nvd_shas()
        pool = tiny_world.wild_shas()[:150]
        verified, rejected = aug.run_round(seed_sec, pool)
        assert len(verified) + len(rejected) <= len(seed_sec)
        assert set(verified) <= set(pool)
        assert set(rejected) <= set(pool)
        assert not set(verified) & set(rejected)

    def test_verified_are_truly_security(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world, seed=4))
        verified, _ = aug.run_round(tiny_world.nvd_shas(), tiny_world.wild_shas()[:150])
        for sha in verified:
            assert tiny_world.label(sha).is_security

    def test_pool_smaller_than_seed_raises(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world, seed=5))
        seed_sec = tiny_world.security_shas()
        with pytest.raises(AugmentationError):
            aug.run_round(seed_sec, tiny_world.wild_shas()[: len(seed_sec) - 1])


class TestSchedule:
    def test_rounds_recorded(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world, seed=6))
        pool = tuple(tiny_world.wild_shas()[:200])
        outcome = aug.run_schedule(tiny_world.nvd_shas(), [SearchSet("Set I", pool, rounds=2)])
        assert len(outcome.rounds) == 2
        assert outcome.rounds[0].round_no == 1
        assert outcome.rounds[1].round_no == 2

    def test_security_set_grows_monotonically(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world, seed=7))
        seed_sec = tiny_world.nvd_shas()
        pool = tuple(tiny_world.wild_shas()[:200])
        outcome = aug.run_schedule(seed_sec, [SearchSet("Set I", pool, rounds=2)])
        assert len(outcome.security_shas) == len(seed_sec) + outcome.wild_security_count

    def test_candidates_not_reused_across_rounds(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world, seed=8))
        pool = tuple(tiny_world.wild_shas()[:200])
        outcome = aug.run_schedule(tiny_world.nvd_shas(), [SearchSet("Set I", pool, rounds=3)])
        reviewed = outcome.security_shas + outcome.non_security_shas
        wild_reviewed = [s for s in reviewed if s not in set(tiny_world.nvd_shas())]
        assert len(wild_reviewed) == len(set(wild_reviewed))

    def test_ratio_threshold_stops_early(self, tiny_world, cache):
        aug = DatasetAugmentation(
            cache, VerificationOracle(tiny_world, seed=9), ratio_threshold=1.0
        )
        pool = tuple(tiny_world.wild_shas()[:200])
        outcome = aug.run_schedule(tiny_world.nvd_shas(), [SearchSet("Set I", pool, rounds=5)])
        assert len(outcome.rounds) == 1  # no round can reach ratio >= 1.0 here

    def test_table_renders(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world, seed=10))
        pool = tuple(tiny_world.wild_shas()[:150])
        outcome = aug.run_schedule(tiny_world.nvd_shas(), [SearchSet("Set I", pool, rounds=1)])
        text = outcome.table()
        assert "Set I" in text
        assert "ratio=" in text

    def test_round_result_ratio(self):
        from repro.core import RoundResult

        r = RoundResult(1, "Set I", 100, 50, 10)
        assert r.ratio == pytest.approx(0.2)
        empty = RoundResult(1, "Set I", 100, 0, 0)
        assert empty.ratio == 0.0

    def test_bad_threshold_rejected(self, tiny_world, cache):
        with pytest.raises(AugmentationError):
            DatasetAugmentation(cache, VerificationOracle(tiny_world), ratio_threshold=2.0)

    def test_empty_search_set_rejected(self):
        with pytest.raises(AugmentationError):
            SearchSet("empty", (), rounds=1)


class TestIncrementalSchedule:
    """incremental=True must be a pure optimization over the full rebuild."""

    def _outcomes(self, tiny_world, cache, sets, oracle_seed):
        results = []
        for incremental in (True, False):
            aug = DatasetAugmentation(
                cache,
                VerificationOracle(tiny_world, seed=oracle_seed),
                incremental=incremental,
            )
            results.append(aug.run_schedule(tiny_world.nvd_shas(), sets))
        return results

    @pytest.mark.parametrize("oracle_seed", [0, 1, 2, 3])
    def test_matches_full_rebuild_round_by_round(self, tiny_world, cache, oracle_seed):
        pool = tuple(tiny_world.wild_shas()[:200])
        sets = [SearchSet("Set I", pool, rounds=4)]
        inc, full = self._outcomes(tiny_world, cache, sets, oracle_seed)
        assert inc.rounds == full.rounds
        assert inc.security_shas == full.security_shas
        assert inc.non_security_shas == full.non_security_shas

    def test_matches_full_rebuild_across_sets(self, tiny_world, cache):
        wild = tiny_world.wild_shas()
        sets = [
            SearchSet("Set I", tuple(wild[:150]), rounds=2),
            SearchSet("Set II", tuple(wild[150:350]), rounds=2),
        ]
        inc, full = self._outcomes(tiny_world, cache, sets, oracle_seed=5)
        assert inc.rounds == full.rounds
        assert inc.security_shas == full.security_shas

    def test_ratio_threshold_parity(self, tiny_world, cache):
        pool = tuple(tiny_world.wild_shas()[:200])
        sets = [SearchSet("Set I", pool, rounds=5)]
        outcomes = []
        for incremental in (True, False):
            aug = DatasetAugmentation(
                cache,
                VerificationOracle(tiny_world, seed=6),
                ratio_threshold=0.5,
                incremental=incremental,
            )
            outcomes.append(aug.run_schedule(tiny_world.nvd_shas(), sets))
        assert outcomes[0].rounds == outcomes[1].rounds

    def test_counts_cells_reused(self, tiny_world, cache):
        from repro.obs import ObsRegistry

        obs = ObsRegistry()
        aug = DatasetAugmentation(
            cache, VerificationOracle(tiny_world, seed=7), incremental=True, obs=obs
        )
        pool = tuple(tiny_world.wild_shas()[:200])
        aug.run_schedule(tiny_world.nvd_shas(), [SearchSet("Set I", pool, rounds=3)])
        assert obs.count("distance_full_recomputes") >= 1
        total = obs.count("distance_incremental_updates") + obs.count(
            "distance_full_recomputes"
        )
        assert total == 3  # one distance build per round, however it happened
        assert obs.seconds("search") > 0.0
        assert obs.seconds("verify") > 0.0


class TestEmptySideErrors:
    def test_empty_security_side_reports_counts(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world))
        pool = tiny_world.wild_shas()[:10]
        with pytest.raises(AugmentationError) as err:
            aug.run_round([], pool)
        assert "0 security shas" in str(err.value)
        assert "10 pool shas" in str(err.value)

    def test_empty_pool_side_reports_counts(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world))
        seed = tiny_world.nvd_shas()[:4]
        with pytest.raises(AugmentationError) as err:
            aug.run_round(seed, [])
        assert "4 security shas" in str(err.value)
        assert "0 pool shas" in str(err.value)

    def test_schedule_with_empty_seed_raises_augmentation_error(self, tiny_world, cache):
        aug = DatasetAugmentation(cache, VerificationOracle(tiny_world))
        pool = tuple(tiny_world.wild_shas()[:20])
        with pytest.raises(AugmentationError):
            aug.run_schedule([], [SearchSet("Set I", pool, rounds=1)])
