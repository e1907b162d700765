"""Tests for the world builder and its ground truth."""

import numpy as np
import pytest

from repro.analysis.experiments import TINY
from repro.corpus import (
    NVD_TYPE_DISTRIBUTION,
    WILD_TYPE_DISTRIBUTION,
    CommitLabel,
    WorldConfig,
    build_world,
)
from repro.errors import CorpusError


class TestConfigValidation:
    def test_defaults_valid(self):
        WorldConfig().validate()

    def test_bad_fraction(self):
        with pytest.raises(CorpusError):
            WorldConfig(security_fraction=1.5).validate()

    def test_bad_distribution_sum(self):
        cfg = WorldConfig()
        cfg.nvd_type_distribution = {1: 0.5}
        with pytest.raises(CorpusError):
            cfg.validate()

    def test_unknown_type_id(self):
        cfg = WorldConfig()
        cfg.wild_type_distribution = {99: 1.0}
        with pytest.raises(CorpusError):
            cfg.validate()

    def test_default_distributions_sum_to_one(self):
        assert sum(NVD_TYPE_DISTRIBUTION.values()) == pytest.approx(1.0)
        assert sum(WILD_TYPE_DISTRIBUTION.values()) == pytest.approx(1.0)


class TestWorldStructure:
    def test_repo_count(self, tiny_world):
        assert len(tiny_world.repos) == 6

    def test_labels_reference_real_commits(self, tiny_world):
        for sha, label in tiny_world.labels.items():
            assert sha in tiny_world.repos[label.repo_slug]

    def test_initial_commits_unlabeled(self, tiny_world):
        for slug, repo in tiny_world.repos.items():
            first = repo.shas()[0]
            assert first not in tiny_world.labels

    def test_every_label_has_consistent_fields(self, tiny_world):
        for label in tiny_world.labels.values():
            if label.is_security:
                assert label.pattern_type in range(1, 13)
                assert label.nonsec_kind is None
            else:
                assert label.pattern_type is None
                assert label.nonsec_kind is not None
                assert label.cve_id is None

    def test_nvd_subset_of_security(self, tiny_world):
        assert set(tiny_world.nvd_shas()) <= set(tiny_world.security_shas())

    def test_wild_and_nvd_partition(self, tiny_world):
        all_shas = set(tiny_world.all_shas())
        assert set(tiny_world.nvd_shas()) | set(tiny_world.wild_shas()) == all_shas
        assert not set(tiny_world.nvd_shas()) & set(tiny_world.wild_shas())


class TestWorldStatistics:
    def test_security_fraction_in_range(self, tiny_world):
        frac = len(tiny_world.security_shas()) / len(tiny_world.all_shas())
        assert 0.04 <= frac <= 0.20  # configured 0.10, wide tolerance

    def test_cve_ids_well_formed(self, tiny_world):
        for sha in tiny_world.nvd_shas():
            cve = tiny_world.label(sha).cve_id
            assert cve.startswith("CVE-")
            year = int(cve.split("-")[1])
            assert 2014 <= year <= 2021


class TestPatchExport:
    def test_patches_never_empty(self, tiny_world):
        for sha in tiny_world.all_shas()[:60]:
            assert not tiny_world.patch_for(sha).is_empty

    def test_patches_are_c_filtered(self, tiny_world):
        for sha in tiny_world.all_shas()[:60]:
            for path in tiny_world.patch_for(sha).touched_paths():
                assert path.endswith((".c", ".h"))

    def test_some_raw_commits_touch_non_c_files(self, tiny_world):
        """The world must exercise the §III-A non-C/C++ filter."""
        found = False
        for sha in tiny_world.all_shas():
            raw = tiny_world.repo_of(sha).patch_for(sha)
            if any(not f.is_c_cpp for f in raw.files):
                found = True
                break
        assert found

    def test_patch_cache_returns_same_object(self, tiny_world):
        sha = tiny_world.all_shas()[0]
        assert tiny_world.patch_for(sha) is tiny_world.patch_for(sha)

    def test_nvd_patches_are_bigger_on_average(self, tiny_world):
        """CVE-worthy fixes are multi-site; silent wild fixes are small."""
        nvd = set(tiny_world.nvd_shas())
        wild_sec = [s for s in tiny_world.security_shas() if s not in nvd]
        if not nvd or not wild_sec:
            pytest.skip("tiny world produced too few patches")
        nvd_sizes = [len(tiny_world.patch_for(s).added_lines()) for s in nvd]
        wild_sizes = [len(tiny_world.patch_for(s).added_lines()) for s in wild_sec]
        assert np.mean(nvd_sizes) > np.mean(wild_sizes)


#: World digests of the TINY preset: a change to the world builder that
#: moves a byte of a world moves one of these.
TINY_DIGESTS = {
    0: "b6f3801282b1cecbb33ab6a9321597b4c750d7ba",
    1: "f3531c4dc067adb8d4c9dee7dcbc8501cec7d721",
    2: "b7142b722a1ed35530bcf3ea6959dd303ba8c13b",
    3: "8737f441766bab8c14672d4de235ba9b30f753ba",
}


class TestDeterminism:
    @pytest.mark.parametrize("seed", sorted(TINY_DIGESTS))
    def test_tiny_world_digest_pinned(self, seed):
        assert build_world(TINY.world_config(seed)).digest() == TINY_DIGESTS[seed]

    def test_same_seed_same_world(self):
        cfg = WorldConfig(n_commits=60, n_repos=3, seed=5)
        a = build_world(cfg)
        b = build_world(WorldConfig(n_commits=60, n_repos=3, seed=5))
        assert list(a.labels) == list(b.labels)
        assert [l.pattern_type for l in a.labels.values()] == [
            l.pattern_type for l in b.labels.values()
        ]

    def test_different_seed_different_world(self):
        a = build_world(WorldConfig(n_commits=60, n_repos=3, seed=5))
        b = build_world(WorldConfig(n_commits=60, n_repos=3, seed=6))
        assert list(a.labels) != list(b.labels)

    def test_zero_commits(self):
        world = build_world(WorldConfig(n_commits=0, n_repos=2, seed=1))
        assert world.all_shas() == []
