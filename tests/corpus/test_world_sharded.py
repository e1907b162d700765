"""Sharded world construction: parity, merge protocol, and bugfix pins.

The acceptance bar for ``build_world(config, workers=N)``: the built world
— label order, :meth:`World.digest`, and merged obs counters — must be
bit-identical at every worker count, because every experiment's dataset
views are order-sensitive.  These tests pin that, the per-shard parity
checks of the merge protocol, the pickled-patch-cache fix, and the real
commit weekdays.
"""

from __future__ import annotations

import datetime
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.world import (
    WorldConfig,
    _build_shard,
    _merge_shards,
    _shard_tasks,
    build_world,
)
from repro.errors import CorpusError
from repro.obs import ObsRegistry


def _tiny_config(seed: int) -> WorldConfig:
    """The TINY-preset world configuration (kept in sync by value tests)."""
    return WorldConfig(
        n_commits=450,
        n_repos=6,
        files_per_repo=5,
        security_fraction=0.09,
        nvd_report_fraction=0.33,
        seed=seed,
    )


def _small_config(seed: int) -> WorldConfig:
    return WorldConfig(
        n_commits=4500,
        n_repos=16,
        files_per_repo=5,
        security_fraction=0.09,
        nvd_report_fraction=0.33,
        seed=seed,
    )


def _world_identity(world) -> tuple:
    """Everything parity is asserted on: digest, label order, label values."""
    return (world.digest(), list(world.labels), list(world.labels.values()))


class TestShardedSerialParity:
    @pytest.mark.parametrize("seed", [1, 7, 2021])
    def test_tiny_parity_across_seeds(self, seed):
        serial = build_world(_tiny_config(seed), workers=1)
        sharded = build_world(_tiny_config(seed), workers=2)
        assert _world_identity(serial) == _world_identity(sharded)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [5, 11, 2021])
    def test_small_parity_across_seeds(self, seed):
        serial = build_world(_small_config(seed), workers=1)
        sharded = build_world(_small_config(seed), workers=4)
        assert _world_identity(serial) == _world_identity(sharded)

    def test_worker_count_invariance(self):
        cfg = _tiny_config(2021)
        worlds = [build_world(_tiny_config(2021), workers=w) for w in (1, 2, 4)]
        assert len({w.digest() for w in worlds}) == 1
        assert _world_identity(worlds[0]) == _world_identity(worlds[1])
        assert _world_identity(worlds[0]) == _world_identity(worlds[2])
        assert cfg.n_commits == 450  # the plan covered every configured step
        assert worlds[0].build_stats["attempted"] == cfg.n_commits

    def test_default_workers_matches_legacy_call(self):
        # ``build_world(config)`` (the pre-sharding signature) must replay
        # the identical sharded scheme.
        assert _world_identity(build_world(_tiny_config(3))) == _world_identity(
            build_world(_tiny_config(3), workers=2)
        )


_OUTLINE_COUNTERS = (
    "world_outline_full",
    "world_outline_incremental",
    "world_outline_fallback",
    "world_outline_unparsable",
)


class TestObsCounterParity:
    def test_serial_and_parallel_counters_bit_identical(self):
        serial, parallel = ObsRegistry(), ObsRegistry()
        build_world(_tiny_config(13), workers=1, obs=serial)
        build_world(_tiny_config(13), workers=2, obs=parallel)
        assert parallel.counters == serial.counters
        assert set(_OUTLINE_COUNTERS) <= set(serial.counters)
        assert parallel.calls("world.shard") == serial.calls("world.shard")
        assert len(parallel.histograms["world.shard"]) == len(serial.histograms["world.shard"])

    def test_four_worker_counters_bit_identical(self):
        serial, parallel = ObsRegistry(), ObsRegistry()
        build_world(_tiny_config(13), workers=1, obs=serial)
        build_world(_tiny_config(13), workers=4, obs=parallel)
        assert parallel.counters == serial.counters
        assert set(_OUTLINE_COUNTERS) <= set(serial.counters)

    def test_outline_counts_equal_across_builds_in_one_process(self):
        # Each shard outlines from its own index, so a second build of the
        # same world parses exactly as much as the first.
        first, second = ObsRegistry(), ObsRegistry()
        build_world(_tiny_config(13), obs=first)
        build_world(_tiny_config(13), obs=second)
        counts = [{name: obs.count(name) for name in _OUTLINE_COUNTERS} for obs in (first, second)]
        assert counts[0] == counts[1]
        assert counts[0]["world_outline_incremental"] > 0

    def test_attempted_and_produced_counters_recorded(self):
        obs = ObsRegistry()
        world = build_world(_tiny_config(13), obs=obs)
        assert obs.count("world_commits_attempted") == 450
        assert obs.count("world_commits_produced") == len(world.labels)

    def test_shard_spans_graft_under_active_span(self):
        obs = ObsRegistry()
        with obs.span("world.build"):
            build_world(WorldConfig(n_commits=40, n_repos=3, seed=1), obs=obs)
        spans = obs.spans
        build_span = next(s for s in spans if s.name == "world.build")
        shard_spans = [s for s in spans if s.name == "world.shard"]
        assert len(shard_spans) == 3
        assert all(s.parent_id == build_span.span_id for s in shard_spans)


class TestBuildStats:
    def test_totals_consistent(self):
        world = build_world(_tiny_config(2021))
        stats = world.build_stats
        assert stats["attempted"] == 450
        assert stats["produced"] == len(world.labels)
        assert (
            stats["produced"] + stats["skipped_no_c_paths"] + stats["skipped_exhausted"]
            == stats["attempted"]
        )
        assert stats["security"] + stats["nonsec"] == stats["produced"]

    def test_per_shard_breakdown_sums_to_totals(self):
        world = build_world(_tiny_config(2021))
        stats = world.build_stats
        assert set(stats["shards"]) == set(world.repos)
        for key in ("attempted", "produced", "skipped_no_c_paths", "skipped_exhausted"):
            assert sum(s[key] for s in stats["shards"].values()) == stats[key]

    def test_per_shard_produced_matches_labels(self):
        world = build_world(_tiny_config(2021))
        for slug, shard in world.build_stats["shards"].items():
            owned = [lab for lab in world.labels.values() if lab.repo_slug == slug]
            assert len(owned) == shard["produced"]

    def test_no_c_paths_counted_not_silent(self):
        # files_per_repo=0 leaves only non-C seed files: every step skips,
        # and the accounting says so instead of silently shrinking.
        obs = ObsRegistry()
        world = build_world(
            WorldConfig(n_commits=30, n_repos=2, files_per_repo=0, seed=3), obs=obs
        )
        assert len(world.labels) == 0
        assert world.build_stats["skipped_no_c_paths"] == 30
        assert obs.count("world_commits_skipped_no_c_paths") == 30
        assert obs.count("world_commits_produced") == 0


class TestMergeProtocol:
    def _shards(self, config):
        tasks = _shard_tasks(config)
        return tasks, [_build_shard(t) for t in tasks]

    def test_merge_rejects_label_count_mismatch(self):
        tasks, results = self._shards(WorldConfig(n_commits=40, n_repos=3, seed=1))
        results[1].labels.pop()
        with pytest.raises(CorpusError, match="parity violated"):
            _merge_shards(tasks, results, ObsRegistry())

    def test_merge_rejects_foreign_labels(self):
        tasks, results = self._shards(WorldConfig(n_commits=40, n_repos=3, seed=1))
        results[0].labels[0] = results[2].labels[0]
        with pytest.raises(CorpusError):
            _merge_shards(tasks, results, ObsRegistry())

    def test_merge_rejects_tampered_stats(self):
        tasks, results = self._shards(WorldConfig(n_commits=40, n_repos=3, seed=1))
        results[2].stats["produced"] += 1
        with pytest.raises(CorpusError, match="parity violated"):
            _merge_shards(tasks, results, ObsRegistry())

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(4))))
    def test_merge_order_cannot_affect_digest(self, order):
        # Shards are built once per example set (cached on the class) and
        # merged in an arbitrary order; the world's ground-truth identity
        # must not change.
        cache = getattr(type(self), "_perm_cache", None)
        if cache is None:
            config = WorldConfig(n_commits=80, n_repos=4, seed=9)
            tasks = _shard_tasks(config)
            results = [_build_shard(t) for t in tasks]
            reference = _merge_shards(tasks, results, ObsRegistry()).digest()
            cache = (tasks, results, reference)
            type(self)._perm_cache = cache
        tasks, results, reference = cache
        permuted = _merge_shards(
            [tasks[i] for i in order], [results[i] for i in order], ObsRegistry()
        )
        assert permuted.digest() == reference


class TestPickleDropsPatchCache:
    def test_patch_cache_dropped_and_rewarmed(self, tiny_world):
        sha = tiny_world.all_shas()[0]
        warm = tiny_world.patch_for(sha)
        clone = pickle.loads(pickle.dumps(tiny_world))
        assert clone._patch_cache == {}
        assert clone.patch_for(sha).sha == warm.sha
        assert clone.patch_for(sha).files == warm.files

    def test_pickle_size_independent_of_warmed_cache(self):
        world = build_world(WorldConfig(n_commits=60, n_repos=3, seed=5))
        cold = len(pickle.dumps(world))
        for sha in world.all_shas():
            world.patch_for(sha)
        assert len(pickle.dumps(world)) == cold

    def test_build_stats_survive_pickle(self):
        world = build_world(WorldConfig(n_commits=60, n_repos=3, seed=5))
        clone = pickle.loads(pickle.dumps(world))
        assert clone.build_stats == world.build_stats


class TestCommitDates:
    def test_weekday_matches_calendar(self, tiny_world):
        weekdays = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
        seen = set()
        for sha in tiny_world.all_shas():
            date = tiny_world.repo_of(sha).commit_object(sha).date
            day_name, month_day, _, year, _ = date.split()
            month, day = (int(part) for part in month_day.split("/"))
            real = weekdays[datetime.date(int(year), month, day).weekday()]
            assert day_name == real, f"{sha[:12]}: {date}"
            seen.add(day_name)
        # A year of commits is not all Thursdays any more.
        assert len(seen) > 1
