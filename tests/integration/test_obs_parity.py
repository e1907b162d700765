"""Serial vs parallel observability parity.

The merge protocol's acceptance bar: running the same work serially and
through the chunked process pools must report *bit-identical* merged
counters and per-item timer call counts.  Parallel runs used to bulk-count
on the parent side (and silently drop worker-side timings); these tests
pin the fixed behavior for the commit cache's feature vectors and token
sequences, and for the linter.

Timer *seconds* differ between modes by construction (different clocks in
different processes), so parity is asserted on counters, call counts, and
histogram lengths — the deterministic parts.
"""

from __future__ import annotations

import pytest

from repro.core.cache import CommitCache
from repro.obs import ObsRegistry
from repro.staticcheck import lint_world

pytestmark = pytest.mark.slow


def shas_with_dupes(world, n: int) -> list[str]:
    """A workload with repeats, so cache-hit counting is exercised too."""
    shas = sorted(world.labels)[:n]
    return shas + shas[: n // 3]


class TestFeatureCacheParity:
    def test_counters_match_serial(self, tiny_world):
        shas = shas_with_dupes(tiny_world, 60)
        serial = ObsRegistry()
        CommitCache(tiny_world, obs=serial).matrix(shas)
        parallel = ObsRegistry()
        CommitCache(tiny_world, obs=parallel, workers=2).matrix(shas)
        assert parallel.counters == serial.counters
        assert parallel.calls("extract") == serial.calls("extract")
        assert len(parallel.histograms["extract"]) == len(serial.histograms["extract"])

    def test_repeat_matrix_counts_hits_identically(self, tiny_world):
        shas = sorted(tiny_world.labels)[:40]
        serial = ObsRegistry()
        cache_s = CommitCache(tiny_world, obs=serial)
        cache_s.matrix(shas)
        cache_s.matrix(shas)
        parallel = ObsRegistry()
        cache_p = CommitCache(tiny_world, obs=parallel, workers=2)
        cache_p.matrix(shas)
        cache_p.matrix(shas)
        assert parallel.counters == serial.counters
        assert serial.count("vector_cache_hits") == len(shas)


class TestTokenCacheParity:
    def test_counters_match_serial(self, tiny_world):
        shas = shas_with_dupes(tiny_world, 60)
        serial = ObsRegistry()
        CommitCache(tiny_world, obs=serial).sequences(shas)
        parallel = ObsRegistry()
        CommitCache(tiny_world, obs=parallel, workers=2).sequences(shas)
        assert parallel.counters == serial.counters
        assert parallel.calls("tokenize") == serial.calls("tokenize")
        assert len(parallel.histograms["tokenize"]) == len(serial.histograms["tokenize"])


class TestLintParity:
    def test_counters_match_serial(self, tiny_world):
        serial = ObsRegistry()
        report_s = lint_world(tiny_world, obs=serial)
        parallel = ObsRegistry()
        report_p = lint_world(tiny_world, workers=2, obs=parallel)
        assert [f.path for f in report_p.files] == [f.path for f in report_s.files]
        assert parallel.counters == serial.counters
        assert parallel.calls("lint") == serial.calls("lint")
        assert len(parallel.histograms["lint"]) == len(serial.histograms["lint"])
        assert serial.count("files_linted") == len(report_s.files)
