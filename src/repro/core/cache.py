"""One per-world cache of the commits' feature vectors and token sequences.

Every experiment consumes the same Table I features (Random Forest, nearest
link search) and the same RNN token sequences for the same commits;
:class:`CommitCache` computes each sha's vector and sequence once and
assembles matrices and sequence lists on demand.  It is tied to shas (not
Patch objects) so the augmentation loop, baselines, and quality experiments
share one cache; :meth:`CommitCache.sequence_of` additionally memoizes
patches that live outside the world (synthetic patches) by their
deterministic shas.

**Chunked parallel extraction** — ``matrix`` and ``sequences`` hand the
not-yet-cached shas to :func:`repro.parallel.map_chunks`, which fans them
out to a pool of the cache's ``workers`` processes when there are at least
two per worker.  The workers inherit the cache (and so the world) by fork,
and run the same per-sha function as the serial path, so results and merged
obs counters are identical to serial extraction.  The cache hands
``map_chunks`` itself as the one state for both extraction and
tokenization, so every call reuses the pool that forked with it (as do
``state=None`` calls such as model fits), until a call with another state
replaces it or the cache is dropped with its world.  Only
pool-infrastructure failures fall back to serial (counted in
``pool_fallback.extract`` / ``pool_fallback.tokenize``); an error raised
while extracting propagates.

The cache lives in memory only and starts empty in every process.  What
pays across processes is the ``ExperimentWorld`` pickle (``--world-cache``),
which skips world construction; re-extracting the vectors and tokens after
it costs less than world construction (EXPERIMENTS.md, "Persist only what
pays").
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..corpus.world import World
from ..features.extractor import FeatureExtractor, RepoContext
from ..features.vector import FEATURE_COUNT
from ..ml.tokenizer import patch_token_sequence
from ..obs import ObsRegistry
from ..parallel import map_chunks
from ..patch.model import Patch

__all__ = ["CommitCache"]


def _extract(cache: CommitCache, shas: list[str], obs: ObsRegistry) -> list[np.ndarray]:
    """Feature vectors of *shas*; one ``extract`` timing and one
    ``vectors_extracted`` count per sha.  *cache* supplies the world and
    its per-repo extractor memo: building an extractor checks out the
    repository's whole head tree."""
    world, extractors = cache._world, cache._extractors
    out = []
    for sha in shas:
        slug = world.label(sha).repo_slug
        extractor = extractors.get(slug)
        if extractor is None:
            files, funcs = world.repos[slug].stats_at_head()
            extractor = FeatureExtractor(RepoContext(total_files=files, total_functions=funcs))
            extractors[slug] = extractor
        patch = world.patch_for(sha)
        with obs.timer("extract"):
            out.append(extractor.extract(patch))
        obs.add("vectors_extracted")
    return out


def _tokenize_patch(patch: Patch, obs: ObsRegistry) -> list[str]:
    """One patch's token sequence, timed under ``tokenize`` and counted as
    a ``token_cache_misses``."""
    with obs.timer("tokenize"):
        seq = patch_token_sequence(patch)
    obs.add("token_cache_misses")
    return seq


def _tokenize(cache: CommitCache, shas: list[str], obs: ObsRegistry) -> list[list[str]]:
    """Token sequences of the world commits *shas*."""
    return [_tokenize_patch(cache._world.patch_for(sha), obs) for sha in shas]


class CommitCache:
    """Lazily-computed sha → feature vector and sha → token sequence maps
    for one world.

    Both are exact optimizations: extraction and tokenization are pure
    functions of the patch, and Tables III–VI re-read the same commits
    across seeds, datasets, and train/test roles.  Context lines are never
    tokenized, like the paper's RNN input.

    Args:
        world: the world whose commits are cached.
        obs: observability registry; a private one is created if omitted.
        workers: >1 extracts and tokenizes missing shas in a process pool
            of this size; results, merged obs counters included, are
            identical to serial extraction.
    """

    def __init__(
        self,
        world: World,
        obs: ObsRegistry | None = None,
        workers: int | None = None,
    ) -> None:
        self._world = world
        self._vectors: dict[str, np.ndarray] = {}
        self._sequences: dict[str, list[str]] = {}
        self._extractors: dict[str, FeatureExtractor] = {}
        self.obs = obs if obs is not None else ObsRegistry()
        self.workers = workers

    def _fill(self, memo: dict, shas: list[str], fn: Callable, name: str, hits: str) -> list:
        """``memo[s]`` for each of *shas*, in order, after computing the
        missing ones with ``fn`` (timed and pooled under *name*).

        Every entry but each missing sha's first counts in *hits*, exactly
        as per-sha lookups would count them.
        """
        missing = list(dict.fromkeys(s for s in shas if s not in memo))
        if missing:
            # The cache itself is the state of both sites: one stable
            # object, so extraction and tokenization share one live pool.
            computed = map_chunks(
                fn, missing, workers=self.workers, obs=self.obs, name=name, state=self
            )
            memo.update(zip(missing, computed))
        if len(shas) > len(missing):
            self.obs.add(hits, len(shas) - len(missing))
        return [memo[s] for s in shas]

    # ---- feature vectors --------------------------------------------------

    def vector(self, sha: str) -> np.ndarray:
        """The 60-dim feature vector for one commit."""
        return self._fill(self._vectors, [sha], _extract, "extract", "vector_cache_hits")[0]

    def matrix(self, shas: list[str]) -> np.ndarray:
        """Stack vectors for *shas* (row order, duplicates allowed) into an
        ``(N, 60)`` matrix."""
        if not shas:
            return np.zeros((0, FEATURE_COUNT), dtype=np.float64)
        return np.vstack(self._fill(self._vectors, shas, _extract, "extract", "vector_cache_hits"))

    # ---- token sequences --------------------------------------------------

    def sequence(self, sha: str) -> list[str]:
        """The token sequence for one world commit."""
        return self.sequences([sha])[0]

    def sequences(self, shas: list[str]) -> list[list[str]]:
        """Token sequences for the world commits *shas*, in input order
        (duplicates allowed)."""
        return self._fill(self._sequences, shas, _tokenize, "tokenize", "token_cache_hits")

    def sequence_of(self, patch: Patch) -> list[str]:
        """The token sequence for an explicit patch, memoized by its sha.

        Synthetic patches are not world commits, but their shas are
        deterministic functions of (origin, variant, side, site), so the
        same sha always denotes the same patch text.
        """
        seq = self._sequences.get(patch.sha)
        if seq is None:
            seq = self._sequences[patch.sha] = _tokenize_patch(patch, self.obs)
        else:
            self.obs.add("token_cache_hits")
        return seq

    def __len__(self) -> int:
        """The number of distinct shas with a cached vector or sequence."""
        return len(self._vectors.keys() | self._sequences.keys())
