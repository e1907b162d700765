"""Feature-vector and token-sequence caching over a world.

Every experiment consumes the same Table I features and the same RNN token
sequences for the same commits; these caches compute each sha's
representation once and assemble matrices/sequence lists on demand.
:class:`PatchFeatureCache` is deliberately tied to shas (not Patch objects)
so the augmentation loop, baselines, and quality experiments share one
cache; :class:`TokenSequenceCache` additionally memoizes patches that live
outside the world (synthetic patches) by their deterministic shas.

**Chunked parallel extraction** — ``matrix(shas, workers=N)`` and
``sequences(shas, workers=N)`` hand the not-yet-cached shas to
:func:`repro.parallel.map_chunks`, which fans them out to a process pool
when there are at least two per worker.  The workers inherit the cache (and
so the world) by fork, and run the same per-sha function as the serial
path, so results and merged obs counters are identical to serial
extraction.  Each cache hands ``map_chunks`` one stable state (the feature
cache itself; the token cache its world), so consecutive calls reuse the
pool that forked with that state, until a call with another state replaces
it or the state is dropped with its world.  Only
pool-infrastructure failures fall back to serial (counted in
``pool_fallback.extract`` / ``pool_fallback.tokenize``); an error raised
while extracting propagates.

Both caches live in memory only and start empty in every process.  What
pays across processes is the ``ExperimentWorld`` pickle (``--world-cache``),
which skips world construction; re-extracting the vectors and tokens after
it costs less than world construction (EXPERIMENTS.md, "Persist only what
pays").
"""

from __future__ import annotations

import numpy as np

from ..corpus.world import World
from ..features.extractor import FeatureExtractor, RepoContext
from ..features.vector import FEATURE_COUNT
from ..ml.tokenizer import patch_token_sequence
from ..obs import ObsRegistry
from ..parallel import map_chunks
from ..patch.model import Patch

__all__ = ["PatchFeatureCache", "TokenSequenceCache"]


def _extract(cache: PatchFeatureCache, shas: list[str], obs: ObsRegistry) -> list[np.ndarray]:
    """Feature vectors of *shas*; one ``extract`` timing and one
    ``vectors_extracted`` count per sha.  *cache* supplies the world, the
    context flag and its per-repo extractor memo: building an extractor
    with context checks out the repository's whole head tree."""
    world, use_context, extractors = cache._world, cache._use_context, cache._extractors
    out = []
    for sha in shas:
        slug = world.label(sha).repo_slug
        extractor = extractors.get(slug)
        if extractor is None:
            context = None
            if use_context:
                files, funcs = world.repos[slug].stats_at_head()
                context = RepoContext(total_files=files, total_functions=funcs)
            extractor = FeatureExtractor(context)
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


def _tokenize(world: World, shas: list[str], obs: ObsRegistry) -> list[list[str]]:
    """Token sequences of the world commits *shas*."""
    return [_tokenize_patch(world.patch_for(sha), obs) for sha in shas]


def _missing(shas: list[str], cached: dict) -> list[str]:
    """The distinct shas of *shas* not in *cached*, in first-seen order."""
    return list(dict.fromkeys(s for s in shas if s not in cached))


class PatchFeatureCache:
    """Lazily-computed sha → feature-vector map for one world.

    Args:
        world: the world whose commits are cached.
        use_repo_context: give extractors repository-size denominators.
        obs: observability registry; a private one is created if omitted.
    """

    def __init__(
        self,
        world: World,
        use_repo_context: bool = True,
        obs: ObsRegistry | None = None,
        default_workers: int | None = None,
    ) -> None:
        self._world = world
        self._vectors: dict[str, np.ndarray] = {}
        self._extractors: dict[str, FeatureExtractor] = {}
        self._use_context = use_repo_context
        self.obs = obs if obs is not None else ObsRegistry()
        self.default_workers = default_workers

    # ---- extraction -------------------------------------------------------

    def vector(self, sha: str) -> np.ndarray:
        """The 60-dim feature vector for one commit."""
        vec = self._vectors.get(sha)
        if vec is None:
            vec = self._vectors[sha] = _extract(self, [sha], self.obs)[0]
        else:
            self.obs.add("vector_cache_hits")
        return vec

    def matrix(self, shas: list[str], workers: int | None = None) -> np.ndarray:
        """Stack vectors for *shas* into an ``(N, 60)`` matrix.

        Args:
            shas: commits, in output row order (duplicates allowed).
            workers: >1 extracts missing vectors in a process pool; ``None``
                uses the cache's ``default_workers``.  Results — including
                merged obs counters — are identical to serial extraction.
        """
        if not shas:
            return np.zeros((0, FEATURE_COUNT), dtype=np.float64)
        missing = _missing(shas, self._vectors)
        if missing:
            vectors = map_chunks(
                _extract,
                missing,
                workers=workers if workers is not None else self.default_workers,
                obs=self.obs,
                name="extract",
                # The cache itself: one stable state, so consecutive
                # extractions reuse the pool that forked with it.
                state=self,
            )
            self._vectors.update(zip(missing, vectors))
        # Every row but each missing sha's first is a hit, exactly as
        # per-sha ``vector()`` calls would count them.
        hits = len(shas) - len(missing)
        if hits:
            self.obs.add("vector_cache_hits", hits)
        return np.vstack([self._vectors[s] for s in shas])

    def __len__(self) -> int:
        return len(self._vectors)


class TokenSequenceCache:
    """Lazily-computed sha → RNN token-sequence map for one world.

    Tokenization is a pure function of the patch, so the cache is an exact
    optimization: Tables IV and VI re-read the same commits across seeds,
    datasets, and train/test roles, and each is lexed once here instead of
    once per use.  Synthetic patches (which are not world commits but carry
    deterministic shas) go through :meth:`sequence_of`.  Context lines are
    never tokenized, like the paper's RNN input.

    Args:
        world: the world whose commits are cached.
        obs: observability registry; a private one is created if omitted.
        default_workers: default process count for :meth:`sequences` warm-up.
    """

    def __init__(
        self,
        world: World,
        obs: ObsRegistry | None = None,
        default_workers: int | None = None,
    ) -> None:
        self._world = world
        self._sequences: dict[str, list[str]] = {}
        self.obs = obs if obs is not None else ObsRegistry()
        self.default_workers = default_workers

    # ---- tokenization -----------------------------------------------------

    def sequence(self, sha: str) -> list[str]:
        """The token sequence for one world commit."""
        seq = self._sequences.get(sha)
        if seq is None:
            seq = self._sequences[sha] = _tokenize(self._world, [sha], self.obs)[0]
        else:
            self.obs.add("token_cache_hits")
        return seq

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

    def sequences(self, shas: list[str], workers: int | None = None) -> list[list[str]]:
        """Token sequences for *shas*, in input order (duplicates allowed).

        Args:
            shas: world commits.
            workers: >1 tokenizes missing entries in a process pool;
                ``None`` uses the cache's ``default_workers``.  Results are
                identical to serial tokenization.
        """
        missing = _missing(shas, self._sequences)
        if missing:
            sequences = map_chunks(
                _tokenize,
                missing,
                workers=workers if workers is not None else self.default_workers,
                obs=self.obs,
                name="tokenize",
                state=self._world,
            )
            self._sequences.update(zip(missing, sequences))
        # Every entry but each missing sha's first is a hit, exactly as
        # per-sha ``sequence()`` calls would count them.
        hits = len(shas) - len(missing)
        if hits:
            self.obs.add("token_cache_hits", hits)
        return [self._sequences[s] for s in shas]

    def __len__(self) -> int:
        return len(self._sequences)
