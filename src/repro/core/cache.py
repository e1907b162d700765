"""Feature-vector and token-sequence caching over a world.

Every experiment consumes the same Table I features and the same RNN token
sequences for the same commits; these caches compute each sha's
representation once and assemble matrices/sequence lists on demand.
:class:`PatchFeatureCache` is deliberately tied to shas (not Patch objects)
so the augmentation loop, baselines, and quality experiments share one
cache; :class:`TokenSequenceCache` additionally memoizes patches that live
outside the world (synthetic patches) by their deterministic shas.

Two scale features sit on top of the in-memory map:

* **Chunked parallel extraction** — ``matrix(shas, workers=N)`` and
  ``sequences(shas, workers=N)`` hand the not-yet-cached shas to
  :func:`repro.parallel.map_chunks`, which fans them out to a process pool
  when there are at least two per worker.  The pool receives the world
  once per worker and runs the same per-sha function as the serial path,
  so results and merged obs counters are identical to serial extraction.
  Only pool-infrastructure failures fall back to serial (counted in
  ``pool_fallback.extract`` / ``pool_fallback.tokenize``); an error raised
  while extracting propagates.
* **On-disk persistence** — an optional ``.npz`` file keyed by sha lets CLI
  runs and benchmarks reuse vectors across processes.  The file stores the
  sha list and the stacked matrix plus the ``use_repo_context`` flag; a
  flag mismatch ignores the file rather than serving wrong vectors.  Saves
  are atomic (:func:`repro.persist.atomic_write`); an unreadable file is a
  cold cache and counts ``cache.corrupt``.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from ..corpus.world import World
from ..features.extractor import FeatureExtractor, RepoContext
from ..features.vector import FEATURE_COUNT
from ..ml.tokenizer import patch_token_sequence
from ..obs import ObsRegistry
from ..parallel import map_chunks
from ..patch.model import Patch
from ..persist import atomic_write

__all__ = ["PatchFeatureCache", "TokenSequenceCache"]


def _extract(
    state: tuple[World, bool, dict[str, FeatureExtractor]], shas: list[str], obs: ObsRegistry
) -> list[np.ndarray]:
    """Feature vectors of *shas*; one ``extract`` timing and one
    ``vectors_extracted`` count per sha.  *state* is ``(world,
    use_repo_context, extractors)``, the last a per-repo memo: building an
    extractor with context checks out the repository's whole head tree."""
    world, use_context, extractors = state
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


def _tokenize_patch(patch: Patch, include_context: bool, obs: ObsRegistry) -> list[str]:
    """One patch's token sequence, timed under ``tokenize`` and counted as
    a ``token_cache_misses``."""
    with obs.timer("tokenize"):
        seq = patch_token_sequence(patch, include_context)
    obs.add("token_cache_misses")
    return seq


def _tokenize(state: tuple[World, bool], shas: list[str], obs: ObsRegistry) -> list[list[str]]:
    """Token sequences of *shas*; *state* is ``(world, include_context)``."""
    world, include_context = state
    return [_tokenize_patch(world.patch_for(sha), include_context, obs) for sha in shas]


def _missing(shas: list[str], cached: dict) -> list[str]:
    """The distinct shas of *shas* not in *cached*, in first-seen order."""
    return list(dict.fromkeys(s for s in shas if s not in cached))


class PatchFeatureCache:
    """Lazily-computed sha → feature-vector map for one world.

    Args:
        world: the world whose commits are cached.
        use_repo_context: give extractors repository-size denominators.
        persist_path: optional ``.npz`` file to preload from (if present)
            and to write via :meth:`save`.
        obs: observability registry; a private one is created if omitted.
    """

    def __init__(
        self,
        world: World,
        use_repo_context: bool = True,
        persist_path: str | Path | None = None,
        obs: ObsRegistry | None = None,
        default_workers: int | None = None,
    ) -> None:
        self._world = world
        self._vectors: dict[str, np.ndarray] = {}
        self._extractors: dict[str, FeatureExtractor] = {}
        self._use_context = use_repo_context
        self._persist_path = Path(persist_path) if persist_path is not None else None
        self.obs = obs if obs is not None else ObsRegistry()
        self.default_workers = default_workers
        if self._persist_path is not None and self._persist_path.exists():
            self._load_npz(self._persist_path)

    # ---- persistence ------------------------------------------------------

    def _load_npz(self, path: Path) -> None:
        try:
            with np.load(path, allow_pickle=False) as data:
                if bool(data["use_repo_context"]) != self._use_context:
                    return
                shas = data["shas"]
                matrix = np.asarray(data["matrix"], dtype=np.float64)
        except Exception:
            self.obs.add("cache.corrupt")
            return  # a corrupt cache file is just a cold cache
        if matrix.ndim != 2 or matrix.shape != (len(shas), FEATURE_COUNT):
            return
        for sha, row in zip(shas, matrix):
            self._vectors[str(sha)] = row
        self.obs.add("npz_vectors_loaded", len(shas))

    def save(self, path: str | Path | None = None) -> Path:
        """Write every cached vector to ``.npz`` (sha-keyed); returns the path.

        Raises:
            ValueError: if no path was given here or at construction.
        """
        target = Path(path) if path is not None else self._persist_path
        if target is None:
            raise ValueError("no persist path configured for PatchFeatureCache.save")
        shas = sorted(self._vectors)
        matrix = (
            np.vstack([self._vectors[s] for s in shas])
            if shas
            else np.zeros((0, FEATURE_COUNT), dtype=np.float64)
        )
        # Through an open handle, so numpy keeps the temp name as given.
        return atomic_write(
            target,
            lambda fh: np.savez_compressed(
                fh,
                shas=np.array(shas, dtype="U40"),
                matrix=matrix,
                use_repo_context=np.array(self._use_context),
            ),
        )

    # ---- extraction -------------------------------------------------------

    def _state(self) -> tuple[World, bool, dict[str, FeatureExtractor]]:
        return self._world, self._use_context, self._extractors

    def vector(self, sha: str) -> np.ndarray:
        """The 60-dim feature vector for one commit."""
        vec = self._vectors.get(sha)
        if vec is None:
            vec = self._vectors[sha] = _extract(self._state(), [sha], self.obs)[0]
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
                state=self._state(),
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
    deterministic shas) go through :meth:`sequence_of`.

    Args:
        world: the world whose commits are cached.
        include_context: tokenize context lines too (off, like the paper).
        persist_path: optional pickle file to preload from (if present)
            and to write via :meth:`save`.  A corrupt or mismatched file is
            treated as a cold cache.
        obs: observability registry; a private one is created if omitted.
        default_workers: default process count for :meth:`sequences` warm-up.
    """

    _FORMAT = "repro-token-cache-v1"

    def __init__(
        self,
        world: World,
        include_context: bool = False,
        persist_path: str | Path | None = None,
        obs: ObsRegistry | None = None,
        default_workers: int | None = None,
    ) -> None:
        self._world = world
        self._include_context = include_context
        self._sequences: dict[str, list[str]] = {}
        self._persist_path = Path(persist_path) if persist_path is not None else None
        self.obs = obs if obs is not None else ObsRegistry()
        self.default_workers = default_workers
        if self._persist_path is not None and self._persist_path.exists():
            self._load(self._persist_path)

    # ---- persistence ------------------------------------------------------

    def _load(self, path: Path) -> None:
        try:
            with path.open("rb") as fh:
                data = pickle.load(fh)
            if (
                not isinstance(data, dict)
                or data.get("format") != self._FORMAT
                or data.get("include_context") != self._include_context
            ):
                return
            sequences = data["sequences"]
            if not isinstance(sequences, dict):
                return
        except Exception:
            self.obs.add("cache.corrupt")
            return  # a corrupt cache file is just a cold cache
        self._sequences.update(sequences)
        self.obs.add("token_sequences_loaded", len(sequences))

    def save(self, path: str | Path | None = None) -> Path:
        """Write every cached sequence to a pickle file; returns the path.

        Raises:
            ValueError: if no path was given here or at construction.
        """
        target = Path(path) if path is not None else self._persist_path
        if target is None:
            raise ValueError("no persist path configured for TokenSequenceCache.save")
        payload = {
            "format": self._FORMAT,
            "include_context": self._include_context,
            "sequences": self._sequences,
        }
        return atomic_write(target, lambda fh: pickle.dump(payload, fh))

    # ---- tokenization -----------------------------------------------------

    def sequence(self, sha: str) -> list[str]:
        """The token sequence for one world commit."""
        seq = self._sequences.get(sha)
        if seq is None:
            state = (self._world, self._include_context)
            seq = self._sequences[sha] = _tokenize(state, [sha], self.obs)[0]
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
            seq = self._sequences[patch.sha] = _tokenize_patch(
                patch, self._include_context, self.obs
            )
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
                state=(self._world, self._include_context),
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
