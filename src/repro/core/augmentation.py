"""Human-in-the-loop dataset augmentation (Fig. 2, Table II).

The loop the paper runs five times: select candidates with nearest link
search, send them to the verification panel, fold verified security patches
back into the seed set, drop all reviewed candidates from the unlabeled
pool, and repeat while the security yield stays above a threshold.

``run_schedule`` reproduces the exact Table II protocol — several rounds on
one search range (Set I), then fresh larger ranges (Sets II/III) — and
returns one :class:`RoundResult` per row of the table.

At PatchDB scale the repeated ``M×N`` weighted distance matrix is the cost
center, so the schedule maintains it incrementally through a
:class:`~repro.features.normalize.DistanceEngine`: weights are fitted once
per search set, each round appends rows for the newly verified patches and
deletes columns for the reviewed candidates, and a full refit happens only
when the fitted maxima drift (see the engine docstring).  Results are
numerically equivalent to per-round recomputation; pass
``incremental=False`` to force the from-scratch path (used by tests and the
``benchmarks/test_incremental_distance.py`` baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AugmentationError
from ..features.normalize import DistanceEngine, weighted_distance_matrix
from ..obs import ObsRegistry
from .cache import PatchFeatureCache
from .nearest_link import nearest_link_search
from .oracle import VerificationOracle

__all__ = ["RoundResult", "AugmentationOutcome", "DatasetAugmentation", "SearchSet"]


@dataclass(frozen=True, slots=True)
class SearchSet:
    """One unlabeled wild pool with a number of rounds to run on it."""

    name: str
    shas: tuple[str, ...]
    rounds: int

    def __post_init__(self) -> None:
        if self.rounds < 1 or not self.shas:
            raise AugmentationError("SearchSet needs shas and rounds >= 1")


@dataclass(frozen=True, slots=True)
class RoundResult:
    """One row of Table II."""

    round_no: int
    set_name: str
    search_range: int
    candidates: int
    verified_security: int

    @property
    def ratio(self) -> float:
        """Verified security patches / candidates."""
        return self.verified_security / self.candidates if self.candidates else 0.0

    def row(self) -> str:
        """Formatted table row."""
        return (
            f"{self.set_name:>12s}  round {self.round_no}: "
            f"range={self.search_range:>7d} candidates={self.candidates:>6d} "
            f"verified={self.verified_security:>6d} ratio={self.ratio:.0%}"
        )


@dataclass(slots=True)
class AugmentationOutcome:
    """Full outcome of an augmentation run."""

    rounds: list[RoundResult] = field(default_factory=list)
    security_shas: list[str] = field(default_factory=list)
    non_security_shas: list[str] = field(default_factory=list)

    @property
    def wild_security_count(self) -> int:
        """Security patches found in the wild (excludes the seed)."""
        return sum(r.verified_security for r in self.rounds)

    def table(self) -> str:
        """The Table II analogue as text."""
        return "\n".join(r.row() for r in self.rounds)


class DatasetAugmentation:
    """The augmentation loop bound to a world, oracle, and feature cache.

    Args:
        cache: feature cache over the world.
        oracle: the verification panel.
        ratio_threshold: stop early when a round's yield drops below this.
        incremental: maintain the per-set distance matrix with a
            :class:`DistanceEngine` instead of rebuilding it every round.
        obs: observability registry; defaults to the cache's, so timings and
            counters from extraction and distance work land in one place.
    """

    def __init__(
        self,
        cache: PatchFeatureCache,
        oracle: VerificationOracle,
        ratio_threshold: float = 0.0,
        incremental: bool = True,
        obs: ObsRegistry | None = None,
    ) -> None:
        if not 0.0 <= ratio_threshold <= 1.0:
            raise AugmentationError("ratio_threshold must be in [0, 1]")
        self._cache = cache
        self._oracle = oracle
        self.ratio_threshold = ratio_threshold
        self.incremental = incremental
        self.obs = obs if obs is not None else cache.obs

    # ---- shared helpers ---------------------------------------------------

    def _require_sides(self, n_security: int, n_pool: int) -> None:
        """Reject degenerate rounds before they reach the weighter.

        Raises:
            AugmentationError: empty side, or pool smaller than the seed.
        """
        if not n_security or not n_pool:
            raise AugmentationError(
                f"cannot run an augmentation round with {n_security} "
                f"security shas and {n_pool} pool shas; both sides must be non-empty"
            )
        if n_pool < n_security:
            raise AugmentationError(
                f"pool ({n_pool}) smaller than security set ({n_security})"
            )

    def _review(
        self, distance: np.ndarray, pool: list[str]
    ) -> tuple[list[str], list[str], np.ndarray]:
        """Select candidates from *distance* and have the panel verify them.

        Returns:
            ``(verified, rejected, candidate_idx)`` where ``candidate_idx``
            are the selected column indices into *pool*.
        """
        with self.obs.timer("search"):
            result = nearest_link_search(distance)
        candidate_idx = result.candidate_set
        candidates = [pool[int(i)] for i in candidate_idx]
        with self.obs.timer("verify"):
            verdicts = self._oracle.verify_many(candidates)
        verified = [s for s, v in zip(candidates, verdicts) if v]
        rejected = [s for s, v in zip(candidates, verdicts) if not v]
        return verified, rejected, candidate_idx

    # ---- the public API ---------------------------------------------------

    def run_round(
        self, security_shas: list[str], pool: list[str]
    ) -> tuple[list[str], list[str]]:
        """One stand-alone candidate-selection + verification round.

        Builds the distance matrix from scratch; the incremental engine only
        pays off across the consecutive rounds of :meth:`run_schedule`.

        Args:
            security_shas: the currently verified security patches.
            pool: unlabeled wild shas to search.

        Returns:
            ``(verified_security, rejected)`` partition of the candidates.

        Raises:
            AugmentationError: empty sides, or pool smaller than the seed set.
        """
        self._require_sides(len(security_shas), len(pool))
        sec_matrix = self._cache.matrix(security_shas)
        pool_matrix = self._cache.matrix(pool)
        with self.obs.timer("distance"):
            distance = weighted_distance_matrix(sec_matrix, pool_matrix)
        verified, rejected, _ = self._review(distance, pool)
        return verified, rejected

    def run_schedule(
        self, seed_security_shas: list[str], sets: list[SearchSet]
    ) -> AugmentationOutcome:
        """Run the Table II protocol over the given search sets.

        The run is traced as a span tree — ``augment.schedule`` →
        ``augment.set`` (one per search set) → ``augment.round`` (one per
        row of Table II, annotated with the candidate/verified counts) —
        with the flat ``distance``/``search``/``verify`` phases accumulating
        underneath as before.
        """
        with self.obs.span(
            "augment.schedule", seed_security=len(seed_security_shas), sets=len(sets)
        ):
            return self._run_schedule(seed_security_shas, sets)

    def _run_schedule(
        self, seed_security_shas: list[str], sets: list[SearchSet]
    ) -> AugmentationOutcome:
        outcome = AugmentationOutcome(security_shas=list(seed_security_shas))
        round_no = 0
        for search_set in sets:
            # Incremental mode keeps the pool list (and the engine's column
            # space) fixed and masks reviewed columns; full mode filters the
            # list per round.  Both see the same live pool each round.
            pool = list(search_set.shas)
            n_live = len(pool)
            engine: DistanceEngine | None = None
            # The previous round's delta, folded in at the top of the next
            # round: verified shas become rows, reviewed columns are masked.
            pending_rows: list[str] = []
            pending_drop: np.ndarray = np.empty(0, dtype=np.int64)
            with self.obs.span(
                "augment.set",
                set=search_set.name,
                pool=len(pool),
                rounds=search_set.rounds,
            ):
                for _ in range(search_set.rounds):
                    round_no += 1
                    self._require_sides(len(outcome.security_shas), n_live)
                    with self.obs.span(
                        "augment.round", round=round_no, set=search_set.name
                    ) as round_span:
                        if self.incremental:
                            if engine is None:
                                engine = DistanceEngine(obs=self.obs)
                                sec_matrix = self._cache.matrix(outcome.security_shas)
                                pool_matrix = self._cache.matrix(pool)
                                with self.obs.timer("distance"):
                                    distance = engine.reset(sec_matrix, pool_matrix)
                            else:
                                row_matrix = self._cache.matrix(pending_rows)
                                with self.obs.timer("distance"):
                                    distance = engine.update(row_matrix, pending_drop)
                            verified, rejected, reviewed_idx = self._review(distance, pool)
                            pending_rows = list(verified)
                            pending_drop = reviewed_idx
                        else:
                            verified, rejected = self.run_round(outcome.security_shas, pool)
                            reviewed = set(verified) | set(rejected)
                            pool = [s for s in pool if s not in reviewed]
                        search_range = n_live
                        n_live -= len(verified) + len(rejected)
                        outcome.security_shas.extend(verified)
                        outcome.non_security_shas.extend(rejected)
                        result = RoundResult(
                            round_no=round_no,
                            set_name=search_set.name,
                            search_range=search_range,
                            candidates=len(verified) + len(rejected),
                            verified_security=len(verified),
                        )
                        outcome.rounds.append(result)
                        if round_span is not None:
                            round_span.attributes["candidates"] = result.candidates
                            round_span.attributes["verified"] = result.verified_security
                    if self.ratio_threshold and result.ratio < self.ratio_threshold:
                        return outcome
        return outcome
