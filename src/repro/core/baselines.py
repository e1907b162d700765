"""Augmentation baselines compared in Table III.

Four candidate-selection strategies over the same unlabeled pool:

* **Brute force search** — every unlabeled commit is a candidate; the yield
  is simply the wild base rate (the paper measures ~8%).
* **Pseudo labeling** [19] — train one model (the paper picks Random
  Forest as the best performer) on the seed data, take the top-M most
  confident positive predictions.
* **Uncertainty-based labeling** [28] — a commit is a candidate only when
  all ten heterogeneous classifiers agree it is a security patch.
* **Nearest link search (ours)** — Algorithm 1 over the weighted feature
  distance matrix.

All four return candidate shas; :func:`evaluate_candidates` then samples a
verification subset (the paper verifies 1K per method) and reports the
security proportion with a 95% confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AugmentationError
from ..features.normalize import weighted_distance_matrix
from ..ml import RandomForestClassifier, fit_many, weka_ensemble
from ..ml.base import Classifier, seeded_rng
from ..ml.metrics import proportion_confidence_interval
from .cache import CommitCache
from .nearest_link import nearest_link_search
from .oracle import VerificationOracle

__all__ = [
    "BaselineResult",
    "brute_force_candidates",
    "pseudo_label_candidates",
    "uncertainty_candidates",
    "nearest_link_candidates",
    "evaluate_candidates",
]


@dataclass(frozen=True, slots=True)
class BaselineResult:
    """One row of Table III."""

    method: str
    pool_size: int
    n_candidates: int
    sampled: int
    sampled_security: int
    proportion: float
    ci_half_width: float

    def row(self) -> str:
        """Formatted table row."""
        return (
            f"{self.method:<28s} pool={self.pool_size:>7d} "
            f"candidates={self.n_candidates:>6d} "
            f"security={self.proportion:.0%} (±{self.ci_half_width:.1%})"
        )


def brute_force_candidates(pool: list[str]) -> list[str]:
    """Brute force: the entire pool is the candidate set."""
    return list(pool)


def pseudo_label_candidates(
    cache: CommitCache,
    seed_security: list[str],
    seed_non_security: list[str],
    pool: list[str],
    n_candidates: int | None = None,
    model: Classifier | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> list[str]:
    """Pseudo labeling: top-confidence positives of a single model.

    With *workers*, the default Random Forest fits its trees in a process
    pool (``n_jobs``); candidates are identical to the serial fit.
    """
    if not seed_security or not seed_non_security:
        raise AugmentationError("pseudo labeling needs both seed classes")
    n_candidates = n_candidates if n_candidates is not None else len(seed_security)
    X = np.vstack([cache.matrix(seed_security), cache.matrix(seed_non_security)])
    y = np.concatenate(
        [np.ones(len(seed_security), dtype=np.int64), np.zeros(len(seed_non_security), dtype=np.int64)]
    )
    clf = model if model is not None else RandomForestClassifier(
        n_estimators=40, max_depth=14, seed=seed, n_jobs=workers, obs=cache.obs
    )
    with cache.obs.timer("fit"):
        clf.fit(X, y)
    scores = clf.decision_scores(cache.matrix(pool))
    ranked = np.argsort(-scores, kind="stable")[:n_candidates]
    return [pool[int(i)] for i in ranked]


def uncertainty_candidates(
    cache: CommitCache,
    seed_security: list[str],
    seed_non_security: list[str],
    pool: list[str],
    classifiers: list[Classifier] | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> list[str]:
    """Uncertainty-based labeling: unanimous consensus of ten classifiers.

    With *workers*, the ten independent fits run through
    :func:`repro.ml.fit_many` in a process pool.  Candidates are identical
    to the serial loop (each classifier owns its RNG); the serial loop
    additionally short-circuits once the consensus is provably empty.
    """
    if not seed_security or not seed_non_security:
        raise AugmentationError("uncertainty labeling needs both seed classes")
    X = np.vstack([cache.matrix(seed_security), cache.matrix(seed_non_security)])
    y = np.concatenate(
        [np.ones(len(seed_security), dtype=np.int64), np.zeros(len(seed_non_security), dtype=np.int64)]
    )
    pool_X = cache.matrix(pool)
    ensemble = classifiers if classifiers is not None else weka_ensemble(seed=seed)
    consensus = np.ones(len(pool), dtype=bool)
    if workers is not None and workers > 1:
        fitted = fit_many([(clf, X, y) for clf in ensemble], workers=workers, obs=cache.obs)
        for clf in fitted:
            consensus &= clf.predict(pool_X) == 1
    else:
        for clf in ensemble:
            with cache.obs.timer("fit"):
                clf.fit(X, y)
            consensus &= clf.predict(pool_X) == 1
            if not consensus.any():
                break
    return [pool[int(i)] for i in np.flatnonzero(consensus)]


def nearest_link_candidates(
    cache: CommitCache, seed_security: list[str], pool: list[str]
) -> list[str]:
    """Nearest link search candidates (our method)."""
    distance = weighted_distance_matrix(cache.matrix(seed_security), cache.matrix(pool))
    result = nearest_link_search(distance)
    return [pool[int(i)] for i in result.candidate_set]


def evaluate_candidates(
    method: str,
    candidates: list[str],
    pool_size: int,
    oracle: VerificationOracle,
    sample_size: int = 1000,
    confidence: float = 0.95,
    seed: int | np.random.Generator | None = 0,
) -> BaselineResult:
    """Sample-verify a candidate set the way the paper's experts did."""
    if not candidates:
        return BaselineResult(method, pool_size, 0, 0, 0, 0.0, 0.0)
    rng = seeded_rng(seed)
    if len(candidates) > sample_size:
        idx = rng.choice(len(candidates), size=sample_size, replace=False)
        sample = [candidates[int(i)] for i in idx]
    else:
        sample = list(candidates)
    verdicts = oracle.verify_many(sample)
    hits = int(verdicts.sum())
    proportion, half = proportion_confidence_interval(hits, len(sample), confidence)
    return BaselineResult(
        method=method,
        pool_size=pool_size,
        n_candidates=len(candidates),
        sampled=len(sample),
        sampled_security=hits,
        proportion=proportion,
        ci_half_width=half,
    )
