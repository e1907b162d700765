"""Parallel training engine: concurrent fits of independent estimators.

The evaluation half of the paper (Tables III, IV, VI) fits many mutually
independent models — 16 RNNs across Table IV's seeds/datasets/variants, RF
and RNN per Table VI train set, ten consensus classifiers for the
uncertainty baseline.  :func:`fit_many` runs such fits through
:func:`repro.parallel.map_chunks` while keeping the results
**bit-identical** to the serial loop: every estimator owns its RNG (a
pickled :class:`numpy.random.Generator` carries its state into the worker),
so no fit can observe another fit's draws no matter where or in which
order it runs.

The serial path stays the zero-dependency default (``workers=None``).
Only pool-infrastructure failures fall back to it (counted in
``pool_fallback.fit``) — the parent's estimators are never mutated by a
worker, so a retry starts from pristine state.  An exception raised by an
estimator's ``fit`` propagates.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..obs import ObsRegistry
from ..parallel import map_chunks

__all__ = ["fit_many"]

#: One fit job: (estimator, training inputs, labels).  ``estimator.fit(X, y)``
#: is the only protocol required, so feature-matrix classifiers and the
#: sequence-input RNN mix freely in one batch.
FitSpec = tuple[Any, Any, Any]


def _fit(state: None, fits: list[FitSpec], obs: ObsRegistry) -> list[Any]:
    """Fit every spec in place, one ``fit`` timing each."""
    fitted = []
    for est, X, y in fits:
        with obs.timer("fit"):
            est.fit(X, y)
        fitted.append(est)
    return fitted


def fit_many(
    fits: Sequence[FitSpec],
    workers: int | None = None,
    obs: ObsRegistry | None = None,
) -> list[Any]:
    """Fit every ``(estimator, X, y)`` spec; return the fitted estimators.

    Args:
        fits: independent fit jobs.  Estimators must be picklable (all of
            ``repro.ml`` is).
        workers: process count; ``None``/``<=1`` fits serially in-place.
            Two fits are enough to use a pool: each fit is expensive.
        obs: observability registry for ``fit`` timers and
            ``fits_serial``/``fits_parallel`` counters.

    Returns:
        The fitted estimators, in input order.  With ``workers > 1`` these
        are *copies* of the inputs (fit happened in a worker process); the
        serial path fits and returns the input objects themselves.  Use the
        return value, not the inputs.
    """
    obs = obs if obs is not None else ObsRegistry()
    fits = list(fits)
    if not fits:
        return []
    fitted = map_chunks(_fit, fits, workers=workers, obs=obs, name="fit", min_items=2)
    obs.add("fits_parallel" if fitted.parallel else "fits_serial", len(fits))
    return fitted
