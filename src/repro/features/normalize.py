"""Per-dimension max-abs weighting (§III-B-2).

The paper normalizes feature *j* of patch *i* as::

    a'_ij = a_ij * w_j,   w_j = 1 / max|a_j|

so every dimension lands in [-1, 1] while preserving the sign of net-value
features.  The maxima are computed over the *union* of the security and wild
sets so distances between the two sides are comparable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import FeatureError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..obs import ObsRegistry

__all__ = ["MaxAbsWeighter", "weighted_distance_matrix", "DistanceEngine"]


class MaxAbsWeighter:
    """Fit per-column ``1/max|a_j|`` weights; apply them to matrices."""

    def __init__(self) -> None:
        self._weights: np.ndarray | None = None

    @property
    def weights(self) -> np.ndarray:
        """The fitted weight vector.

        Raises:
            FeatureError: if the weighter has not been fitted.
        """
        if self._weights is None:
            raise FeatureError("MaxAbsWeighter is not fitted")
        return self._weights

    def fit(self, *matrices: np.ndarray) -> "MaxAbsWeighter":
        """Fit weights over the row-union of the given matrices."""
        stack = [np.asarray(m, dtype=np.float64) for m in matrices if m is not None and len(m)]
        if not stack:
            raise FeatureError("cannot fit weighter on empty input")
        combined = np.vstack(stack)
        return self.fit_maxima(np.max(np.abs(combined), axis=0))

    def fit_maxima(self, maxima: np.ndarray) -> "MaxAbsWeighter":
        """Fit from precomputed per-column max-abs values.

        ``max`` is exact in floating point, so callers that already track
        the union maxima (e.g. :class:`DistanceEngine`) get weights bitwise
        identical to :meth:`fit` over the underlying rows.
        """
        maxima = np.asarray(maxima, dtype=np.float64)
        # Constant-zero columns carry no information; weight 0 removes them
        # from the distance rather than dividing by zero.  Subnormal maxima
        # are treated the same — 1/subnormal overflows to inf and poisons
        # the distance matrix with NaNs.
        floor = np.finfo(np.float64).tiny
        usable = maxima > floor
        with np.errstate(divide="ignore"):
            weights = np.where(usable, 1.0 / np.where(usable, maxima, 1.0), 0.0)
        self._weights = weights
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Apply fitted weights to an ``(N, d)`` matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.weights.shape[0]:
            raise FeatureError(
                f"matrix shape {matrix.shape} incompatible with {self.weights.shape[0]} weights"
            )
        return matrix * self.weights

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        """Fit on *matrix* alone and transform it."""
        return self.fit(matrix).transform(matrix)


def weighted_distance_matrix(security: np.ndarray, wild: np.ndarray) -> np.ndarray:
    """Build the paper's ``M×N`` weighted Euclidean distance matrix.

    Args:
        security: ``(M, d)`` feature matrix of verified security patches.
        wild: ``(N, d)`` feature matrix of unlabeled wild patches.

    Returns:
        ``D`` with ``D[m, n] = ||w ⊙ (security_m - wild_n)||₂``.
    """
    weighter = MaxAbsWeighter().fit(security, wild)
    s = weighter.transform(security)
    w = weighter.transform(wild)
    # ||a-b||² = ||a||² + ||b||² - 2 a·b, computed blockwise for memory.
    s_sq = np.sum(s * s, axis=1)[:, None]
    w_sq = np.sum(w * w, axis=1)[None, :]
    d_sq = s_sq + w_sq - 2.0 * (s @ w.T)
    np.maximum(d_sq, 0.0, out=d_sq)
    return np.sqrt(d_sq)


class DistanceEngine:
    """Incrementally maintained weighted distance matrix for one search set.

    The augmentation loop (§III-B) reruns nearest link search over the same
    wild pool for several rounds; between rounds the security side only
    *gains* rows (newly verified patches) and the wild side only *loses*
    columns (reviewed candidates).  Rebuilding the full ``M×N`` matrix with
    :func:`weighted_distance_matrix` every round therefore redoes almost all
    of its work.  This engine fits the max-abs weights once per search set,
    then per round *appends* distance rows for the new security patches into
    a preallocated buffer and *masks* reviewed columns to ``+inf`` — no
    reallocation, no recomputation of surviving cells.

    Masking instead of deleting keeps column indices stable across rounds
    (callers map them straight back to the original pool) and is exactly
    equivalent for nearest link search: an all-``inf`` column is never the
    argmin while any live column remains, which the loop's ``M ≤ N_alive``
    precondition guarantees.

    Numerical equivalence to per-round full recomputes: the weights depend
    only on the per-column max-abs of the security ∪ live-wild union.  Every
    appended security row was previously a live wild column, so the union can
    only shrink — the maxima either stay put (all cached cells remain exact)
    or drop because a reviewed candidate held a column's maximum.  Each
    :meth:`update` keeps the live-union maxima exact with per-side running
    maxima (``O((k + |dropped|)·d)`` per round, plus a partial column rescan
    only when a dropped candidate attained some column's maximum) and, when
    any column's maximum moved at all, falls back to a full refit +
    recompute over the live columns.  The live entries therefore always
    match what a from-scratch :func:`weighted_distance_matrix` over the live
    pool would produce (up to float associativity, well below 1e-9).
    """

    def __init__(self, obs: "ObsRegistry | None" = None) -> None:
        self._obs = obs
        self._weighter: MaxAbsWeighter | None = None
        self._maxima: np.ndarray | None = None
        self._raw_security: np.ndarray | None = None  # (M, d), grows
        self._raw_wild: np.ndarray | None = None      # (N, d), fixed width
        self._weighted_wild: np.ndarray | None = None
        self._wild_sq: np.ndarray | None = None
        self._alive: np.ndarray | None = None         # (N,) bool column mask
        self._buffer: np.ndarray | None = None        # (capacity, N) distances
        self._scratch: np.ndarray | None = None       # (capacity, N) work area
        self._m = 0                                   # live rows in _buffer
        # Running per-column max-abs of each side, kept exact incrementally:
        # the security side only appends rows (its max only grows), the wild
        # side only loses rows.  ``_wild_att`` counts the live wild rows
        # attaining each column's max; a column rescans only when that count
        # hits zero (every holder was reviewed), not on every drop.
        self._sec_max: np.ndarray | None = None
        self._wild_max: np.ndarray | None = None
        self._wild_att: np.ndarray | None = None

    # ---- bookkeeping ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._obs is not None:
            self._obs.add(name, amount)

    @property
    def matrix(self) -> np.ndarray:
        """The current ``M×N`` distance matrix (masked columns are ``inf``).

        A view into the engine's buffer — treat it as read-only.

        Raises:
            FeatureError: before the first :meth:`reset`.
        """
        if self._buffer is None:
            raise FeatureError("DistanceEngine has no matrix yet; call reset()")
        return self._buffer[: self._m]

    @property
    def alive_columns(self) -> int:
        """Number of not-yet-masked wild columns."""
        if self._alive is None:
            raise FeatureError("DistanceEngine has no matrix yet; call reset()")
        return int(self._alive.sum())

    @property
    def shape(self) -> tuple[int, int]:
        """``(M, N)`` of the current matrix (N counts masked columns)."""
        return self.matrix.shape

    # ---- internals --------------------------------------------------------

    def _set_live_maxima(self) -> None:
        """Recompute both running maxima from scratch (reset/fallback path)."""
        assert self._raw_security is not None and self._raw_wild is not None
        assert self._alive is not None
        self._sec_max = np.max(np.abs(self._raw_security), axis=0)
        live = self._raw_wild if self._alive.all() else self._raw_wild[self._alive]
        live_abs = np.abs(live)
        self._wild_max = np.max(live_abs, axis=0)
        self._wild_att = np.count_nonzero(live_abs == self._wild_max, axis=0)
        self._maxima = np.maximum(self._sec_max, self._wild_max)

    def _distance_rows(self, security_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Weighted distances from *security_rows* to every wild column.

        Written into *out* (a ``(k, N)`` buffer slice) with the same
        floating-point evaluation order as :func:`weighted_distance_matrix` —
        ``(s² + w²) - 2·(s·w)`` — so cached rows are bitwise identical to a
        from-scratch rebuild and exact ties (duplicate patches) break the
        same way in nearest link search.
        """
        assert self._weighter is not None
        assert self._weighted_wild is not None and self._wild_sq is not None
        assert self._scratch is not None
        s = self._weighter.transform(security_rows)
        s_sq = np.sum(s * s, axis=1)[:, None]
        norms = self._scratch[: len(s)]
        np.add(s_sq, self._wild_sq, out=norms)
        np.matmul(s, self._weighted_wild.T, out=out)
        out *= 2.0
        np.subtract(norms, out, out=out)
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        return out

    def _ensure_capacity(self, rows: int) -> None:
        assert self._buffer is not None
        if rows <= self._buffer.shape[0]:
            return
        grown = np.empty((max(rows, 2 * self._buffer.shape[0]), self._buffer.shape[1]))
        grown[: self._m] = self._buffer[: self._m]
        self._buffer = grown
        self._scratch = np.empty_like(grown)

    def _recompute(self) -> np.ndarray:
        """Refit on the live union and rebuild every live cell."""
        assert self._raw_security is not None and self._raw_wild is not None
        assert self._alive is not None
        self._set_live_maxima()
        self._weighter = MaxAbsWeighter().fit_maxima(self._maxima)
        self._weighted_wild = self._weighter.transform(self._raw_wild)
        self._wild_sq = np.sum(self._weighted_wild * self._weighted_wild, axis=1)
        m = len(self._raw_security)
        if self._buffer is None:
            # Spare row capacity so appended rounds write in place; the
            # security side rarely more than doubles within one search set.
            capacity = 2 * m + 8
            self._buffer = np.empty((capacity, len(self._raw_wild)))
            self._scratch = np.empty_like(self._buffer)
        else:
            self._ensure_capacity(m)
        self._distance_rows(self._raw_security, out=self._buffer[:m])
        self._buffer[:m, ~self._alive] = np.inf
        self._m = m
        self._count("distance_full_recomputes")
        self._count("distance_cells_computed", m * self.alive_columns)
        return self.matrix

    # ---- the public API ---------------------------------------------------

    def reset(self, security: np.ndarray, wild: np.ndarray) -> np.ndarray:
        """Fit weights on ``security ∪ wild`` and compute the full matrix."""
        security = np.asarray(security, dtype=np.float64)
        wild = np.asarray(wild, dtype=np.float64)
        if not len(security) or not len(wild):
            raise FeatureError(
                f"DistanceEngine.reset needs non-empty sides, got {security.shape} x {wild.shape}"
            )
        self._raw_security = security.copy()
        self._raw_wild = wild.copy()
        self._alive = np.ones(len(wild), dtype=bool)
        self._buffer = None
        return self._recompute()

    def update(
        self,
        new_security: np.ndarray | None = None,
        drop_wild: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply one round's delta and return the new matrix.

        Args:
            new_security: ``(k, d)`` rows to append to the security side
                (the round's newly verified patches), or ``None``/empty.
            drop_wild: column indices — in the *original* wild pool's
                indexing, which never shifts — to mask out (the round's
                reviewed candidates).

        Returns:
            The matrix over all security rows so far, with every reviewed
            column at ``inf``; live cells are numerically equivalent to a
            from-scratch rebuild against the live pool (see class docstring).
        """
        if self._buffer is None or self._weighter is None:
            raise FeatureError("DistanceEngine.update called before reset()")
        assert self._raw_security is not None and self._raw_wild is not None
        assert self._alive is not None and self._maxima is not None
        assert self._sec_max is not None and self._wild_max is not None

        if drop_wild is not None and len(drop_wild):
            drop = np.asarray(drop_wild, dtype=np.int64)
            self._alive[drop] = False
            self._buffer[: self._m, drop] = np.inf
            if not self.alive_columns:
                raise FeatureError("DistanceEngine.update masked out every wild column")
            # A dropped row can only lower a column's live maximum if it was
            # that column's *last* attainer; track attainer counts and rescan
            # only the columns whose count reaches zero.
            assert self._wild_att is not None
            abs_dropped = np.abs(self._raw_wild[drop])
            self._wild_att -= np.count_nonzero(abs_dropped == self._wild_max, axis=0)
            stale = np.flatnonzero(self._wild_att <= 0)
            if len(stale):
                alive_idx = np.flatnonzero(self._alive)
                live_abs = np.abs(self._raw_wild[np.ix_(alive_idx, stale)])
                self._wild_max[stale] = np.max(live_abs, axis=0)
                self._wild_att[stale] = np.count_nonzero(
                    live_abs == self._wild_max[stale], axis=0
                )
        if new_security is not None and len(new_security):
            new_rows = np.asarray(new_security, dtype=np.float64)
            self._raw_security = np.vstack([self._raw_security, new_rows])
            self._sec_max = np.maximum(self._sec_max, np.max(np.abs(new_rows), axis=0))
        else:
            new_rows = None

        maxima = np.maximum(self._sec_max, self._wild_max)
        if np.any(maxima != self._maxima):
            # A reviewed candidate held some column's max-abs: the fitted
            # weights are stale, and every cached cell would come out
            # different under a per-round refit — rebuild from scratch.
            return self._recompute()

        reused = self._m * self.alive_columns
        if new_rows is not None:
            self._ensure_capacity(self._m + len(new_rows))
            block = self._buffer[self._m : self._m + len(new_rows)]
            self._distance_rows(new_rows, out=block)
            block[:, ~self._alive] = np.inf
            self._m += len(new_rows)
            self._count("distance_cells_computed", len(new_rows) * self.alive_columns)
        self._count("distance_cells_reused", reused)
        self._count("distance_incremental_updates")
        return self.matrix
