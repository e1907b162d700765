"""Persisted fitted models, keyed by a sha of their training set.

The Table IV/VI fits — and the serve layer's classify-on-demand model —
are pure functions of (training shas, labels, estimator configuration).
:class:`FittedModelCache` memoizes those fits the way
:class:`~repro.core.cache.TokenSequenceCache` memoizes token sequences:
an in-memory map in front of an optional pickle file, written atomically,
where a corrupt, truncated, or format-mismatched file degrades to a cold
cache instead of an error (an unreadable one also counts ``cache.corrupt``).  Re-evaluating with a changed test set (train set unchanged)
then costs zero training, and a warmed server classifies requests without
ever fitting per request.

The key is computed by :func:`training_key`: a sha256 over the sorted
``(sha, label)`` pairs plus a canonical JSON encoding of the estimator
configuration and the cache format revision.  Sorting makes the key
order-insensitive — the same labeled set always maps to the same fitted
model — while any change to the data, the labels, the hyperparameters, or
the pickled layout produces a different key and therefore a clean miss.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..obs import ObsRegistry, trace_span
from ..persist import atomic_write

__all__ = ["FittedModelCache", "training_key"]


def training_key(
    shas: Sequence[str],
    labels: Iterable[int],
    config: dict[str, Any] | None = None,
) -> str:
    """The cache key of a fit: sha256 of the labeled training set + config.

    Args:
        shas: training-set patch shas (any order; the key sorts them).
        labels: one integer label per sha, aligned with *shas*.
        config: estimator identity — class name, hyperparameters, feature
            schema — anything that changes what ``fit`` would produce.
    """
    pairs = sorted(zip(shas, (int(l) for l in labels)))
    payload = {
        "format": FittedModelCache._FORMAT,
        "training_set": pairs,
        "config": config or {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class FittedModelCache:
    """Key → fitted-estimator map with pickle persistence.

    Args:
        persist_path: optional pickle file to preload from (if present)
            and to write via :meth:`save`.  A corrupt or mismatched file
            is treated as a cold cache, mirroring
            :class:`~repro.core.cache.TokenSequenceCache`.
        obs: observability registry for ``model_cache_hits`` /
            ``model_cache_misses`` / ``models_loaded`` counters and the
            ``model_fit`` timer; a private one is created if omitted.
    """

    _FORMAT = "repro-model-cache-v1"

    def __init__(
        self,
        persist_path: str | Path | None = None,
        obs: ObsRegistry | None = None,
    ) -> None:
        self._models: dict[str, Any] = {}
        self._persist_path = Path(persist_path) if persist_path is not None else None
        self.obs = obs if obs is not None else ObsRegistry()
        if self._persist_path is not None and self._persist_path.exists():
            self._load(self._persist_path)

    # ---- persistence ------------------------------------------------------

    def _load(self, path: Path) -> None:
        try:
            with path.open("rb") as fh:
                data = pickle.load(fh)
            if not isinstance(data, dict) or data.get("format") != self._FORMAT:
                return
            models = data["models"]
            if not isinstance(models, dict):
                return
        except Exception:
            self.obs.add("cache.corrupt")
            return  # a corrupt cache file is just a cold cache
        self._models.update(models)
        self.obs.add("models_loaded", len(models))

    def save(self, path: str | Path | None = None) -> Path:
        """Write every cached model to a pickle file; returns the path.

        Raises:
            ValueError: if no path was given here or at construction.
        """
        target = Path(path) if path is not None else self._persist_path
        if target is None:
            raise ValueError("no persist path configured for FittedModelCache.save")
        payload = {"format": self._FORMAT, "models": self._models}
        return atomic_write(target, lambda fh: pickle.dump(payload, fh))

    # ---- lookup -----------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The cached model for *key*, or ``None`` (counts a hit/miss)."""
        model = self._models.get(key)
        with trace_span("model_cache.get", hit=model is not None):
            if model is None:
                self.obs.add("model_cache_misses")
            else:
                self.obs.add("model_cache_hits")
        return model

    def put(self, key: str, model: Any) -> None:
        """Store a fitted model under *key*."""
        self._models[key] = model

    def get_or_fit(self, key: str, fit: Callable[[], Any]) -> Any:
        """The cached model for *key*, fitting (and storing) it on a miss.

        *fit* runs under the ``model_fit`` timer, so a ``--stats`` report
        shows exactly how much training the cache saved or paid.
        """
        model = self._models.get(key)
        if model is not None:
            self.obs.add("model_cache_hits")
            return model
        self.obs.add("model_cache_misses")
        with self.obs.timer("model_fit"), trace_span("model.fit", key=key[:16]):
            model = fit()
        self._models[key] = model
        return model

    def __contains__(self, key: str) -> bool:
        return key in self._models

    def __len__(self) -> int:
        return len(self._models)
