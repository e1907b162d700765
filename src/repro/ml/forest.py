"""Random forest classifier (bagged CART trees with feature subsetting).

The paper's best-performing shallow model for pseudo-labeling (Table III)
and one of the two dataset-quality models (Table VI).

Trees are mutually independent, so :meth:`RandomForestClassifier.fit` can
build them in a process pool (``n_jobs``) through
:func:`repro.parallel.map_chunks`.  Every fit first pre-draws one seed per
tree from the forest's own RNG and gives each tree a private child
generator, which makes the serial and parallel tree sequences — and hence
the fitted forests — bit-identical: parallelism never changes which random
draws a tree sees, only where it runs.  Only pool-infrastructure failures
fall back to serial (counted in ``pool_fallback.rf_tree``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..obs import ObsRegistry
from ..parallel import map_chunks
from .base import Classifier, check_X, check_Xy, seeded_rng
from .split import bootstrap_indices
from .tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]


def _fit_trees(
    state: tuple[np.ndarray, np.ndarray, dict], seeds: list[int], obs: ObsRegistry
) -> list[DecisionTreeClassifier]:
    """Bootstrap and fit one tree per pre-drawn seed, one ``rf_tree``
    timing each.  *state* is ``(X, y, tree keyword arguments)``."""
    X, y, tree_kwargs = state
    trees = []
    for seed in seeds:
        with obs.timer("rf_tree"):
            rng = np.random.default_rng(seed)
            idx = bootstrap_indices(X.shape[0], rng=rng)
            tree = DecisionTreeClassifier(**tree_kwargs, seed=rng)
            tree.fit(X[idx], y[idx])
        trees.append(tree)
    return trees


class RandomForestClassifier(Classifier):
    """Bootstrap-aggregated decision trees.

    Args:
        n_estimators: number of trees.
        max_depth: per-tree depth cap.
        min_samples_leaf: per-tree leaf size floor.
        max_features: features per split (default ``"sqrt"``).
        criterion: impurity criterion for the trees.
        seed: RNG seed; per-tree seeds are pre-drawn from it at fit time.
        n_jobs: fit trees in a process pool of this size (``None``/``<=1``
            = serial).  Parallel and serial fits are bit-identical.
        obs: observability registry counting trees fitted per mode.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        criterion: str = "gini",
        seed: int | np.random.Generator | None = None,
        n_jobs: int | None = None,
        obs: ObsRegistry | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ModelError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self._rng = seeded_rng(seed)
        self.n_jobs = n_jobs
        self.obs = obs if obs is not None else ObsRegistry()
        self.trees: list[DecisionTreeClassifier] = []

    def _tree_kwargs(self) -> dict:
        return dict(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            criterion=self.criterion,
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        self._n_features = X.shape[1]
        seeds = [int(s) for s in self._rng.integers(0, np.iinfo(np.int64).max, size=self.n_estimators)]
        trees = map_chunks(
            _fit_trees,
            seeds,
            workers=self.n_jobs,
            obs=self.obs,
            name="rf_tree",
            state=(X, y, self._tree_kwargs()),
        )
        self.trees = list(trees)
        self.obs.add("rf_trees_parallel" if trees.parallel else "rf_trees_serial", len(trees))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = check_X(X, self._n_features)
        votes = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            votes += tree.predict_proba(X)[:, 1]
        p1 = votes / len(self.trees)
        return np.column_stack([1.0 - p1, p1])

    def feature_importances(self) -> np.ndarray:
        """Split-frequency importances (fraction of internal nodes per feature)."""
        self._require_fitted()
        counts = np.zeros(self._n_features, dtype=np.float64)
        total = 0
        for tree in self.trees:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if node is None or node.is_leaf:
                    continue
                counts[node.feature] += 1
                total += 1
                stack.append(node.left)
                stack.append(node.right)
        return counts / total if total else counts
