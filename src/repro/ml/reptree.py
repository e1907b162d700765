"""Reduced Error Pruning tree (Weka's REPTree).

A CART tree grown on a subset of the training data and pruned bottom-up
against a held-out pruning set: a subtree is collapsed into a leaf whenever
the leaf misclassifies no more pruning samples than the subtree does.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Classifier, check_X, check_Xy, seeded_rng
from .tree import DecisionTreeClassifier, TreeNode

__all__ = ["REPTreeClassifier"]


class REPTreeClassifier(Classifier):
    """CART + reduced-error pruning.

    Args:
        prune_fraction: fraction of the data held out for pruning.
        max_depth: growth-phase depth cap.
        min_samples_leaf: growth-phase leaf floor.
        seed: split/selection RNG.
    """

    def __init__(
        self,
        prune_fraction: float = 0.25,
        max_depth: int | None = None,
        min_samples_leaf: int = 2,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0.0 < prune_fraction < 1.0:
            raise ModelError("prune_fraction must be in (0, 1)")
        self.prune_fraction = prune_fraction
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._rng = seeded_rng(seed)
        self._tree: DecisionTreeClassifier | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "REPTreeClassifier":
        X, y = check_Xy(X, y)
        self._n_features = X.shape[1]
        n = X.shape[0]
        idx = self._rng.permutation(n)
        cut = max(1, int(n * self.prune_fraction))
        # Keep at least one sample per side.
        cut = min(cut, n - 1)
        prune_idx, grow_idx = idx[:cut], idx[cut:]
        if np.unique(y[grow_idx]).size < 2:
            # Degenerate split; grow on everything, skip pruning.
            grow_idx = idx
            prune_idx = idx[:0]
        tree = DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            seed=self._rng,
        )
        tree.fit(X[grow_idx], y[grow_idx])
        if len(prune_idx):
            self._prune(tree.root, X[prune_idx], y[prune_idx])
            tree.compile()  # pruning rewired the nodes
        self._tree = tree
        return self

    def _prune(self, node: TreeNode, X: np.ndarray, y: np.ndarray) -> int:
        """Bottom-up pruning; returns the subtree's error count on (X, y)."""
        leaf_pred = 1 if node.prob_positive >= 0.5 else 0
        leaf_errors = int(np.sum(y != leaf_pred))
        if node.is_leaf:
            return leaf_errors
        mask = X[:, node.feature] <= node.threshold
        subtree_errors = self._prune(node.left, X[mask], y[mask]) + self._prune(
            node.right, X[~mask], y[~mask]
        )
        if leaf_errors <= subtree_errors:
            # Collapse: the held-out data does not justify the split.
            node.feature = -1
            node.left = node.right = None
            return leaf_errors
        return subtree_errors

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = check_X(X, self._n_features)
        return self._tree.predict_proba(X)

    @property
    def n_leaves(self) -> int:
        """Leaf count of the pruned tree."""
        self._require_fitted()
        return self._tree.root.count_leaves()
