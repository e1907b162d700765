"""CART decision tree classifier.

A from-scratch binary-classification CART with Gini or entropy impurity,
vectorized split search (per-node, per-feature prefix-sum sweep), depth and
leaf-size controls, and random feature subsetting so that
:class:`~repro.ml.forest.RandomForestClassifier` can build decorrelated
trees on top of it.

Prediction does not walk :class:`TreeNode` objects: a fitted tree is
compiled once into a :class:`CompiledTree`, and :func:`mean_leaf_probability`
walks plain Python rows through any number of them (DESIGN.md states its
exactness rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ModelError
from .base import Classifier, check_X, check_Xy, seeded_rng

__all__ = [
    "CompiledTree",
    "DecisionTreeClassifier",
    "TreeNode",
    "mean_leaf_probability",
    "proba_columns",
]


@dataclass(slots=True)
class TreeNode:
    """One node of a fitted tree.

    A leaf has ``feature == -1``; an internal node routes samples with
    ``x[feature] <= threshold`` to ``left``.
    """

    feature: int
    threshold: float
    left: "TreeNode | None"
    right: "TreeNode | None"
    prob_positive: float
    n_samples: int

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    def depth(self) -> int:
        """Height of the subtree rooted here (leaf = 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.count_leaves() + self.right.count_leaves()


class CompiledTree(NamedTuple):
    """A fitted tree as parallel per-node lists, root at index 0.

    Leaves have ``feature == -1``; an internal node ``i`` sends a row with
    ``row[feature[i]] <= threshold[i]`` to ``left[i]``, else ``right[i]``.
    ``prob`` holds each node's training P(1), read at leaves.
    """

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    prob: list[float]

    @classmethod
    def of(cls, root: TreeNode) -> "CompiledTree":
        """Compile the subtree under *root* (preorder numbering)."""
        tree = cls([], [], [], [], [])
        stack = [(root, -1, False)]  # (node, parent index, is right child)
        while stack:
            node, parent, is_right = stack.pop()
            i = len(tree.feature)
            if parent >= 0:
                (tree.right if is_right else tree.left)[parent] = i
            tree.feature.append(node.feature)
            tree.threshold.append(node.threshold)
            tree.left.append(-1)
            tree.right.append(-1)
            tree.prob.append(node.prob_positive)
            if not node.is_leaf:
                stack.append((node.right, i, True))
                stack.append((node.left, i, False))
        return tree


def mean_leaf_probability(trees: Sequence[CompiledTree], rows: list[list[float]]) -> list[float]:
    """Each row's leaf P(1) averaged over *trees*: summed in tree order as
    Python floats from ``0.0``, then divided by the tree count.

    Python float compare, add and divide are the IEEE float64 operations
    NumPy uses, so this keeps the bits of a per-tree NumPy column sum as
    long as the order stays; a NaN feature compares false and goes right.
    """
    n = len(trees)
    out = []
    for row in rows:
        total = 0.0
        for feature, threshold, left, right, prob in trees:
            i = 0
            while (f := feature[i]) >= 0:
                i = left[i] if row[f] <= threshold[i] else right[i]
            total += prob[i]
        out.append(total / n)
    return out


def proba_columns(p1: list[float]) -> np.ndarray:
    """``(N, 2)`` class probabilities ``[1 - p1, p1]`` from P(1) values."""
    out = np.empty((len(p1), 2), dtype=np.float64)
    out[:, 1] = p1
    out[:, 0] = 1.0 - out[:, 1]
    return out


def _impurity(pos: np.ndarray, total: np.ndarray, criterion: str) -> np.ndarray:
    """Vectorized impurity of nodes with *pos* positives out of *total*."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, pos / np.maximum(total, 1), 0.0)
        if criterion == "gini":
            return 2.0 * p * (1.0 - p)
        # entropy
        q = 1.0 - p
        h = np.zeros_like(p)
        mask = (p > 0) & (p < 1)
        h[mask] = -(p[mask] * np.log2(p[mask]) + q[mask] * np.log2(q[mask]))
        return h


class DecisionTreeClassifier(Classifier):
    """Binary CART tree.

    Args:
        max_depth: maximum tree depth (None = unbounded).
        min_samples_split: minimum samples required to attempt a split.
        min_samples_leaf: minimum samples each child must keep.
        max_features: number of features considered per split; ``"sqrt"``,
            an int, or None for all.
        criterion: ``"gini"`` or ``"entropy"``.
        seed: RNG for feature subsetting.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        criterion: str = "gini",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ModelError(f"unknown criterion {criterion!r}")
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise ModelError("min_samples_split >= 2 and min_samples_leaf >= 1 required")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self._rng = seeded_rng(seed)
        self.root: TreeNode | None = None
        self.compiled: CompiledTree | None = None

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        self._n_features = X.shape[1]
        self.root = self._build(X, y, depth=0)
        self.compile()
        return self

    def compile(self) -> None:
        """Rebuild :attr:`compiled` from :attr:`root`; call again after
        mutating the node tree (as REPTree's pruning does)."""
        self.compiled = CompiledTree.of(self.root)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = check_X(X, self._n_features)
        return proba_columns(mean_leaf_probability([self.compiled], X.tolist()))

    # The compiled lists are derived state: pickles carry only the node
    # tree, so the model-cache format (and with it every training key) is
    # unchanged, and older pickles load into compiled trees.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["compiled"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.compiled = CompiledTree.of(self.root) if self.root is not None else None

    # ------------------------------------------------------------------

    def _n_candidate_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(self.max_features, int) and self.max_features > 0:
            return min(self.max_features, d)
        raise ModelError(f"bad max_features {self.max_features!r}")

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        n = y.shape[0]
        pos = int(np.sum(y))
        prob = pos / n
        if (
            pos == 0
            or pos == n
            or n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return TreeNode(-1, 0.0, None, None, prob, n)

        feature, threshold = self._best_split(X, y)
        if feature < 0:
            return TreeNode(-1, 0.0, None, None, prob, n)
        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], depth + 1)
        right = self._build(X[~mask], y[~mask], depth + 1)
        return TreeNode(feature, threshold, left, right, prob, n)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float]:
        """Scan candidate features; return (feature, threshold) or (-1, 0)."""
        n, d = X.shape
        k = self._n_candidate_features(d)
        features = (
            np.arange(d) if k == d else self._rng.choice(d, size=k, replace=False)
        )
        best_gain = 1e-12
        best: tuple[int, float] = (-1, 0.0)
        parent_imp = float(_impurity(np.array([np.sum(y)]), np.array([n]), self.criterion)[0])
        min_leaf = self.min_samples_leaf
        for f in features:
            values = X[:, f]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            y_sorted = y[order]
            # Candidate cuts are between distinct adjacent values.
            distinct = np.flatnonzero(v_sorted[1:] != v_sorted[:-1]) + 1
            if distinct.size == 0:
                continue
            pos_prefix = np.cumsum(y_sorted)
            left_n = distinct.astype(np.float64)
            right_n = n - left_n
            valid = (left_n >= min_leaf) & (right_n >= min_leaf)
            if not np.any(valid):
                continue
            left_pos = pos_prefix[distinct - 1].astype(np.float64)
            right_pos = pos_prefix[-1] - left_pos
            imp_left = _impurity(left_pos, left_n, self.criterion)
            imp_right = _impurity(right_pos, right_n, self.criterion)
            gain = parent_imp - (left_n * imp_left + right_n * imp_right) / n
            gain[~valid] = -np.inf
            best_idx = int(np.argmax(gain))
            if gain[best_idx] > best_gain:
                best_gain = float(gain[best_idx])
                cut = distinct[best_idx]
                best = (int(f), float((v_sorted[cut - 1] + v_sorted[cut]) / 2.0))
        return best
