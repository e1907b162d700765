"""Exactness of tree and forest prediction over the compiled node lists.

The oracle is the predict path the compiled walk replaced, frozen here:
each tree walks its :class:`~repro.ml.tree.TreeNode` objects row by row,
and the forest accumulates ``votes += tree.predict_proba(X)[:, 1]`` in a
NumPy float64 array before dividing by the tree count.  Every probability
must match it byte for byte, alone or inside any batch.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier, RandomForestClassifier, REPTreeClassifier
from repro.ml.tree import CompiledTree


def oracle_tree_proba(tree, X):
    """The pre-compile ``DecisionTreeClassifier.predict_proba``."""

    def leaf_for(row):
        node = tree.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    p1 = np.array([leaf_for(row).prob_positive for row in X])
    return np.column_stack([1.0 - p1, p1])


def oracle_forest_proba(forest, X):
    """The pre-compile ``RandomForestClassifier.predict_proba``."""
    votes = np.zeros(X.shape[0], dtype=np.float64)
    for tree in forest.trees:
        votes += oracle_tree_proba(tree, X)[:, 1]
    p1 = votes / len(forest.trees)
    return np.column_stack([1.0 - p1, p1])


def oracle_importances(forest):
    """The pre-compile ``feature_importances``: a stack walk over nodes."""
    counts = np.zeros(forest._n_features, dtype=np.float64)
    total = 0
    for tree in forest.trees:
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


def oracle_proba(model, X):
    X = np.asarray(X, dtype=np.float64)
    if isinstance(model, RandomForestClassifier):
        return oracle_forest_proba(model, X)
    if isinstance(model, REPTreeClassifier):
        return oracle_tree_proba(model._tree, X)
    return oracle_tree_proba(model, X)


# Few distinct training values, so splits tie and thresholds are midpoints
# that query values can hit exactly.
train_values = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
query_values = st.one_of(
    train_values,
    st.sampled_from([-1.25, 0.125, 0.625, 2.0, np.nan, np.inf, -np.inf, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
models = st.one_of(
    st.builds(
        RandomForestClassifier,
        n_estimators=st.integers(1, 8),
        max_depth=st.sampled_from([None, 1, 3]),
        min_samples_leaf=st.integers(1, 3),
        criterion=st.sampled_from(["gini", "entropy"]),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        DecisionTreeClassifier,
        max_depth=st.sampled_from([None, 2]),
        max_features=st.sampled_from([None, "sqrt"]),
        criterion=st.sampled_from(["gini", "entropy"]),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        REPTreeClassifier,
        prune_fraction=st.sampled_from([0.25, 0.5]),
        min_samples_leaf=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    ),
)


@st.composite
def fitted_cases(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 30))
    X = np.array(draw(st.lists(st.lists(train_values, min_size=d, max_size=d), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    model = draw(models).fit(X, y)
    m = draw(st.integers(1, 12))
    Q = np.array(draw(st.lists(st.lists(query_values, min_size=d, max_size=d), min_size=m, max_size=m)))
    order = draw(st.permutations(range(m)))
    return model, Q, list(order)


class TestExactness:
    @settings(max_examples=150, deadline=None)
    @given(fitted_cases())
    def test_rows_alone_and_batched_equal_the_oracle(self, case):
        model, Q, order = case
        batch = model.predict_proba(Q)
        assert batch.shape == (Q.shape[0], 2) and batch.dtype == np.float64
        assert batch.tobytes() == oracle_proba(model, Q).tobytes()
        for i in range(Q.shape[0]):
            assert model.predict_proba(Q[i : i + 1]).tobytes() == batch[i].tobytes()
        shuffled = model.predict_proba(Q[order])
        assert shuffled.tobytes() == batch[order].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(fitted_cases())
    def test_zero_rows_give_an_empty_result(self, case):
        model, Q, _ = case
        out = model.predict_proba(Q[:0])
        assert out.shape == (0, 2) and out.dtype == np.float64
        assert model.predict(Q[:0]).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(fitted_cases())
    def test_forest_importances_equal_the_oracle(self, case):
        model, _, _ = case
        if isinstance(model, RandomForestClassifier):
            assert model.feature_importances().tobytes() == oracle_importances(model).tobytes()


class TestCompiledState:
    def test_nan_goes_right(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = DecisionTreeClassifier(seed=0).fit(X, np.array([0, 0, 1, 1]))
        assert tree.predict_proba(np.array([[np.nan]]))[0, 1] == 1.0

    def test_pruned_reptree_predicts_from_the_pruned_nodes(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((300, 6))
        y = (X[:, 0] + rng.standard_normal(300) > 0).astype(np.int64)
        rep = REPTreeClassifier(prune_fraction=0.4, seed=0).fit(X, y)
        # The same growth phase without pruning: REPTree's permutation, then
        # a tree on the grow split drawing from the same generator.
        rng = np.random.default_rng(0)
        grow = rng.permutation(300)[120:]
        grown = DecisionTreeClassifier(min_samples_leaf=2, seed=rng).fit(X[grow], y[grow])
        assert rep.n_leaves < grown.root.count_leaves()  # pruning collapsed nodes
        assert rep._tree.compiled == CompiledTree.of(rep._tree.root)
        assert len(rep._tree.compiled.feature) == 2 * rep.n_leaves - 1
        assert rep.predict_proba(X).tobytes() == oracle_proba(rep, X).tobytes()

    def test_pickles_carry_the_node_tree_only(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((120, 5))
        y = (X[:, 1] > 0).astype(np.int64)
        forest = RandomForestClassifier(n_estimators=6, seed=0).fit(X, y)
        assert all("compiled" not in tree.__getstate__() for tree in forest.trees)
        loaded = pickle.loads(pickle.dumps(forest))
        assert loaded.predict_proba(X).tobytes() == forest.predict_proba(X).tobytes()
        assert [t.compiled for t in loaded.trees] == [t.compiled for t in forest.trees]
