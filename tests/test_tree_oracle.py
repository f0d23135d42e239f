"""Tree equivalence against an exhaustive exact-arithmetic split search.

The oracles re-implement the greedy CART growth naively: every (feature,
midpoint-threshold) candidate is scored with Fraction arithmetic (no floats,
no prefix sums), using the same tie-breaks (lowest feature index, then lowest
threshold). Sample weights enter as the exact rationals their floats denote.
The Gini oracle checks ClassificationTree (DTC, RFC, ABC stumps); the
weighted squared-error oracle checks RegressionTree (the GBC trees). The
grown trees must agree with the production implementation on training loss,
and the root split must be the oracle's exactly.

Columns rounded to a few distinct values make many rows share a value, so
the order in which the presorted search visits tied rows matters; non-uniform
weights are the path AdaBoost takes.

A second oracle is bitwise: frozen_fit (tests/reference_trees.py) is the
presorted tree fit as it was when each node still gathered X[rows, features]
and w[rows], with the leaf and channel rules it used. Every model that grows
single exact trees must come out with the same fitted arrays and the same
probabilities when its trees are grown by frozen_fit instead, and a forest
tree must equal frozen_fit's tree on the same draws.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driverlens.models import ModelSpec, train
from driverlens.models import tree as tree_module
from driverlens.models.tree import (ClassificationTree, RegressionTree,
                                    leaf_ids, tree_leaves)
from reference_trees import (assert_same_fit, forest_trees, frozen_fit,
                             model_roots, model_trees, nodes,
                             reference_forest_tree, voting, walk)


def _candidate_thresholds(column):
    values = sorted(set(column.tolist()))
    out = []
    for lo, hi in zip(values[:-1], values[1:]):
        t = (lo + hi) / 2.0
        out.append(lo if t >= hi else t)
    return out


def _exact(values):
    return [Fraction(v) for v in values.tolist()]


def _purity_score(y_side, w_side, n_classes):
    """sum_c W_c^2 / W for one side of a split."""
    class_w = [Fraction(0)] * n_classes
    for label, weight in zip(y_side, w_side):
        class_w[label] += weight
    return sum(c * c for c in class_w) / sum(class_w)


def _sse_score(y_side, w_side):
    """(sum w*y)^2 / sum w: the part of the weighted SSE a side removes."""
    return sum(w * y for y, w in zip(y_side, w_side)) ** 2 / sum(w_side)


def _best_split(X, side_score):
    best = None  # (score, feature, threshold)
    for j in range(X.shape[1]):
        for t in _candidate_thresholds(X[:, j]):
            left = X[:, j] <= t
            if left.all() or not left.any():
                continue
            score = side_score(left) + side_score(~left)
            if best is None or score > best[0]:
                best = (score, j, t)
    return best


def oracle_best_split(X, y, n_classes, w=None):
    w = np.ones(y.size) if w is None else w
    return _best_split(X, lambda m: _purity_score(y[m].tolist(), _exact(w[m]),
                                                  n_classes))


def oracle_best_regression_split(X, y, w):
    return _best_split(X, lambda m: _sse_score(_exact(y[m]), _exact(w[m])))


def _grow(X, y, w, depth, max_depth, find_split):
    """Returns the list of leaf (y, w) pairs of the greedy tree."""
    pure = bool(np.all(y == y[0]))
    if pure or y.size < 2 or depth >= max_depth:
        return [(y, w)]
    split = find_split(X, y, w)
    if split is None:
        return [(y, w)]
    _, j, t = split
    left = X[:, j] <= t
    return (_grow(X[left], y[left], w[left], depth + 1, max_depth, find_split)
            + _grow(X[~left], y[~left], w[~left], depth + 1, max_depth,
                    find_split))


def oracle_grow(X, y, depth, max_depth, n_classes, w=None):
    w = np.ones(y.size) if w is None else w
    return _grow(X, y, w, depth, max_depth,
                 lambda X, y, w: oracle_best_split(X, y, n_classes, w))


def oracle_training_loss(leaves, n_classes):
    """Weighted Gini impurity of the leaves, computed exactly."""
    loss = Fraction(0)
    total = Fraction(0)
    for y_leaf, w_leaf in leaves:
        ws = _exact(w_leaf)
        class_w = [Fraction(0)] * n_classes
        for label, weight in zip(y_leaf.tolist(), ws):
            class_w[label] += weight
        leaf_w = sum(ws)
        loss += leaf_w - sum(c * c for c in class_w) / leaf_w
        total += leaf_w
    return float(loss / total)


def oracle_regression_loss(leaves):
    """Weighted SSE of the leaves around their weighted means, exactly."""
    loss = Fraction(0)
    for y_leaf, w_leaf in leaves:
        ys, ws = _exact(y_leaf), _exact(w_leaf)
        mean = sum(w * y for y, w in zip(ys, ws)) / sum(ws)
        loss += sum(w * (y - mean) ** 2 for y, w in zip(ys, ws))
    return float(loss)


def impl_training_loss(model, X, w=None):
    return gini_loss(model.predict_proba(X), w)


def gini_loss(proba, w=None):
    gini = 1.0 - (proba**2).sum(axis=1)
    return float(np.mean(gini) if w is None else np.sum(w * gini) / np.sum(w))


def _round_columns(X, rng):
    """Each column cut at its quantiles into 3 or 4 distinct values."""
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        levels = int(rng.integers(3, 5))
        edges = np.quantile(X[:, j], np.arange(1, levels) / levels)
        out[:, j] = 0.75 * np.searchsorted(edges, X[:, j]) - 1.0
    return out


def random_instance(rng, tied=False):
    n = int(rng.integers(8, 31))
    d = int(rng.integers(2, 5))
    C = int(rng.integers(2, 4))
    y = rng.integers(0, C, size=n)
    while np.unique(y).size < C:  # keep every class present
        y = rng.integers(0, C, size=n)
    X = rng.normal(size=(n, d)) + 1.5 * y[:, None] * rng.random(d)
    if tied:
        X = _round_columns(X, rng)
    return X, y, C


def random_weights(rng, n):
    """Positive, far from uniform, normalized like AdaBoost's weights."""
    w = rng.exponential(size=n) + 0.05
    return w / w.sum()


def test_depth2_matches_exhaustive_search_on_50_instances():
    rng = np.random.default_rng(20250810)
    start = time.monotonic()
    for _ in range(50):
        X, y, C = random_instance(rng)
        model = train(ModelSpec("DTC", {"max_depth": 2}, 0), X, y)
        got = impl_training_loss(model, X)
        want = oracle_training_loss(oracle_grow(X, y, 0, 2, C), C)
        assert abs(got - want) <= 1e-12
    assert time.monotonic() - start < 10.0


def test_depth1_stump_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X, y, C = random_instance(rng)
        model = train(ModelSpec("DTC", {"max_depth": 1}, 0), X, y)
        got = impl_training_loss(model, X)
        want = oracle_training_loss(oracle_grow(X, y, 0, 1, C), C)
        assert abs(got - want) <= 1e-12


def test_same_split_choice_as_oracle():
    # beyond loss equality: the root split itself matches the exact search
    rng = np.random.default_rng(11)
    for _ in range(25):
        X, y, C = random_instance(rng)
        model = train(ModelSpec("DTC", {"max_depth": 1}, 0), X, y)
        _assert_root_split(model_trees(model)[0], oracle_best_split(X, y, C))


def test_same_split_choice_as_oracle_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(25):
        X, y, C = random_instance(rng, tied=True)
        model = train(ModelSpec("DTC", {"max_depth": 2}, 0), X, y)
        _assert_root_split(model_trees(model)[0], oracle_best_split(X, y, C))
        got = impl_training_loss(model, X)
        want = oracle_training_loss(oracle_grow(X, y, 0, 2, C), C)
        assert abs(got - want) <= 1e-12


def _assert_root_split(tree, split):
    if split is None:
        assert tree.feature[0] == -1
        return
    _, j, t = split
    assert tree.feature[0] == j
    assert tree.threshold[0] == pytest.approx(t, abs=0.0)


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_weighted_gini_matches_oracle(tied):
    rng = np.random.default_rng(31 + tied)
    for _ in range(25):
        X, y, C = random_instance(rng, tied)
        w = random_weights(rng, y.size)
        stump = ClassificationTree(max_depth=1).fit(X, y, sample_weight=w,
                                                    n_classes=C)
        _assert_root_split(stump, oracle_best_split(X, y, C, w))
        tree = ClassificationTree(max_depth=2).fit(X, y, sample_weight=w,
                                                   n_classes=C)
        got = gini_loss(tree.value[walk(tree, X)], w)
        want = oracle_training_loss(oracle_grow(X, y, 0, 2, C, w), C)
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_regression_tree_matches_weighted_sse_oracle(tied, weighted):
    rng = np.random.default_rng(53 + 2 * tied + weighted)
    for _ in range(20):
        X, labels, _ = random_instance(rng, tied)
        y = labels + rng.normal(scale=0.5, size=labels.size)
        w = (random_weights(rng, y.size) if weighted
             else np.full(y.size, 1.0 / y.size))
        fit_w = w if weighted else None  # None is GBC's path: uniform 1/n
        stump = RegressionTree(max_depth=1).fit(X, y, sample_weight=fit_w)
        _assert_root_split(stump, oracle_best_regression_split(X, y, w))
        tree = RegressionTree(max_depth=2).fit(X, y, sample_weight=fit_w)
        got = float(np.sum(w * (y - tree.value[walk(tree, X)]) ** 2))
        leaves = _grow(X, y, w, 0, 2, oracle_best_regression_split)
        want = oracle_regression_loss(leaves)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def walk_leaf(tree, row):
    """Root-to-leaf walk of one row: x <= threshold goes to node left, NaN
    and the rest to node left + 1."""
    node = 0
    while tree.feature[node] >= 0:
        x = row[tree.feature[node]]
        go_left = not np.isnan(x) and x <= tree.threshold[node]
        node = tree.left[node] + (0 if go_left else 1)
    return node


def fitted_tree_models(monkeypatch):
    """Every tree model: a DTC, GBC and ABC, and an RFC and an ETC whose
    steps are cut in several chunks."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(80, 5))
    y = np.arange(80) % 3
    X[:, 0] += y
    # a step chunk holds _BUDGET // 8 = 160 rows: 5 80-row roots in 3 chunks
    monkeypatch.setattr(tree_module, "_BUDGET", 8 * 80 * 2)
    models = [train(ModelSpec(alg, params, 4), X, y) for alg, params in
              (("DTC", {}), ("RFC", {"n_trees": 5}), ("ETC", {"n_trees": 5}),
               ("GBC", {"n_rounds": 3}), ("ABC", {"n_rounds": 4}))]
    assert [len(model_trees(m)) for m in models][:4] == [1, 5, 5, 9]
    return models


def test_leaf_ids_match_a_per_row_walk(monkeypatch):
    # the one predict path, tree_leaves, routes each tree of every tree
    # model through leaf_ids; each tree's leaves, less its root row, must
    # be the per-row walk's
    rng = np.random.default_rng(32)
    models = fitted_tree_models(monkeypatch)
    trees = [tree for model in models for tree in model_trees(model)]
    Q = rng.normal(scale=1.5, size=(len(trees) + 40, 5))
    for i, tree in enumerate(trees):
        # a row exactly on a root threshold goes left
        Q[i, tree.feature[0]] = tree.threshold[0]
    tail = Q[len(trees):]
    tail[:15][rng.random((15, 5)) < 0.4] = np.nan
    tail[15:25][rng.random((10, 5)) < 0.4] = np.inf
    tail[25:35][rng.random((10, 5)) < 0.4] = -np.inf
    for model in models:
        roots = model_roots(model)
        want = [root + np.array([walk_leaf(tree, row) for row in Q],
                                dtype=np.int64)
                for root, tree in zip(roots.tolist(), model_trees(model))]
        for X in (Q, np.asfortranarray(Q)):
            got = list(tree_leaves(model, roots, X))
            assert len(got) == len(want)
            for leaf, expected in zip(got, want):
                assert np.array_equal(leaf, expected)
            for leaf, expected in zip(tree_leaves(model, roots, X[:1]), want):
                assert np.array_equal(leaf, expected[:1])
            for leaf in tree_leaves(model, roots, X[:0]):
                assert leaf.shape == (0,)


def test_predict_ties_go_to_the_lowest_class_code():
    model = ModelSpec("DTC", {}, 0).build()
    model.n_features_, model.n_classes_ = 1, 3
    model.feature_ = np.array([0, -1, -1])
    model.threshold_ = np.zeros(3)
    model.left_ = np.array([1, -1, -1])
    model.value_ = np.array([[0.4, 0.3, 0.3], [0.25, 0.375, 0.375],
                             [0.5, 0.0, 0.5]])
    X = np.array([[-1.0], [1.0], [np.nan]])
    assert model.predict(X).tolist() == [1, 0, 0]
    assert np.array_equal(model.predict_proba(X), model.value_[[1, 2, 2]])


# ---------------------------------------------------------------------------
# frozen_fit: the gathering presorted fit, bit for bit the reference

def frozen_instance(seed, n_classes, columns):
    """A (rows x 5) table whose columns are continuous ("distinct"), rounded
    to a few levels ("tied"), or rounded with one constant column
    ("constant"), and every one of n_classes classes present."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8 * n_classes, 16 * n_classes))
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    X = rng.normal(size=(n, 5)) + 0.8 * y[:, None] * rng.random(5)
    if columns != "distinct":
        X = np.round(X * 2) / 2
    if columns == "constant":
        X[:, 2] = 1.5
    return X, y


def assert_matches_frozen_fit(spec, X, y, monkeypatch):
    """The model grown with frozen_fit in place of every tree fit holds the
    same arrays and probabilities, and its node arrays hold exactly the
    frozen trees it kept, one after another (AdaBoost may grow one stump
    more than it keeps)."""
    grid = np.random.default_rng(1).normal(scale=2.0, size=(64, X.shape[1]))
    model = train(spec, X, y)
    grown = []

    def recording_fit(tree, *args, **kwargs):
        grown.append(frozen_fit(tree, *args, **kwargs))
        return grown[-1]

    with monkeypatch.context() as m:
        m.setattr(tree_module._Tree, "fit", recording_fit)
        want = train(spec, X, y)
    assert_same_fit(model, want)
    assert np.array_equal(model.predict_proba(grid), want.predict_proba(grid))
    trees = model_trees(model)
    assert 0 <= len(grown) - len(trees) <= (spec.algorithm == "ABC")
    key = "vote" if spec.algorithm == "ABC" else "value"
    assert_same_fit(trees, [nodes(tree, key) for tree in grown[:len(trees)]])
    return model


COLUMNS = ["distinct", "tied", "constant"]


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("n_classes", [2, 3, 4, 8])
@pytest.mark.parametrize("params", [{}, {"max_depth": 1}, {"max_depth": 5},
                                    {"min_samples_split": 12}],
                         ids=["unlimited", "depth-1", "depth-5", "split-12"])
def test_dtc_matches_frozen_fit_bitwise(params, n_classes, columns,
                                        monkeypatch):
    X, y = frozen_instance(100 + n_classes, n_classes, columns)
    assert_matches_frozen_fit(ModelSpec("DTC", params, 0), X, y, monkeypatch)


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("n_classes", [2, 3, 4, 8])
@pytest.mark.parametrize("params", [
    {"n_rounds": 4},
    {"n_rounds": 3, "max_depth": 1},
    {"n_rounds": 3, "max_depth": 5},
    {"n_rounds": 2, "max_depth": None},
    {"n_rounds": 3, "min_samples_split": 12}],
    ids=["depth-3", "depth-1", "depth-5", "unlimited", "split-12"])
def test_gbc_matches_frozen_fit_bitwise(params, n_classes, columns,
                                        monkeypatch):
    X, y = frozen_instance(200 + n_classes, n_classes, columns)
    assert_matches_frozen_fit(ModelSpec("GBC", params, 0), X, y, monkeypatch)


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("n_classes", [2, 3, 4, 8])
def test_abc_matches_frozen_fit_bitwise(n_classes, columns, monkeypatch):
    # weighted rows: every stump after the first grows on AdaBoost's weights
    X, y = frozen_instance(300 + n_classes, n_classes, columns)
    model = assert_matches_frozen_fit(ModelSpec("ABC", {"n_rounds": 12}, 0),
                                      X, y, monkeypatch)
    assert len(model.stumps_) > 1


@pytest.mark.parametrize("stop", ["perfect", "random-guess"])
def test_abc_early_stop_matches_frozen_fit_bitwise(stop, monkeypatch):
    rng = np.random.default_rng(0)
    if stop == "perfect":  # the first stump separates the classes exactly
        y = np.arange(60) % 2
        X = np.column_stack([y + 0.1 * rng.random(60), rng.normal(size=60)])
    else:
        # one binary feature with label noise: once the weights have
        # balanced its only split, a stump errs at the (C-1)/C level
        x = rng.integers(0, 2, size=40)
        y = np.where(rng.random(40) < 0.7, x, rng.integers(0, 2, size=40))
        X = np.column_stack([x, np.ones(40)]).astype(float)
    model = assert_matches_frozen_fit(ModelSpec("ABC", {"n_rounds": 50}, 0),
                                      X, y, monkeypatch)
    assert 1 <= len(model.stumps_) < 50


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("n_classes", [2, 3, 4, 8])
@pytest.mark.parametrize("max_features", [1, 2, 4])
def test_sampled_features_tree_matches_frozen_fit_bitwise(max_features,
                                                          n_classes, columns):
    # a forest tree on max_features columns per node, exact or random
    # splits, equals frozen_fit on the same draws
    X, y = frozen_instance(400 + n_classes, n_classes, columns)
    for seed in range(3):
        for splitter in ("best", "random"):
            params = dict(splitter=splitter,
                          max_depth=None if seed < 2 else 3)
            got, = forest_trees(tree_module.grow_forest(
                X, y, n_classes, [seed], max_features, **params),
                params["max_depth"])
            want = reference_forest_tree(X, y, n_classes, seed, max_features,
                                         **params)
            assert_same_fit(got, voting(want))


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_fit_writes_each_training_rows_routed_leaf(data):
    # the leaves a fit hands boosting are the leaves X routes to: DTC trees,
    # GBC regression trees on residuals, and Gini trees on AdaBoost weights
    kind = data.draw(st.sampled_from(["DTC", "GBC", "ABC"]), label="kind")
    n = data.draw(st.integers(2, 60), label="n")
    d = data.draw(st.integers(1, 5), label="d")
    C = data.draw(st.integers(2, 9), label="C")
    columns = data.draw(st.sampled_from(COLUMNS), label="columns")
    max_depth = data.draw(st.sampled_from([None, 1, 3]), label="max_depth")
    min_split = data.draw(st.integers(2, 12), label="min_samples_split")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(0, C, size=n)
    X = rng.normal(size=(n, d)) + 0.5 * y[:, None]
    if columns != "distinct":
        X = np.round(X * 2) / 2
    if columns == "constant":
        X[:, 0] = 1.5
    leaves = np.full(n, -7, dtype=np.int64)
    if kind == "GBC":  # a residual, one-hot minus a probability, tied too
        residual = np.round((y == 0) - rng.random(n), 1)
        tree = RegressionTree(max_depth, min_split).fit(X, residual,
                                                        leaves=leaves)
    else:
        weights = None
        if kind == "ABC":  # misclassified rows scaled up, then normalized
            weights = np.exp(2.0 * (rng.random(n) < 0.3))
            weights /= weights.sum()
        tree = ClassificationTree(max_depth, min_split).fit(
            X, y, sample_weight=weights, n_classes=C, leaves=leaves)
    assert np.array_equal(leaves, leaf_ids(tree.feature, tree.threshold,
                                           tree.left, X.T))
    assert (tree.feature[leaves] == -1).all()


def test_fitted_tree_keeps_only_its_arrays_and_stopping_rules():
    # a fit leaves no training-row state behind: a fitted tree holds its
    # node arrays, its two stopping rules and, for Gini, its class count
    X, y = frozen_instance(500, 3, "tied")
    arrays = {"feature", "threshold", "left", "value"}
    rules = {"max_depth", "min_samples_split"}
    trees = [ClassificationTree(max_depth=4).fit(X, y),
             ClassificationTree(max_depth=1).fit(
                 X, y, sample_weight=np.linspace(1.0, 2.0, y.size)),
             RegressionTree(max_depth=3).fit(X, y - 1.0)]
    for tree in trees:
        gini = isinstance(tree, ClassificationTree)
        assert set(vars(tree)) == arrays | rules | ({"n_classes"} if gini
                                                     else set())
        for key in arrays:
            assert isinstance(getattr(tree, key), np.ndarray), key
