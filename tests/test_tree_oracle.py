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

A second oracle is bitwise: frozen_fit is the presorted tree fit as it was
when each node still gathered X[rows, features] and w[rows] (kept here
unchanged, with the leaf and channel rules it used). Every model that grows
single exact trees must come out with the same serialized state and the
same probabilities when its trees are grown by frozen_fit instead.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from driverlens.models import ModelSpec, model_from_json, train
from driverlens.models import tree as tree_module
from driverlens.models.tree import ClassificationTree, RegressionTree


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
    proba = model.predict_proba(X)
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
        _assert_root_split(model.tree_, oracle_best_split(X, y, C))


def test_same_split_choice_as_oracle_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(25):
        X, y, C = random_instance(rng, tied=True)
        model = train(ModelSpec("DTC", {"max_depth": 2}, 0), X, y)
        _assert_root_split(model.tree_, oracle_best_split(X, y, C))
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
        got = impl_training_loss(tree, X, w)
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
        got = float(np.sum(w * (y - tree.predict(X)) ** 2))
        leaves = _grow(X, y, w, 0, 2, oracle_best_regression_split)
        want = oracle_regression_loss(leaves)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def walk_leaf(tree, row):
    """Root-to-leaf walk of one row: x <= threshold goes left, NaN right."""
    node = 0
    while tree.feature[node] >= 0:
        x = row[tree.feature[node]]
        go_left = not np.isnan(x) and x <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return node


def fitted_trees():
    """Trees of every tree model: DTC, RFC, ETC, GBC and ABC stumps."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(80, 5))
    y = np.arange(80) % 3
    X[:, 0] += y
    fit = {alg: train(ModelSpec(alg, params, 4), X, y) for alg, params in
           (("DTC", {}), ("RFC", {"n_trees": 4}), ("ETC", {"n_trees": 4}),
            ("GBC", {"n_rounds": 3}), ("ABC", {"n_rounds": 4}))}
    return ([fit["DTC"].tree_] + fit["RFC"].trees_ + fit["ETC"].trees_
            + [t for rnd in fit["GBC"].trees_ for t in rnd] + fit["ABC"].stumps_)


def test_leaf_ids_match_a_per_row_walk():
    rng = np.random.default_rng(32)
    trees = fitted_trees()
    Q = rng.normal(scale=1.5, size=(60, 5))
    Q[:5] = [[t.threshold[0] if t.feature[0] == j else 0.0 for j in range(5)]
             for t in trees[:5]]  # rows exactly on a root threshold go left
    Q[5:20][rng.random((15, 5)) < 0.4] = np.nan
    Q[20:30][rng.random((10, 5)) < 0.4] = np.inf
    Q[30:40][rng.random((10, 5)) < 0.4] = -np.inf
    for tree in trees:
        want = np.array([walk_leaf(tree, row) for row in Q], dtype=np.int64)
        for X in (Q, np.asfortranarray(Q)):
            assert np.array_equal(tree._leaf_ids(X), want)
            assert np.array_equal(tree._leaf_ids(X[:1]), want[:1])
            assert tree._leaf_ids(X[:0]).shape == (0,)


def test_predict_ties_go_to_the_lowest_class_code():
    tree = ClassificationTree().load_state({
        "feature": [0, -1, -1], "threshold": [0.0, 0.0, 0.0],
        "left": [1, -1, -1], "right": [2, -1, -1],
        "value": [[0.4, 0.3, 0.3], [0.25, 0.375, 0.375], [0.5, 0.0, 0.5]]})
    X = np.array([[-1.0], [1.0], [np.nan]])
    assert tree.predict(X).tolist() == [1, 0, 0]
    assert np.array_equal(tree.predict(X), tree.predict_proba(X).argmax(axis=1))


# ---------------------------------------------------------------------------
# frozen_fit: the gathering presorted fit, bit for bit the reference

def frozen_best_split(X, rows, features, w, total_w, channel,
                      channel_total=None):
    xs = X[rows, features[:, None]]
    cut = xs[:, :-1] < xs[:, 1:]
    if not cut.any():
        return None
    WL = np.cumsum(w[rows], axis=1)[:, :-1]
    prefix = np.cumsum(channel[rows], axis=1)
    VL = prefix[:, :-1]
    VR = (prefix[:, -1:] if channel_total is None else channel_total) - VL
    score = (VL**2).sum(axis=2) / WL + (VR**2).sum(axis=2) / (total_w - WL)
    score = np.where(cut, score, -np.inf)
    at = score.argmax(axis=1)
    best = score[np.arange(at.size), at]
    i = int(best.argmax())
    p = at[i]
    lo, hi = float(xs[i, p]), float(xs[i, p + 1])
    t = (lo + hi) / 2.0
    return float(best[i]), int(features[i]), lo if t >= hi else t


def frozen_fit(tree, X, y, sample_weight=None, rng=None, presorted=None,
               n_classes=None):
    """tree.fit as the presorted path grew trees before nodes carried their
    sorted values; presorted is ignored and the columns are sorted here."""
    assert tree.splitter == "best"
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    w = (np.full(n, 1.0 / n) if sample_weight is None
         else np.asarray(sample_weight, dtype=float))
    rng = rng if rng is not None else np.random.default_rng(0)
    gini = isinstance(tree, ClassificationTree)
    if gini:
        tree.n_classes = int(n_classes) if n_classes else int(y.max()) + 1
        channel = np.zeros((n, tree.n_classes))
        channel[np.arange(n), y] = w
    else:
        channel = (w * y)[:, None]
    order = np.argsort(X.T, axis=1, kind="stable")

    feature, threshold, left, right, values = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        values.append(None)
        return len(feature) - 1

    stack = [(np.arange(n), order, 0, new_node())]
    while stack:
        idx, rows, depth, node = stack.pop()
        y_node, w_node = y[idx], w[idx]
        if gini:
            class_w = np.bincount(y_node, weights=w_node,
                                  minlength=tree.n_classes)
            values[node] = class_w / class_w.sum()
        else:
            values[node] = float(np.sum(w_node * y_node) / np.sum(w_node))
        if (np.all(y_node == y_node[0]) or idx.size < tree.min_samples_split
                or (tree.max_depth is not None and depth >= tree.max_depth)):
            continue
        if tree.max_features is None or tree.max_features >= d:
            candidates = np.arange(d)
        else:
            candidates = np.sort(rng.choice(d, size=tree.max_features,
                                            replace=False))
        split = frozen_best_split(
            X, rows[candidates], candidates, w, w[idx].sum(), channel,
            None if gini else channel[idx, 0].sum())
        if split is None:
            continue
        _, j, t = split
        go_left = X[idx, j] <= t
        feature[node], threshold[node] = j, t
        left[node] = new_node()
        right[node] = new_node()
        rows_go_left = X[rows, j] <= t
        rows_left = rows[rows_go_left].reshape(d, -1)
        rows_right = rows[~rows_go_left].reshape(d, -1)
        stack.append((idx[~go_left], rows_right, depth + 1, right[node]))
        stack.append((idx[go_left], rows_left, depth + 1, left[node]))

    tree.feature = np.asarray(feature, dtype=np.int64)
    tree.threshold = np.asarray(threshold, dtype=float)
    tree.left = np.asarray(left, dtype=np.int64)
    tree.right = np.asarray(right, dtype=np.int64)
    tree.value = np.asarray(values, dtype=float)
    return tree


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
    grid = np.random.default_rng(1).normal(scale=2.0, size=(64, X.shape[1]))
    model = train(spec, X, y)
    with monkeypatch.context() as m:
        m.setattr(tree_module._Tree, "fit", frozen_fit)
        want = train(spec, X, y)
    assert model.to_json() == want.to_json()
    assert np.array_equal(model.predict_proba(grid), want.predict_proba(grid))
    assert np.array_equal(model_from_json(model.to_json()).predict_proba(grid),
                          want.predict_proba(grid))
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
    # the forests' reference: one tree on max_features columns per node
    X, y = frozen_instance(400 + n_classes, n_classes, columns)
    for seed in range(3):
        params = dict(max_features=max_features,
                      max_depth=None if seed < 2 else 3)
        got = ClassificationTree(**params).fit(
            X, y, rng=np.random.default_rng(seed), n_classes=n_classes)
        want = frozen_fit(ClassificationTree(**params), X, y,
                          rng=np.random.default_rng(seed), n_classes=n_classes)
        assert got.to_state() == want.to_state()


def test_fitted_tree_keeps_only_what_a_loaded_tree_holds():
    # a fit leaves no training-row state behind: its attributes are a
    # loaded tree's arrays plus its hyperparameters
    X, y = frozen_instance(500, 3, "tied")
    trees = [ClassificationTree(max_depth=4).fit(X, y),
             ClassificationTree(max_depth=1).fit(
                 X, y, sample_weight=np.linspace(1.0, 2.0, y.size)),
             RegressionTree(max_depth=3).fit(X, y - 1.0)]
    for tree in trees:
        loaded = type(tree)().load_state(tree.to_state())
        hyper = {"max_depth", "min_samples_split", "max_features", "splitter",
                 "n_classes"}
        assert set(vars(tree)) - set(vars(loaded)) <= hyper
        for key, value in vars(loaded).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(tree, key), value), key
            else:
                assert key in hyper, key
