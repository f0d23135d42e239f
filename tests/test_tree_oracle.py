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
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from driverlens.models import ModelSpec, train
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
