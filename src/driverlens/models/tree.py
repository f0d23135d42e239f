"""CART-style trees: the building block for the tree ensembles.

Split search conventions, shared by every consumer:
  - candidate thresholds sit at midpoints between consecutive sorted distinct
    values (falling back to the lower value if the midpoint rounds onto the
    upper one, so routing by x <= t always reproduces the training partition);
  - the best split maximizes the weighted purity score, ties broken by lowest
    feature index then lowest threshold;
  - an impure node splits whenever any candidate exists (Gini/SSE gain is
    never negative), so unlimited-depth trees memorize consistent data.

The exact ("best") splitter presorts, after SLIQ (Mehta, Agrawal & Rissanen,
EDBT 1996): each column is argsorted once per fit with a stable sort, and each
node carries its row ids in every column's order, handed to the children by a
stable boolean partition. A stable filter of a stable global sort keeps the
(value, row id) order that a stable sort of the node's own rows would give,
so thresholds and tie-breaks equal those of a per-node sort. One prefix-sum
kernel scores every candidate feature at once: Gini uses one weighted channel
per class, squared error the single channel w*y. Boosting sorts X once and
passes the order to every tree it grows.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier

_LEAF = -1


def _midpoint(lo: float, hi: float) -> float:
    t = (lo + hi) / 2.0
    return lo if t >= hi else t


def sort_columns(X) -> np.ndarray:
    """(features x rows) matrix: row i lists the row ids in stable ascending
    order of column i. Compute it once per X and pass it to every tree fit."""
    return np.argsort(np.asarray(X, dtype=float).T, axis=1, kind="stable")


def _best_split(X, rows, features, w, total_w, channel, channel_total=None):
    """Max over (feature, threshold) of sum_c V_Lc^2/W_L + sum_c V_Rc^2/W_R.

    rows[i] holds the node's row ids sorted by column features[i]; channel[r]
    holds row r's weighted target channels (one-hot class weights for Gini,
    w*y for squared error). Right-hand channel totals are channel_total, or
    the last prefix row when it is None. Maximizing the score minimizes the
    weighted child impurity. Returns (score, feature, threshold) or None when
    no feature has two distinct values.
    """
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
    at = score.argmax(axis=1)  # first max per feature -> lowest threshold
    best = score[np.arange(at.size), at]
    i = int(best.argmax())  # first max across features -> lowest feature
    p = at[i]
    return (float(best[i]), int(features[i]),
            _midpoint(float(xs[i, p]), float(xs[i, p + 1])))


def _random_split_classification(X, y, w, n_classes, feature_indices, rng):
    """One uniform-random threshold per candidate feature, best Gini wins."""
    best = None
    for j in feature_indices:
        x = X[:, j]
        lo, hi = float(x.min()), float(x.max())
        if lo == hi:
            continue
        t = float(rng.uniform(lo, hi))
        left = x <= t
        if left.all() or not left.any():
            continue
        score = 0.0
        for mask in (left, ~left):
            wm = w[mask]
            side_w = wm.sum()
            class_w = np.bincount(y[mask], weights=wm, minlength=n_classes)
            score += (class_w**2).sum() / side_w
        if best is None or score > best[0]:
            best = (score, j, t)
    return best


class _Tree:
    """Flattened tree arrays grown by iterative preorder DFS."""

    def __init__(self, max_depth=None, min_samples_split=2, max_features=None,
                 splitter="best"):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.splitter = splitter
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None

    # subclasses define _setup, _leaf_value, _is_pure, _channels,
    # _channel_total

    def fit(self, X, y, sample_weight=None, rng=None, order=None, **kwargs):
        """Grow the tree on (X, y). order is sort_columns(X), computed here
        when not given; the random splitter does not use it."""
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        w = (np.full(n, 1.0 / n) if sample_weight is None
             else np.asarray(sample_weight, dtype=float))
        rng = rng if rng is not None else np.random.default_rng(0)
        self._setup(y, **kwargs)
        presorted = self.splitter != "random"
        if presorted:
            channel = self._channels(y, w)
            if order is None:
                order = sort_columns(X)

        feature, threshold, left, right, values = [], [], [], [], []

        def new_node():
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            values.append(None)
            return len(feature) - 1

        # idx: the node's row ids ascending; rows: the same ids per column order
        stack = [(np.arange(n), order, 0, new_node())]
        while stack:
            idx, rows, depth, node = stack.pop()
            values[node] = self._leaf_value(y[idx], w[idx])
            if (self._is_pure(y[idx])
                    or idx.size < self.min_samples_split
                    or (self.max_depth is not None and depth >= self.max_depth)):
                continue
            candidates = self._candidate_features(d, rng)
            if presorted:
                split = _best_split(X, rows[candidates], candidates, w,
                                    w[idx].sum(), channel,
                                    self._channel_total(channel, idx))
            else:
                split = self._random_split(X[idx], y[idx], w[idx], candidates,
                                           rng)
            if split is None:
                continue
            _, j, t = split
            go_left = X[idx, j] <= t
            feature[node] = j
            threshold[node] = t
            left[node] = new_node()
            right[node] = new_node()
            rows_left = rows_right = None
            if presorted:
                # a stable filter keeps each column's (value, row id) order
                rows_go_left = X[rows, j] <= t
                rows_left = rows[rows_go_left].reshape(d, -1)
                rows_right = rows[~rows_go_left].reshape(d, -1)
            # push right first so the left child is processed (and numbered) first
            stack.append((idx[~go_left], rows_right, depth + 1, right[node]))
            stack.append((idx[go_left], rows_left, depth + 1, left[node]))

        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(values, dtype=float)
        return self

    def _candidate_features(self, d, rng):
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        picked = rng.choice(d, size=self.max_features, replace=False)
        return np.sort(picked)  # ascending keeps the lowest-feature tie-break

    def _leaf_ids(self, X) -> np.ndarray:
        current = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = self.feature[current] >= 0
            if not internal.any():
                return current
            rows = np.flatnonzero(internal)
            nodes = current[rows]
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            current[rows] = np.where(go_left, self.left[nodes], self.right[nodes])

    def to_state(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    def load_state(self, state: dict):
        self.feature = np.asarray(state["feature"], dtype=np.int64)
        self.threshold = np.asarray(state["threshold"], dtype=float)
        self.left = np.asarray(state["left"], dtype=np.int64)
        self.right = np.asarray(state["right"], dtype=np.int64)
        self.value = np.asarray(state["value"], dtype=float)
        return self


class ClassificationTree(_Tree):
    """Gini-impurity tree; leaves hold weighted class distributions."""

    def _setup(self, y, n_classes=None):
        self.n_classes = int(n_classes) if n_classes else int(y.max()) + 1

    def _leaf_value(self, y, w):
        class_w = np.bincount(y, weights=w, minlength=self.n_classes)
        return class_w / class_w.sum()

    def _is_pure(self, y):
        return np.all(y == y[0])

    def _channels(self, y, w):
        class_w = np.zeros((y.size, self.n_classes))
        class_w[np.arange(y.size), y] = w
        return class_w

    def _channel_total(self, channel, idx):
        return None  # right-hand class totals come from the last prefix row

    def _random_split(self, X, y, w, candidates, rng):
        return _random_split_classification(X, y, w, self.n_classes,
                                            candidates, rng)

    def predict_proba(self, X):
        return self.value[self._leaf_ids(np.asarray(X, dtype=float))]

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)


class RegressionTree(_Tree):
    """Squared-error tree; leaves hold weighted target means."""

    def _setup(self, y):
        pass

    def _leaf_value(self, y, w):
        return float(np.sum(w * y) / np.sum(w))

    def _is_pure(self, y):
        return np.all(y == y[0])

    def _channels(self, y, w):
        return (w * y)[:, None]

    def _channel_total(self, channel, idx):
        return channel[idx, 0].sum()

    def predict(self, X):
        return self.value[self._leaf_ids(np.asarray(X, dtype=float))]


class DecisionTreeClassifier(Classifier):
    """Single unpruned CART tree."""

    algorithm = "DTC"
    DEFAULTS = {"max_depth": None, "min_samples_split": 2}

    def _fit(self, X, y, rng):
        self.tree_ = ClassificationTree(
            max_depth=self.params["max_depth"],
            min_samples_split=self.params["min_samples_split"],
        ).fit(X, y.astype(np.int64), rng=rng, n_classes=self.n_classes_)

    def _predict_proba(self, X):
        return self.tree_.predict_proba(X)

    def _state(self):
        return {"tree": self.tree_.to_state()}

    def _load_state(self, state):
        self.tree_ = ClassificationTree(
            max_depth=self.params["max_depth"],
            min_samples_split=self.params["min_samples_split"],
        ).load_state(state["tree"])
        self.tree_.n_classes = self.n_classes_
