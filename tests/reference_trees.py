"""Reference tree fits and fitted-state equality for the model oracles.

frozen_fit is the presorted tree fit as it was when each node still gathered
X[rows, features] and w[rows], with the leaf and channel rules it used. It
also keeps the single-tree forest path the forests were first grown with:
max_features candidate columns per node (_candidate_features) and, for the
random splitter, one uniform threshold per candidate (_random_split), both
drawn from the tree's generator. The production trees always score every
column, and grow_forest decodes the forests' draws from the generators'
raw words; these fits are what both must equal, bit for bit.

assert_same_fit compares two fitted objects attribute by attribute. The
reference trees still build right, the right child's id; the production
trees drop it, as it is always left + 1, and the comparison checks that
rule on the reference's arrays. forest_trees rebuilds a forest's per-tree
trees from its one set of node arrays; a forest keeps each node's vote, not
its class distribution, and voting turns a reference tree into that form.
model_trees rebuilds the trees of any tree model from its node arrays, cut
at model_roots, and nodes gives a reference tree's arrays in the same form.
walk routes rows through one tree a level at a time, sharing no code with
the models' router: the tests predict reference trees with it.
"""

import copy
import struct
from types import SimpleNamespace

import numpy as np

from driverlens.models.tree import ClassificationTree


def assert_same_fit(a, b, path="fit"):
    """a and b hold the same fitted state: the same attribute names, arrays
    of equal dtype, shape and bytes, floats of equal bytes, and lists,
    tuples, dicts and nested objects equal element by element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert type(a) is type(b), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, float) or isinstance(b, float):
        assert isinstance(a, float) and isinstance(b, float), path
        assert struct.pack("<d", a) == struct.pack("<d", b), path
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_fit(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert type(b) is dict and list(a) == list(b), path
        for key in a:
            assert_same_fit(a[key], b[key], f"{path}[{key!r}]")
    elif hasattr(a, "__dict__"):
        assert type(a) is type(b), path
        want = dict(vars(b))
        if "right" in want:  # a reference tree: right is left + 1 at a split
            assert_same_fit(np.where(b.feature >= 0, b.left + 1, -1),
                            want.pop("right"), f"{path}.right")
        assert list(vars(a)) == list(want), path
        for key in want:
            assert_same_fit(getattr(a, key), want[key], f"{path}.{key}")
    else:
        assert type(a) is type(b) and a == b, path


def forest_arrays(model):
    """A fitted forest's one set of node arrays and its tree roots."""
    return (model.feature_, model.threshold_, model.left_, model.vote_,
            model.roots_)


def voting(tree):
    """A copy of a reference ClassificationTree with each node's vote,
    value.argmax(axis=1) (ties to the lowest class), in place of value."""
    tree = copy.copy(tree)
    tree.vote = tree.value.argmax(axis=1)
    del tree.value
    return tree


def forest_trees(arrays, max_depth=None, min_samples_split=2):
    """Each tree of a forest's (feature, threshold, left, vote, roots), as
    voting(ClassificationTree(max_depth, min_samples_split)) would be alone:
    tree t is rows roots[t]:roots[t + 1] of every array, and the last tree
    ends at the last row."""
    *fields, roots = arrays
    assert roots.dtype == np.int64 and roots[0] == 0
    assert all(a.shape[0] == fields[0].shape[0] for a in fields)
    bounds = [*roots.tolist(), fields[0].shape[0]]
    trees = []
    for start, end in zip(bounds, bounds[1:]):
        assert start < end
        tree = ClassificationTree(max_depth, min_samples_split)
        tree.feature, tree.threshold, tree.left, tree.vote = (
            a[start:end] for a in fields)
        trees.append(tree)
    return trees


def model_roots(model):
    """The root row of each tree of a fitted DTC, RFC, ETC, GBC or ABC, in
    the order the model adds the trees: DTC's one tree starts at row 0."""
    name = {"RFC": "roots_", "ETC": "roots_", "GBC": "trees_",
            "ABC": "stumps_"}.get(model.algorithm)
    return np.ravel(0 if name is None else getattr(model, name))


def model_trees(model):
    """Each tree of a fitted DTC, RFC, ETC, GBC or ABC, in the order the
    model adds them: tree t's rows of feature_, threshold_, left_ and of
    vote_ (the forests, AdaBoost) or value_ (DTC, GBC), from its root up to
    the next root and the last tree up to the end, as feature, threshold,
    left and vote or value."""
    roots = model_roots(model).tolist()
    if not roots:  # AdaBoost that kept no stump
        return []
    key = "vote" if hasattr(model, "vote_") else "value"
    fields = {k: getattr(model, k + "_")
              for k in ("feature", "threshold", "left", key)}
    bounds = [*roots, model.feature_.shape[0]]
    assert all(a.shape[0] == bounds[-1] for a in fields.values())
    assert all(start < end for start, end in zip(bounds, bounds[1:]))
    return [SimpleNamespace(**{k: a[start:end] for k, a in fields.items()})
            for start, end in zip(bounds, bounds[1:])]


def nodes(tree, key="value"):
    """A reference tree's arrays in model_trees' form, with right kept for
    assert_same_fit to check: key "vote" holds value.argmax(axis=1)."""
    value = tree.value.argmax(axis=1) if key == "vote" else tree.value
    return SimpleNamespace(feature=tree.feature, threshold=tree.threshold,
                           left=tree.left, right=tree.right, **{key: value})


def walk(tree, X):
    """The node each row of X reaches in tree, every row stepping down one
    level at a time: x <= threshold to node left, the rest (NaN too) to
    left + 1."""
    X = np.asarray(X, dtype=float)
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while (inner := tree.feature[node] >= 0).any():
        x = X[rows, np.where(inner, tree.feature[node], 0)]
        node = np.where(inner, tree.left[node] + ~(x <= tree.threshold[node]),
                        node)
    return node


def _candidate_features(d, max_features, rng):
    if max_features is None or max_features >= d:
        return np.arange(d)
    picked = rng.choice(d, size=max_features, replace=False)
    return np.sort(picked)  # ascending keeps the lowest-feature tie-break


def _random_split(n_classes, X, y, w, candidates, rng):
    """One uniform-random threshold per candidate feature, best Gini wins."""
    best = None
    for j in candidates:
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
               n_classes=None, max_features=None, splitter="best",
               leaves=None):
    """tree.fit as the presorted path grew trees before nodes carried their
    sorted values; presorted is ignored and the columns are sorted here.
    With max_features set, each node draws its candidate columns from rng;
    splitter "random" draws one threshold per candidate from rng too. Given
    leaves, it writes there the leaf each training row reaches, walked from
    the root one row at a time, apart from the partition the fit made."""
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
        candidates = _candidate_features(d, max_features, rng)
        if splitter == "random":
            split = _random_split(tree.n_classes, X[idx], y_node, w_node,
                                  candidates, rng)
        else:
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
    if leaves is not None:
        for r, row in enumerate(X):
            node = 0
            while feature[node] >= 0:
                node = (left[node] if row[feature[node]] <= threshold[node]
                        else right[node])
            leaves[r] = node
    return tree


def reference_forest_tree(X, y, n_classes, seed, max_features,
                          splitter="best", bootstrap=False, max_depth=None,
                          min_samples_split=2):
    """The tree grow_forest grows from seed, grown alone: on the rows of the
    generator's first draw rng.integers(0, n, size=n) when bootstrap is set,
    on every row when not. Like grow_forest's trees it holds no n_classes,
    which only a fit reads."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    tree = frozen_fit(ClassificationTree(max_depth, min_samples_split),
                      X[rows], y[rows], rng=rng, n_classes=n_classes,
                      max_features=max_features, splitter=splitter)
    del tree.n_classes
    return tree
