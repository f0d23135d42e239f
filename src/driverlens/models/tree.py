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
node carries its row ids in every column's order together with the sorted
values themselves, both handed to the children by one stable boolean
partition. A stable filter of a stable global sort keeps the (value, row id)
order that a stable sort of the node's own rows would give, so thresholds and
tie-breaks equal those of a per-node sort, and no node gathers X again. One
prefix-sum kernel scores every candidate feature at once: Gini uses one
weighted channel per class, class-major (one contiguous row per class, its
squares added by base._leading_sum in numpy's order of a last-axis sum), and
squared error the single channel w*y. Boosting sorts X once and passes the
sorted columns to every tree it grows, with a leaves buffer that each fit
fills with every training row's leaf, so it never routes X back through a
tree: the fit has just partitioned those rows, and x <= t reproduces that
partition.

Rows without sample weights (DTC, GBC, the forests) all weigh 1/n, so a
weighted sum of k of them depends only on k and on the order of addition:
Q[k] adds k weights left to right (cumsum, bincount) and S[k] is numpy's
pairwise sum of k weights (w[idx].sum()). A node of m uniform rows reads
its weight prefix sums as Q[1:m] and its weight as S[m] instead of
gathering w; AdaBoost's weighted rows keep the gathered cumsum.

The forests grow all their trees in one lockstep pass (grow_forest). Each
step pops the next node of every unfinished tree's depth-first stack, so
every tree numbers its nodes as _Tree.fit does, and the batched kernels
score those nodes a chunk at a time, each chunk's rows fitting _BUDGET. A
tree has at most one node in a step, so chunks change none of its draws.
Besides the trees it returns, the pass holds int32 row ids (n per tree), a
word buffer of about _BUDGET and its node records (int32 but for the
threshold, narrower than the kept arrays), so its memory follows the rows
and nodes its trees hold. Every split node draws its candidate
features from its tree's seeded generator, and ETC one uniform threshold
per non-constant candidate: after RFC's bootstrap, one decode per chunk
(_Draws) reads every node's draws off the trees' raw PCG64 words, with no
Generator call per node. Every weighted sum is Q or S of an integer count,
and class channels are added in numpy's order. With integer counts the
order of tied rows no longer matters, so the best splitter sorts each
node's candidate columns on the spot and no tree presorts. The trees come
out bit for bit equal to one tree at a time grown with those draws, a
reference the tests keep (tests/reference_trees.py).

A tree's node arrays hold feature (-1 at a leaf), threshold, left and value
per node, in preorder; the right child is always left + 1. A model stores
its trees one after another (grow_forest, pack), tree t from row roots[t];
a forest and AdaBoost keep each node's vote (its majority class, the lowest
on a tie) for value. tree_leaves routes rows through them, with leaf_ids.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import Classifier, _leading_sum

_LEAF = -1


def _midpoint(lo: float, hi: float) -> float:
    t = (lo + hi) / 2.0
    return lo if t >= hi else t


def sort_columns(X):
    """(order, xs) of X, both (features x rows): order[i] lists the row ids
    in stable ascending order of column i, and xs[i] the column's values in
    that order. Compute it once per X and pass it to every tree fit."""
    order = np.argsort(X.T, axis=1, kind="stable")
    return order, X[order, np.arange(X.shape[1])[:, None]]


def _best_split(xs, rows, WL, W, channel, channel_total=None):
    """Max over (feature, threshold) of sum_c V_Lc^2/W_L + sum_c V_Rc^2/W_R.

    xs[i] holds the node's values of feature i in ascending order
    and rows[i] their row ids; WL[..., p] is the weight of the first p + 1 of
    them and W the node's weight. channel[..., r] holds row r's weighted
    target channels: class-major one-hot class weights (classes x rows) for
    Gini, the single channel w*y (rows) for squared error. Right-hand channel
    totals are channel_total, or the last prefix sum when it is None.
    Maximizing the score minimizes the weighted child impurity. Returns
    (score, feature, threshold) or None when no feature has two distinct
    values.
    """
    cut = xs[:, :-1] < xs[:, 1:]
    prefix = np.cumsum(channel.take(rows, axis=-1), axis=-1)
    VL = prefix[..., :-1]
    VR = (prefix[..., -1:] if channel_total is None else channel_total) - VL
    if channel.ndim == 1:
        score = VL**2 / WL + VR**2 / (W - WL)
    else:  # class channels added as numpy sums a last axis of them
        score = _leading_sum(VL**2) / WL + _leading_sum(VR**2) / (W - WL)
    score = np.where(cut, score, -np.inf)
    # the first max in row order: lowest feature, then lowest threshold
    i, p = divmod(int(score.argmax()), score.shape[1])
    if not cut[i, p]:  # every score is -inf: no two distinct values
        return None
    return (float(score[i, p]), i,
            _midpoint(float(xs[i, p]), float(xs[i, p + 1])))


class _Tree:
    """Flattened tree arrays grown by iterative preorder DFS."""

    # every tree is grown by the exact splitter; perfbench/tracing.py reads
    # this off each ClassificationTree.fit and RegressionTree.fit it times
    splitter = "best"

    def __init__(self, max_depth=None, min_samples_split=2):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split

    # subclasses define _leaf and _channels

    def fit(self, X, y, sample_weight=None, presorted=None, leaves=None,
            **kwargs):
        """Grow the tree on (X, y), scoring every column at every node.
        presorted is sort_columns(X), computed here when not given. Given an
        (n,) int64 array leaves, each leaf writes its node id at the rows it
        holds: the leaf leaf_ids routes each training row to."""
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        uniform = sample_weight is None
        w = (np.full(n, 1.0 / n) if uniform
             else np.asarray(sample_weight, dtype=float))
        channel = self._channels(y, w, **kwargs)
        order, xs = presorted if presorted is not None else sort_columns(X)
        Q = np.concatenate(([0.0], np.cumsum(w)))  # used when uniform
        go = np.empty(n, dtype=bool)  # the split's side of each row

        feature, threshold, left, values = [], [], [], []

        def new_node():
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            values.append(None)
            return len(feature) - 1

        # idx: the node's row ids ascending; rows and xs: per column, its
        # row ids and values in that column's sorted order
        stack = [(np.arange(n), order, xs, 0, new_node())]
        while stack:
            idx, rows, xs, depth, node = stack.pop()
            m = idx.size
            w_node = None if uniform else w.take(idx)
            W = w[:m].sum() if uniform else w_node.sum()  # S[m] if uniform
            values[node], total = self._leaf(y, channel, idx, w_node, W, Q)
            split = None
            if (m >= self.min_samples_split
                    and (self.max_depth is None or depth < self.max_depth)
                    and (y.take(idx) != y[idx[0]]).any()):  # impure
                WL = Q[1:m] if uniform else np.cumsum(w[rows], axis=1)[:, :-1]
                split = _best_split(xs, rows, WL, W, channel, total)
            if split is None:
                if leaves is not None:
                    leaves[idx] = node
                continue
            _, j, t = split
            go[rows[j]] = xs[j] <= t
            go_left = go.take(idx)
            feature[node] = j
            threshold[node] = t
            left[node] = new_node()
            new_node()  # the right child, left[node] + 1
            lower = upper = (None, None)
            if self.max_depth is None or depth + 1 < self.max_depth:
                # a stable filter keeps each column's (value, row id) order;
                # children at the depth limit are leaves and need neither
                mask = go.take(rows)
                lower, upper = ((rows.take(at).reshape(d, -1),
                                 xs.take(at).reshape(d, -1))
                                for at in (np.flatnonzero(mask),
                                           np.flatnonzero(~mask)))
            # push right first so the left child is processed (and numbered) first
            stack.append((idx[~go_left], *upper, depth + 1, left[node] + 1))
            stack.append((idx[go_left], *lower, depth + 1, left[node]))

        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.value = np.asarray(values, dtype=float)
        return self


def pack(trees):
    """(feature, threshold, left, value, roots) of trees grown one at a time,
    stored one after another as grow_forest stores a forest."""
    size = np.array([tree.feature.size for tree in trees], dtype=np.int64)
    return (*(np.concatenate([getattr(tree, key) for tree in trees])
              for key in ("feature", "threshold", "left", "value")),
            np.cumsum(size) - size)


def tree_leaves(model, roots, X):
    """For each tree, from np.ravel(roots) in order, the node row each row of
    X reaches in model's feature_, threshold_ and left_. One tree at a time,
    so the router's lists span one tree, reading X transposed once."""
    XT = np.ascontiguousarray(X.T)
    nodes = model.feature_, model.threshold_, model.left_
    starts = np.ravel(roots).tolist()
    for tree in map(slice, starts, [*starts[1:], model.feature_.size]):
        yield tree.start + leaf_ids(*(a[tree] for a in nodes), XT)


def leaf_ids(feature, threshold, left, XT) -> np.ndarray:
    """Node reached by every row of X = XT.T in one tree's node arrays: x <=
    threshold goes to left[node], the rest (NaN too) to left[node] + 1."""
    feature, threshold, left = (a.tolist() for a in (feature, threshold, left))
    leaf = np.zeros(XT.shape[1], dtype=np.int64)
    stack = [(0, np.arange(XT.shape[1]))]
    while stack:
        node, rows = stack.pop()
        j = feature[node]
        if j == _LEAF or not rows.size:
            leaf[rows] = node
            continue
        go_left = XT[j].take(rows) <= threshold[node]
        stack.append((left[node] + 1, rows.compress(~go_left)))
        stack.append((left[node], rows.compress(go_left)))
    return leaf


class ClassificationTree(_Tree):
    """Gini-impurity tree; leaves hold weighted class distributions."""

    def _leaf(self, y, channel, idx, w_node, W, Q):
        """(value, channel total): the weighted class distribution; the
        right-hand class totals come from the last prefix sum. With uniform
        weights (w_node None) k rows of a class weigh Q[k], as bincount
        adds them."""
        class_w = np.bincount(y.take(idx), weights=w_node,
                              minlength=self.n_classes)
        if w_node is None:
            class_w = Q[class_w]
        return class_w / class_w.sum(), None

    def _channels(self, y, w, n_classes=None):
        """Class-major one-hot weights: row c holds w where y is c."""
        self.n_classes = int(n_classes) if n_classes else int(y.max()) + 1
        class_w = np.zeros((self.n_classes, y.size))
        class_w[y, np.arange(y.size)] = w
        return class_w


class RegressionTree(_Tree):
    """Squared-error tree; leaves hold weighted target means."""

    def _leaf(self, y, channel, idx, w_node, W, Q):
        """(value, channel total): the weighted mean and the sum of w*y, the
        products (w[idx] * y[idx]) would hold, added in the same order."""
        total = channel.take(idx).sum()
        return float(total / W), total

    def _channels(self, y, w):
        return w * y


# bytes of a forest step chunk's rows (8 per row), of one block of doubles
# in it (_blocks), and of _Draws' words beyond 2 * k per tree
_BUDGET = 2**17


def _weight_tables(n):
    """Sums of k copies of the uniform row weight 1/n, for k = 0..n: Q[k]
    adds them left to right (as cumsum and bincount do), S[k] is numpy's
    pairwise sum (as w[idx].sum() gives).

    On equal weights the pairwise sum depends on k alone, so S is built
    from its own entries in linear time, by numpy's rule: below 8 weights
    it adds left to right (Q[k]); up to 128 it keeps 8 running sums of
    k // 8 weights, adds them in pairs (exactly 8 Q[k // 8]) and then the
    k mod 8 others one at a time; above 128 it adds the sums of the first
    h and the other k - h weights, h = k // 2 rounded down to a multiple
    of 8."""
    w = 1.0 / n
    Q = np.concatenate(([0.0], np.cumsum(np.full(n, w))))
    S = Q[:8].tolist()
    k = np.arange(8, min(n, 128) + 1)
    blocks = 8.0 * Q[k // 8]
    for r in range(1, 8):
        blocks[k % 8 >= r] += w
    S += blocks.tolist()
    for k in range(129, n + 1):
        h = k // 2 - k // 2 % 8
        S.append(S[h] + S[k - h])
    return Q, np.array(S)


def _square_sum(channels):
    """Sum of the squared channels, added as numpy sums a last axis of that
    length: left to right below 8 terms, in pairwise blocks from 8 on."""
    if len(channels) >= 8:
        return (np.stack(channels, axis=-1)**2).sum(axis=-1)
    total = channels[0]**2
    for v in channels[1:]:
        total += v**2
    return total


def _segments(offset, size):
    """Positions offset[k] .. offset[k] + size[k] - 1, node after node, and
    the node of each position."""
    seg = np.repeat(np.arange(size.size), size)
    first = np.cumsum(size) - size
    return np.arange(seg.size) + np.repeat(offset - first, size), seg


def _blocks(size, width):
    """Node positions, largest node first, cut into blocks whose
    (nodes x width x largest size) doubles fit _BUDGET; at least one node."""
    order = np.argsort(-size, kind="stable")
    i = 0
    while i < order.size:
        count = max(1, _BUDGET // (8 * width * int(size[order[i]])))
        yield order[i:i + count]
        i += count


def _best_block(X, y, flat, offset, size, cand, counts, Q, S):
    """Exact best split of every node of a block, as _best_split finds it.

    Node k owns the rows flat[offset[k]:offset[k] + size[k]]; cand
    (nodes x m) holds its ascending candidate features and counts (nodes x C)
    its class counts. Returns (found, feature, threshold) per node.
    """
    (B, m), L = cand.shape, int(size.max())
    # flat takes: they gather what fancy indexing and take_along_axis
    # would, in less time
    rows = flat.take(offset[:, None]
                     + np.minimum(np.arange(L), size[:, None] - 1))
    xs = X.take(rows[:, None, :] * X.shape[1] + cand[:, :, None])
    np.copyto(xs, np.inf, where=(np.arange(L) >= size[:, None])[:, None, :])
    # tied values may come in any order: a split lies between distinct
    # values, and the class counts there do not depend on that order
    order = np.argsort(xs, axis=2)
    xs = xs.take(order + (np.arange(B * m) * L).reshape(B, m, 1))
    ys = y.take(rows.take(order + (np.arange(B) * L)[:, None, None]))
    # uniform weights: every prefix sum is Q of an integer count
    VL = [Q.take(np.cumsum(ys == c, axis=2, dtype=np.int32)[:, :, :-1])
          for c in range(counts.shape[1])]
    total = Q[counts]
    VR = [total[:, c, None, None] - v for c, v in enumerate(VL)]
    WL = Q[1:L]
    with np.errstate(divide="ignore", invalid="ignore"):  # pads past size
        score = (_square_sum(VL) / WL
                 + _square_sum(VR) / (S[size][:, None, None] - WL))
    cut = ((xs[:, :, :-1] < xs[:, :, 1:])
           & (np.arange(L - 1) < size[:, None, None] - 1))
    at = np.where(cut, score, -np.inf).reshape(B, -1).argmax(axis=1)
    i, p = np.divmod(at, L - 1)  # first max: lowest feature, then threshold
    nodes = np.arange(B)
    lo, hi = xs[nodes, i, p], xs[nodes, i, p + 1]
    mid = (lo + hi) / 2.0
    return (cut.reshape(B, -1).any(axis=1), cand[nodes, i],
            np.where(mid >= hi, lo, mid))


def _random_block(X, y, flat, offset, size, cand, counts, Q, S, draws, trees):
    """Extra-Trees split of every node of a block.

    Arguments are _best_block's, plus the group's draws and each node's
    tree: the tree draws one uniform threshold per non-constant candidate
    feature in candidate order.
    """
    (B, m), C = cand.shape, counts.shape[1]
    pos, seg = _segments(offset, size)
    first = np.cumsum(size) - size
    rows = flat[pos]
    # np.repeat(a, size, axis=0) is a[seg], and a flat take is X[rows, j]:
    # both gather far faster than fancy indexing
    xv = X.take(rows[:, None] * X.shape[1] + np.repeat(cand, size, axis=0))
    lo = np.minimum.reduceat(xv, first)
    hi = np.maximum.reduceat(xv, first)
    live = lo < hi
    thr = draws.uniform(trees, lo, hi, live)
    # a NaN threshold sends every row right
    go_right = ~(xv <= np.repeat(thr, size, axis=0))
    # the (node, candidate, side, class) cell of every row and candidate
    cell = ((seg * (2 * m * C) + y[rows])[:, None]
            + np.arange(0, 2 * m * C, 2 * C) + go_right * C)
    counts = np.bincount(cell.ravel(),
                         minlength=B * m * 2 * C).reshape(B, m, 2, C)
    side = counts.sum(axis=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        part = (Q[counts]**2).sum(axis=3) / S[side]
    valid = live & (side.min(axis=2) > 0)
    at = np.where(valid, part[..., 0] + part[..., 1], -np.inf).argmax(axis=1)
    nodes = np.arange(B)
    return valid.any(axis=1), cand[nodes, at], thr[nodes, at]


class _Draws:
    """The draws _Tree.fit makes from each tree's generator, decoded from the
    generators' raw PCG64 words, for many trees at once.

    A Generator hands out a double as (word >> 11) * 2**-53 of one fresh
    word. It hands out a 32-bit draw as the low half of a fresh word and
    keeps the high half for the next 32-bit draw; doubles leave that half
    where it is. A bounded draw in [0, r] is Lemire's multiply-shift of one
    32-bit draw u: (u * (r + 1)) >> 32, unless (u * (r + 1)) mod 2**32 falls
    below 2**32 mod (r + 1), which rejects u for the next one.
    choice(d, k, replace=False) takes Floyd's algorithm for d <= 10000 or
    k <= d // 50: bounded draws for r = d - k .. d - 1 pick the features,
    then a shuffle draws r = k - 1 .. 1. Each tree holds a row of raw words,
    refilled from its bit generator when a draw needs more than are left;
    a generator lives only as long as its tree's growth, so words fetched
    and never used change nothing. Beyond the 2 * k words a node draws at
    most (but for rejections), the rows share _BUDGET bytes, with room for
    16 rejections at least.
    """

    def __init__(self, rngs, d, k):
        T = len(rngs)
        self.gens = [rng.bit_generator for rng in rngs]
        self.d, self.k = d, k
        self.row = 2 * k + max(16, _BUDGET // (8 * T))
        # tree t's row is words[t * row:(t + 1) * row]; little-endian, so
        # halves[2 * i] and halves[2 * i + 1] are the low and high halves of
        # words[i] on any host
        self.words = np.empty(T * self.row, dtype="<u8")
        self.halves = self.words.view("<u4")
        self.end = (np.arange(T) + 1) * self.row
        self.at = self.end - self.row  # next unused word
        self.held = np.zeros(T, dtype=bool)  # a kept high half?
        self.half = np.zeros(T, dtype=np.uint64)
        for t, gen in enumerate(self.gens):
            state = gen.state  # a bootstrap may have left a half behind
            self.held[t], self.half[t] = state["has_uint32"], state["uinteger"]
            self.words[self.at[t]:self.end[t]] = gen.random_raw(self.row)
        if k < d:
            if d > 10_000 and k > d // 50:
                raise ValueError("choice takes a tail shuffle here, not Floyd's")
            self.span = np.concatenate((np.arange(d - k + 1, d + 1),
                                        np.arange(k, 1, -1))).astype(np.uint64)
            self.below = 2**32 % self.span
            self.steps = np.arange(self.span.size)

    def _reserve(self, trees, need):
        """Give each tree at least need unused words."""
        for t in trees[self.at[trees] + need > self.end[trees]].tolist():
            a, b = self.at[t], self.end[t]
            kept = b - a
            self.words[b - self.row:b - self.row + kept] = self.words[a:b]
            self.words[b - self.row + kept:b] = self.gens[t].random_raw(
                self.row - kept)
            self.at[t] = b - self.row

    def features(self, trees):
        """Each tree's np.sort(rng.choice(d, k, replace=False)), one row per
        tree; every feature, with no draw, when k >= d."""
        d, k = self.d, self.k
        if k >= d:
            return np.broadcast_to(np.arange(d), (trees.size, d))
        # the stream position of each draw: one row for every tree until a
        # draw is rejected, then one more per rejection from there on
        pos = self.steps
        while True:
            self._reserve(trees, (int(pos.max()) + 3) // 2)
            held = self.held[trees]
            i = (2 * self.at[trees] - held)[:, None] + pos  # half-word index
            u = self.halves.take(i).astype(np.uint64)
            u[:, 0] = np.where(held & (pos[..., 0] == 0), self.half[trees],
                               u[:, 0])  # the kept half comes first
            m = u * self.span
            rejected = (m & 0xFFFFFFFF) < self.below
            if not rejected.any():
                break
            pos = pos + (np.cumsum(rejected, axis=1) > 0)
        picks = (m[:, :k] >> 32).T.astype(np.int64)  # draws x trees
        for j in range(1, k):  # Floyd: a repeated pick takes d - k + j
            np.copyto(picks[j], d - k + j,
                      where=(picks[:j] == picks[j]).any(axis=0))
        h = i[:, -1] + 1  # the next half-word
        self.at[trees] = at = (h + 1) // 2
        self.held[trees] = h & 1
        self.half[trees] = self.words.take(at - 1) >> 32
        picks.sort(axis=0)
        return picks.T

    def uniform(self, trees, lo, hi, live):
        """rng.uniform(lo[b, live[b]], hi[b, live[b]]) of tree trees[b], for
        every row b; NaN where live is False."""
        width = hi - lo
        if not np.isfinite(width[live]).all():  # as Generator.uniform raises
            raise OverflowError("high - low range exceeds valid bounds")
        self._reserve(trees, lo.shape[1])
        at = self.at[trees]
        rank = np.cumsum(live, axis=1)  # the word of a live draw: at + rank - 1
        word = self.words.take(at[:, None] + rank - 1)
        self.at[trees] = at + rank[:, -1]
        return np.where(live, lo + width * ((word >> 11) * 2.0**-53), np.nan)


def grow_forest(X, y, n_classes, seeds, max_features, splitter="best",
                bootstrap=False, max_depth=None, min_samples_split=2):
    """One Gini tree per seed, grown in lockstep into one set of node arrays.

    Tree i grows on X[s], y[s] from rng = default_rng(seeds[i]), where s is
    the tree's first draw rng.integers(0, n, size=n) when bootstrap is set
    and every row when not. Each split node then draws
    np.sort(rng.choice(d, max_features, replace=False)) candidate features
    (every feature, with no draw, when max_features is None or at least d)
    and, for splitter "random", one rng.uniform(lo, hi) threshold per
    non-constant candidate in candidate order; "best" takes the exact best
    split over the candidates. Those draws are decoded from the generator's
    raw words (_Draws). Returns (feature, threshold, left, vote, roots):
    tree i's rows roots[i]:roots[i + 1] hold the feature, threshold and left
    of ClassificationTree(max_depth, min_samples_split), and as vote each
    node's value.argmax(axis=1). Row and node ids are int32, so X must hold
    fewer than 2**30 values.
    """
    n, d = np.shape(X)
    if n * d >= 2**30:
        raise DataError(f"a forest grows on fewer than 2**30 values, not "
                        f"{n} x {d}")
    X = np.ascontiguousarray(X, dtype=float)  # the kernels take from X.ravel()
    k = d if max_features is None else min(max_features, d)
    rngs = [np.random.default_rng(s) for s in seeds]
    return _grow_group(X, y, n_classes, rngs, bootstrap, k, splitter,
                       max_depth, min_samples_split, *_weight_tables(n))


def _chunks(size):
    """Consecutive runs of nodes whose rows, 8 bytes each, fit _BUDGET; at
    least one node each."""
    end = np.cumsum(size)
    i = 0
    while i < size.size:
        j = max(i + 1, int(np.searchsorted(end, end[i] - size[i]
                                           + _BUDGET // 8, side="right")))
        yield slice(i, j)
        i = j


def _grow_group(X, y, C, rngs, bootstrap, k, splitter, max_depth, min_split,
                Q, S):
    """Grow one tree per generator on k candidate features per node. Every
    step pops the next node of every unfinished tree's depth-first stack, so
    each tree numbers its nodes as _Tree.fit does, and works through those
    nodes a chunk at a time. A tree has at most one node in a step, so
    chunks move none of its draws. Returns grow_forest's node arrays, the
    trees one after another."""
    n, d = X.shape
    T = len(rngs)
    # perm[t]: tree t's rows (ids into X, repeated where the bootstrap
    # repeats them); each node owns a segment, split in place for its children
    perm = np.empty((T, n), dtype=np.int32)
    for t, rng in enumerate(rngs):
        perm[t] = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    flat = perm.reshape(-1)
    stacks = [[(0, n, 0, 0)] for _ in range(T)]  # (start, size, depth, node)
    n_nodes = np.ones(T, dtype=np.int64)
    draws = _Draws(rngs, d, k)
    # every popped node's tree, node, feature, threshold, left and vote, step
    # after step: int32 but for threshold, grown in place by a quarter
    records = [np.empty(T, t) for t in (np.int32, np.int32, np.int32, float,
                                        np.int32, np.int32)]
    n_records = 0
    while live := [t for t in range(T) if stacks[t]]:
        tree = np.array(live)
        start, size, depth, node = np.array([stacks[t].pop() for t in live]).T
        offset = tree * n + start
        feature = np.full(tree.size, _LEAF)
        threshold = np.zeros(tree.size)
        vote = np.empty(tree.size, dtype=np.int64)
        n_left = np.zeros(tree.size, dtype=np.int64)
        for c in _chunks(size):
            off, m = offset[c], size[c]
            pos, seg = _segments(off, m)
            rows = flat[pos]
            counts = np.bincount(seg * C + y[rows],
                                 minlength=m.size * C).reshape(-1, C)
            vote[c] = counts.argmax(axis=1)  # ties: lowest class
            split = ((counts > 0).sum(axis=1) > 1) & (m >= min_split)
            if max_depth is not None:
                split &= depth[c] < max_depth
            ks = np.flatnonzero(split)
            if not ks.size:
                continue
            feat, thr = feature[c], threshold[c]  # views: the chunk's nodes
            cand = draws.features(tree[c][ks])
            for b in _blocks(m[ks], k):
                nodes = ks[b]
                block = (X, y, flat, off[nodes], m[nodes], cand[b],
                         counts[nodes], Q, S)
                if splitter == "best":
                    found, bf, bt = _best_block(*block)
                else:
                    found, bf, bt = _random_block(*block, draws,
                                                  tree[c][nodes])
                feat[nodes] = np.where(found, bf, _LEAF)
                thr[nodes] = np.where(found, bt, 0.0)

            # split each node's segment, stably: its left rows, then its
            # right rows (a leaf's feature -1 reads the cell before the
            # row's, masked out, and its rows stay where they are). Up to
            # and with chunk row p, L = go_left.cumsum()[p] rows go left: a
            # left row lands at its node's offset + L - 1 less the left rows
            # of earlier nodes, a right row at its own place + its node's
            # left rows less those up to it
            go_left = ((X.take(rows * d + np.repeat(feat, m))
                        <= np.repeat(thr, m)) & np.repeat(feat != _LEAF, m))
            nl = n_left[c] = np.bincount(seg[go_left], minlength=m.size)
            L = np.cumsum(go_left)
            before = np.cumsum(nl) - nl  # left rows of earlier nodes
            flat[np.where(go_left, (off - 1 - before).take(seg) + L,
                          pos + (nl + before).take(seg) - L)] = rows

        sp = np.flatnonzero(feature != _LEAF)
        left = np.full(tree.size, _LEAF)
        left[sp] = n_nodes[tree[sp]]
        n_nodes[tree[sp]] += 2
        children = (a[sp].tolist() for a in (tree, start, size, n_left,
                                             depth + 1, left))
        for t, s, m, nl, dd, l in zip(*children):
            # right first, so the left child is popped (and numbered) first
            stacks[t].append((s + nl, m - nl, dd, l + 1))
            stacks[t].append((s, nl, dd, l))
        if n_records + tree.size > records[0].size:
            grown = n_records + tree.size + records[0].size // 4
            for a in records:
                a.resize(grown, refcheck=False)
        for a, v in zip(records, (tree, node, feature, threshold, left, vote)):
            a[n_records:n_records + tree.size] = v
        n_records += tree.size

    # each tree's nodes in id order, a field at a time, each record freed
    # once it is placed
    roots = np.cumsum(n_nodes) - n_nodes
    at = roots[records.pop(0)[:n_records]]
    at += records.pop(0)[:n_records]
    fields = []
    for dtype in (np.int64, float, np.int64, np.int64):
        fields.append(np.empty(n_records, dtype))
        fields[-1][at] = records.pop(0)[:n_records]
    return (*fields, roots)


class DecisionTreeClassifier(Classifier):
    """Single unpruned CART tree."""

    algorithm = "DTC"
    DEFAULTS = {"max_depth": None, "min_samples_split": 2}
    RANGES = {"max_depth": ">= 1 or null", "min_samples_split": ">= 2"}

    def _fit(self, X, y):
        # params holds exactly the tree's max_depth and min_samples_split
        tree = ClassificationTree(**self.params)
        (self.feature_, self.threshold_, self.left_, self.value_,
         _) = pack([tree.fit(X, y, n_classes=self.n_classes_)])

    def _predict_proba(self, X):
        leaf, = tree_leaves(self, 0, X)
        return self.value_[leaf].T

