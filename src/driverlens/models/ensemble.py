"""Tree ensembles: bagging, randomized trees, and two boosting schemes.

Per-tree randomness is seeded as model_seed XOR tree_index, so trees can be
grown in any order (or in parallel) and still reproduce the serial result.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import xor_seed
from .base import Classifier, _softmax
from .tree import ClassificationTree, RegressionTree, sort_columns


def _sqrt_features(d: int) -> int:
    return max(1, int(math.isqrt(d)))


class RandomForestClassifier(Classifier):
    """Bootstrap-aggregated Gini trees; probability = fraction of tree votes."""

    algorithm = "RFC"
    DEFAULTS = {"n_trees": 100, "max_depth": None, "min_samples_split": 2}

    def _fit(self, X, y, rng):
        n, d = X.shape
        m = _sqrt_features(d)
        self.trees_ = []
        for i in range(self.params["n_trees"]):
            tree_rng = np.random.default_rng(xor_seed(self.seed, i))
            sample = tree_rng.integers(0, n, size=n)
            tree = ClassificationTree(
                max_depth=self.params["max_depth"],
                min_samples_split=self.params["min_samples_split"],
                max_features=m,
            ).fit(X[sample], y[sample], rng=tree_rng, n_classes=self.n_classes_)
            self.trees_.append(tree)

    def _predict_proba(self, X):
        votes = np.zeros((X.shape[0], self.n_classes_))
        rows = np.arange(X.shape[0])
        for tree in self.trees_:
            votes[rows, tree.predict(X)] += 1.0
        return votes / len(self.trees_)

    def _state(self):
        return {"trees": [t.to_state() for t in self.trees_]}

    def _load_state(self, state):
        self.trees_ = []
        for doc in state["trees"]:
            tree = ClassificationTree().load_state(doc)
            tree.n_classes = self.n_classes_
            self.trees_.append(tree)


class ExtraTreesClassifier(Classifier):
    """No bootstrap; one uniform-random threshold per candidate feature."""

    algorithm = "ETC"
    DEFAULTS = {"n_trees": 100, "max_depth": None, "min_samples_split": 2}

    def _fit(self, X, y, rng):
        m = _sqrt_features(X.shape[1])
        self.trees_ = []
        for i in range(self.params["n_trees"]):
            tree_rng = np.random.default_rng(xor_seed(self.seed, i))
            tree = ClassificationTree(
                max_depth=self.params["max_depth"],
                min_samples_split=self.params["min_samples_split"],
                max_features=m,
                splitter="random",
            ).fit(X, y, rng=tree_rng, n_classes=self.n_classes_)
            self.trees_.append(tree)

    _predict_proba = RandomForestClassifier._predict_proba
    _state = RandomForestClassifier._state

    def _load_state(self, state):
        self.trees_ = []
        for doc in state["trees"]:
            tree = ClassificationTree(splitter="random").load_state(doc)
            tree.n_classes = self.n_classes_
            self.trees_.append(tree)


class GradientBoostingClassifier(Classifier):
    """Staged softmax boosting: one shallow regression tree per class per round.

    Scores start at the log class priors; every round fits trees to the
    cross-entropy residuals (one-hot minus probability) and steps by the
    learning rate. train_deviance_ records the mean negative log-likelihood
    before boosting and after every round.
    """

    algorithm = "GBC"
    DEFAULTS = {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 3,
                "min_samples_split": 2}

    def _fit(self, X, y, rng):
        n = X.shape[0]
        C = self.n_classes_
        priors = np.bincount(y, minlength=C) / n
        self.init_scores_ = np.log(priors)
        onehot = np.zeros((n, C))
        onehot[np.arange(n), y] = 1.0

        scores = np.tile(self.init_scores_, (n, 1))
        lr = self.params["learning_rate"]
        order = sort_columns(X)  # shared by every tree: they all grow on X
        self.trees_: list[list[RegressionTree]] = []
        self.train_deviance_ = [self._deviance(scores, y)]
        for _ in range(self.params["n_rounds"]):
            proba = _softmax(scores)
            round_trees = []
            for c in range(C):
                tree = RegressionTree(
                    max_depth=self.params["max_depth"],
                    min_samples_split=self.params["min_samples_split"],
                ).fit(X, onehot[:, c] - proba[:, c], order=order)
                round_trees.append(tree)
                scores[:, c] += lr * tree.predict(X)
            self.trees_.append(round_trees)
            self.train_deviance_.append(self._deviance(scores, y))

    @staticmethod
    def _deviance(scores, y):
        log_norm = np.log(np.exp(scores - scores.max(axis=1, keepdims=True))
                          .sum(axis=1)) + scores.max(axis=1)
        return float(np.mean(log_norm - scores[np.arange(y.size), y]))

    def _raw_scores(self, X):
        scores = np.tile(self.init_scores_, (X.shape[0], 1))
        lr = self.params["learning_rate"]
        for round_trees in self.trees_:
            for c, tree in enumerate(round_trees):
                scores[:, c] += lr * tree.predict(X)
        return scores

    def _predict_proba(self, X):
        return _softmax(self._raw_scores(X))

    def _state(self):
        return {
            "init_scores": self.init_scores_.tolist(),
            "trees": [[t.to_state() for t in rnd] for rnd in self.trees_],
            "train_deviance": self.train_deviance_,
        }

    def _load_state(self, state):
        self.init_scores_ = np.asarray(state["init_scores"], dtype=float)
        self.trees_ = [[RegressionTree().load_state(doc) for doc in rnd]
                       for rnd in state["trees"]]
        self.train_deviance_ = list(state["train_deviance"])


class AdaBoostClassifier(Classifier):
    """Multiclass exponential-loss boosting of depth-1 stumps.

    Stump weights carry the (C-1) multiclass correction; boosting stops early
    when a stump's weighted error reaches the random-guess level (C-1)/C, or
    immediately after a stump that classifies the weighted sample perfectly.
    """

    algorithm = "ABC"
    DEFAULTS = {"n_rounds": 50, "learning_rate": 1.0}

    def _fit(self, X, y, rng):
        n = X.shape[0]
        C = self.n_classes_
        self.priors_ = np.bincount(y, minlength=C) / n
        w = np.full(n, 1.0 / n)
        lr = self.params["learning_rate"]
        order = sort_columns(X)  # shared by every stump: they all grow on X
        self.stumps_: list[ClassificationTree] = []
        self.alphas_: list[float] = []
        for _ in range(self.params["n_rounds"]):
            stump = ClassificationTree(max_depth=1).fit(
                X, y, sample_weight=w, n_classes=C, order=order
            )
            incorrect = stump.predict(X) != y
            err = float(w[incorrect].sum() / w.sum())
            if err >= (C - 1) / C:
                break
            if err < 1e-12:
                self.stumps_.append(stump)
                self.alphas_.append(1.0)
                break
            alpha = lr * (math.log((1.0 - err) / err) + math.log(C - 1))
            self.stumps_.append(stump)
            self.alphas_.append(alpha)
            w = w * np.exp(alpha * incorrect)
            w = w / w.sum()

    def _predict_proba(self, X):
        n = X.shape[0]
        if not self.stumps_:
            return np.tile(self.priors_, (n, 1))
        scores = np.zeros((n, self.n_classes_))
        rows = np.arange(n)
        for alpha, stump in zip(self.alphas_, self.stumps_):
            scores[rows, stump.predict(X)] += alpha
        return scores / scores.sum(axis=1, keepdims=True)

    def _state(self):
        return {
            "priors": self.priors_.tolist(),
            "alphas": self.alphas_,
            "stumps": [s.to_state() for s in self.stumps_],
        }

    def _load_state(self, state):
        self.priors_ = np.asarray(state["priors"], dtype=float)
        self.alphas_ = list(state["alphas"])
        self.stumps_ = []
        for doc in state["stumps"]:
            stump = ClassificationTree(max_depth=1).load_state(doc)
            stump.n_classes = self.n_classes_
            self.stumps_.append(stump)
