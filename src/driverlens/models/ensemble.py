"""Tree ensembles: bagging, randomized trees, and two boosting schemes.

Per-tree randomness is seeded as model_seed XOR tree_index. Each model keeps
all its trees in one set of node arrays (see tree.py); the forests and
AdaBoost keep each node's vote, the one part of a node they predict from.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import xor_seed
from .base import Classifier, _class_softmax, _leading_sum, _softmax_nll
from .tree import (ClassificationTree, RegressionTree, grow_forest, pack,
                   sort_columns, tree_leaves)


class RandomForestClassifier(Classifier):
    """Bootstrap-aggregated Gini trees; probability = fraction of tree votes."""

    algorithm = "RFC"
    DEFAULTS = {"n_trees": 100, "max_depth": None, "min_samples_split": 2}
    RANGES = {"n_trees": ">= 1", "max_depth": ">= 1 or null",
              "min_samples_split": ">= 2"}
    # fixed by the algorithm, not hyperparameters: each tree grows on a
    # bootstrap sample of the rows, with exact best splits
    BOOTSTRAP = True
    SPLITTER = "best"

    def _fit(self, X, y):
        (self.feature_, self.threshold_, self.left_, self.vote_,
         self.roots_) = grow_forest(
            X, y, self.n_classes_,
            [xor_seed(self.seed, i) for i in range(self.params["n_trees"])],
            max_features=max(1, math.isqrt(X.shape[1])), splitter=self.SPLITTER,
            bootstrap=self.BOOTSTRAP, max_depth=self.params["max_depth"],
            min_samples_split=self.params["min_samples_split"])

    def _predict_proba(self, X):
        n, C = X.shape[0], self.n_classes_
        cell = np.arange(n) * C
        votes = sum(np.bincount(cell + self.vote_[leaf], minlength=n * C)
                    for leaf in tree_leaves(self, self.roots_, X))
        return (votes / self.roots_.size).reshape(n, C).T


class ExtraTreesClassifier(RandomForestClassifier):
    """Extremely randomized trees (Geurts, Ernst & Wehenkel, 2006): a random
    forest without bootstrap rows and with one uniform-random threshold per
    candidate feature."""

    algorithm = "ETC"
    BOOTSTRAP = False
    SPLITTER = "random"


class GradientBoostingClassifier(Classifier):
    """Staged softmax boosting: one shallow regression tree per class per round.

    Scores start at the log class priors; every round fits trees to the
    cross-entropy residuals (one-hot minus probability) and steps by the
    learning rate. train_deviance_ records the mean negative log-likelihood
    before boosting and after every round. trees_[r, c]: round r's class c root.
    """

    algorithm = "GBC"
    DEFAULTS = {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 3,
                "min_samples_split": 2}
    RANGES = {"n_rounds": ">= 1", "learning_rate": "> 0",
              "max_depth": ">= 1 or null", "min_samples_split": ">= 2"}

    def _fit(self, X, y):
        n = X.shape[0]
        C = self.n_classes_
        self.init_scores_ = np.log(np.bincount(y, minlength=C) / n)
        onehot = np.zeros((C, n))  # class-major, as are the scores
        onehot[y, np.arange(n)] = 1.0

        scores = np.repeat(self.init_scores_[:, None], n, axis=1)
        lr = self.params["learning_rate"]
        presorted = sort_columns(X)  # shared by every tree: they all grow on X
        leaves = np.empty(n, dtype=np.int64)  # each row's leaf, from each fit
        trees = []
        # each round's deviance and the next round's softmax: one pass
        deviance, proba = _softmax_nll(scores, y)
        self.train_deviance_ = [deviance]
        for _ in range(self.params["n_rounds"]):
            for c in range(C):
                trees.append(RegressionTree(
                    self.params["max_depth"], self.params["min_samples_split"],
                ).fit(X, onehot[c] - proba[c], presorted=presorted,
                      leaves=leaves))
                scores[c] += lr * trees[-1].value[leaves]
            deviance, proba = _softmax_nll(scores, y)
            self.train_deviance_.append(deviance)
        (self.feature_, self.threshold_, self.left_, self.value_,
         roots) = pack(trees)
        self.trees_ = roots.reshape(-1, C)

    def _predict_proba(self, X):
        scores = np.repeat(self.init_scores_[:, None], X.shape[0], axis=1)
        lr = self.params["learning_rate"]
        for i, leaf in enumerate(tree_leaves(self, self.trees_, X)):
            scores[i % self.n_classes_] += lr * self.value_[leaf]
        return _class_softmax(scores)


class AdaBoostClassifier(Classifier):
    """Multiclass exponential-loss boosting of depth-1 stumps.

    Stump weights carry the (C-1) multiclass correction; boosting stops early
    when a stump's weighted error reaches the random-guess level (C-1)/C, or
    immediately after a stump that classifies the weighted sample perfectly.
    """

    algorithm = "ABC"
    DEFAULTS = {"n_rounds": 50, "learning_rate": 1.0}
    RANGES = {"n_rounds": ">= 1", "learning_rate": "> 0"}

    def _fit(self, X, y):
        n = X.shape[0]
        C = self.n_classes_
        self.priors_ = np.bincount(y, minlength=C) / n
        w = np.full(n, 1.0 / n)
        lr = self.params["learning_rate"]
        presorted = sort_columns(X)  # shared by every stump: they all grow on X
        leaves = np.empty(n, dtype=np.int64)  # each row's leaf, from each fit
        stumps = []
        self.alphas_: list[float] = []
        for _ in range(self.params["n_rounds"]):
            stump = ClassificationTree(max_depth=1).fit(
                X, y, sample_weight=w, n_classes=C, presorted=presorted,
                leaves=leaves)
            incorrect = stump.value.argmax(axis=1)[leaves] != y
            err = float(w[incorrect].sum() / w.sum())
            if err >= (C - 1) / C:
                break
            stumps.append(stump)
            if err < 1e-12:
                self.alphas_.append(1.0)
                break
            alpha = lr * (math.log((1.0 - err) / err) + math.log(C - 1))
            self.alphas_.append(alpha)
            w = w * np.exp(alpha * incorrect)
            w = w / w.sum()
        self.stumps_ = np.zeros(0, dtype=np.int64)
        if stumps:
            (self.feature_, self.threshold_, self.left_, value,
             self.stumps_) = pack(stumps)
            self.vote_ = value.argmax(axis=1)  # ties: the lowest class

    def _predict_proba(self, X):
        n = X.shape[0]
        if not self.stumps_.size:
            return np.repeat(self.priors_[:, None], n, axis=1)
        scores = np.zeros((self.n_classes_, n))
        rows = np.arange(n)
        leaves = tree_leaves(self, self.stumps_, X)
        for alpha, leaf in zip(self.alphas_, leaves):
            scores[self.vote_[leaf], rows] += alpha
        return scores / _leading_sum(scores)
