"""Naive Bayes variants."""

from __future__ import annotations

import numpy as np

from .base import Classifier, _softmax

_LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianNaiveBayes(Classifier):
    """Per-class, per-feature Gaussians with variance smoothing."""

    algorithm = "GNB"
    DEFAULTS = {"var_smoothing": 1e-9}

    def _fit(self, X, y, rng):
        C = self.n_classes_
        self.priors_ = np.bincount(y, minlength=C) / X.shape[0]
        self.theta_ = np.vstack([X[y == c].mean(axis=0) for c in range(C)])
        variances = np.vstack([X[y == c].var(axis=0) for c in range(C)])
        self.epsilon_ = self.params["var_smoothing"] * float(X.var(axis=0).max())
        self.var_ = variances + self.epsilon_

    def _predict_proba(self, X):
        scores = np.empty((X.shape[0], self.n_classes_))
        for c in range(self.n_classes_):
            log_density = -0.5 * (
                _LOG_2PI + np.log(self.var_[c]) + (X - self.theta_[c]) ** 2 / self.var_[c]
            )
            scores[:, c] = np.log(self.priors_[c]) + log_density.sum(axis=1)
        return _softmax(scores)

    def _state(self):
        return {
            "priors": self.priors_.tolist(),
            "theta": self.theta_.tolist(),
            "var": self.var_.tolist(),
            "epsilon": self.epsilon_,
        }

    def _load_state(self, state):
        self.priors_ = np.asarray(state["priors"], dtype=float)
        self.theta_ = np.asarray(state["theta"], dtype=float)
        self.var_ = np.asarray(state["var"], dtype=float)
        self.epsilon_ = state["epsilon"]


class MultinomialNaiveBayes(Classifier):
    """Multinomial NB on shifted features.

    Multinomial likelihoods need non-negative values, but the pipeline feeds
    standardized (signed) features; each feature is shifted by its training
    minimum before counting, and values below that minimum at predict time
    clip to zero. Laplace smoothing applies to the per-class feature totals.
    """

    algorithm = "MNB"
    DEFAULTS = {"alpha": 1.0}

    def _fit(self, X, y, rng):
        C = self.n_classes_
        d = X.shape[1]
        self.priors_ = np.bincount(y, minlength=C) / X.shape[0]
        self.shift_ = X.min(axis=0)
        shifted = X - self.shift_
        alpha = self.params["alpha"]
        counts = np.vstack([shifted[y == c].sum(axis=0) for c in range(C)])
        totals = counts.sum(axis=1, keepdims=True)
        self.feature_log_prob_ = np.log(counts + alpha) - np.log(totals + alpha * d)

    def _predict_proba(self, X):
        shifted = np.clip(X - self.shift_, 0.0, None)
        scores = np.log(self.priors_) + shifted @ self.feature_log_prob_.T
        return _softmax(scores)

    def _state(self):
        return {
            "priors": self.priors_.tolist(),
            "shift": self.shift_.tolist(),
            "feature_log_prob": self.feature_log_prob_.tolist(),
        }

    def _load_state(self, state):
        self.priors_ = np.asarray(state["priors"], dtype=float)
        self.shift_ = np.asarray(state["shift"], dtype=float)
        self.feature_log_prob_ = np.asarray(state["feature_log_prob"], dtype=float)
