"""Naive Bayes variants."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import Classifier, _class_softmax, _leading_sum

_LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianNaiveBayes(Classifier):
    """Per-class, per-feature Gaussians with variance smoothing."""

    algorithm = "GNB"
    DEFAULTS = {"var_smoothing": 1e-9}
    RANGES = {"var_smoothing": ">= 0"}

    def _fit(self, X, y):
        C = self.n_classes_
        self.priors_ = np.bincount(y, minlength=C) / X.shape[0]
        self.theta_ = np.vstack([X[y == c].mean(axis=0) for c in range(C)])
        variances = np.vstack([X[y == c].var(axis=0) for c in range(C)])
        self.epsilon_ = self.params["var_smoothing"] * float(X.var(axis=0).max())
        self.var_ = variances + self.epsilon_
        if not self.var_.all():  # a zero variance makes a NaN density
            c, j = np.argwhere(self.var_ == 0)[0].tolist()
            raise DataError(f"GNB: feature {j} is constant in class {c} and "
                            f"var_smoothing {self.params['var_smoothing']!r} "
                            "leaves its variance 0; raise var_smoothing")

    def _predict_proba(self, X):
        scores = np.empty((self.n_classes_, X.shape[0]))
        # feature-major (d, n) rows in one buffer, reused for every class.
        # The subtraction reads X.T in place: a transposed copy would double
        # the memory freed per call, which glibc can trim and fault back in.
        log_density = np.empty(X.shape[::-1])
        for c in range(self.n_classes_):
            np.subtract(X.T, self.theta_[c][:, None], out=log_density)
            np.square(log_density, out=log_density)
            log_density /= self.var_[c][:, None]
            log_density += (_LOG_2PI + np.log(self.var_[c]))[:, None]
            log_density *= -0.5
            np.add(np.log(self.priors_[c]), _leading_sum(log_density), out=scores[c])
        return _class_softmax(scores)


class MultinomialNaiveBayes(Classifier):
    """Multinomial NB on shifted features.

    Multinomial likelihoods need non-negative values, but the pipeline feeds
    standardized (signed) features; each feature is shifted by its training
    minimum before counting, and values below that minimum at predict time
    clip to zero. Laplace smoothing applies to the per-class feature totals.
    """

    algorithm = "MNB"
    DEFAULTS = {"alpha": 1.0}
    RANGES = {"alpha": "> 0"}  # alpha 0 takes log(0) of an empty feature total

    def _fit(self, X, y):
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
        scores = np.add((shifted @ self.feature_log_prob_.T).T,
                        np.log(self.priors_)[:, None], order="C")
        return _class_softmax(scores)
