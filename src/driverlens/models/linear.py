"""Linear models: softmax regression and the two discriminant classifiers."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import Classifier, _softmax

_LOG_2PI = float(np.log(2.0 * np.pi))


class LogisticRegression(Classifier):
    """Multinomial softmax regression, full-batch gradient descent.

    Fixed step size, L2 penalty on the weights (not the intercept); stops at
    max_iter or when the gradient norm drops below tol. loss_history_ holds
    the regularized mean deviance before training and after every step, and
    is non-increasing for the default step on standardized features.
    """

    algorithm = "LR"
    DEFAULTS = {"step_size": 0.1, "l2": 1e-4, "max_iter": 500, "tol": 1e-6}

    def _fit(self, X, y, rng):
        n, d = X.shape
        C = self.n_classes_
        onehot = np.zeros((n, C))
        onehot[np.arange(n), y] = 1.0
        W = np.zeros((d, C))
        b = np.zeros(C)
        step = self.params["step_size"]
        l2 = self.params["l2"]

        def loss():
            logits = X @ W + b
            log_norm = np.log(np.exp(logits - logits.max(axis=1, keepdims=True))
                              .sum(axis=1)) + logits.max(axis=1)
            nll = float(np.mean(log_norm - logits[np.arange(n), y]))
            return nll + 0.5 * l2 * float(np.sum(W**2))

        self.loss_history_ = [loss()]
        for _ in range(self.params["max_iter"]):
            proba = _softmax(X @ W + b)
            err = proba - onehot
            grad_W = X.T @ err / n + l2 * W
            grad_b = err.mean(axis=0)
            norm = float(np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2)))
            if norm < self.params["tol"]:
                break
            W = W - step * grad_W
            b = b - step * grad_b
            self.loss_history_.append(loss())
        self.weights_ = W
        self.intercept_ = b

    def _predict_proba(self, X):
        return _softmax(X @ self.weights_ + self.intercept_)

    def _state(self):
        return {
            "weights": self.weights_.tolist(),
            "intercept": self.intercept_.tolist(),
            "loss_history": self.loss_history_,
        }

    def _load_state(self, state):
        self.weights_ = np.asarray(state["weights"], dtype=float)
        self.intercept_ = np.asarray(state["intercept"], dtype=float)
        self.loss_history_ = list(state["loss_history"])


class LinearDiscriminantAnalysis(Classifier):
    """Gaussian classes with a shared (pooled) covariance."""

    algorithm = "LDA"
    DEFAULTS = {"ridge": 1e-6}

    def _fit(self, X, y, rng):
        n, d = X.shape
        C = self.n_classes_
        self.priors_ = np.bincount(y, minlength=C) / n
        self.means_ = np.vstack([X[y == c].mean(axis=0) for c in range(C)])
        pooled = np.zeros((d, d))
        for c in range(C):
            centered = X[y == c] - self.means_[c]
            pooled += centered.T @ centered
        pooled = pooled / n + self.params["ridge"] * np.eye(d)
        self.covariance_ = pooled
        self._finalize()

    def _finalize(self):
        self.precision_ = np.linalg.inv(self.covariance_)
        sign, logdet = np.linalg.slogdet(self.covariance_)
        if sign <= 0:
            raise DataError("LDA: pooled covariance is not positive definite")
        self._logdet = logdet

    def _log_likelihood(self, X):
        d = X.shape[1]
        scores = np.empty((X.shape[0], self.n_classes_))
        for c in range(self.n_classes_):
            diff = X - self.means_[c]
            quad = np.einsum("ij,jk,ik->i", diff, self.precision_, diff)
            scores[:, c] = (np.log(self.priors_[c])
                            - 0.5 * (quad + self._logdet + d * _LOG_2PI))
        return scores

    def _predict_proba(self, X):
        return _softmax(self._log_likelihood(X))

    def _state(self):
        return {
            "priors": self.priors_.tolist(),
            "means": self.means_.tolist(),
            "covariance": self.covariance_.tolist(),
        }

    def _load_state(self, state):
        self.priors_ = np.asarray(state["priors"], dtype=float)
        self.means_ = np.asarray(state["means"], dtype=float)
        self.covariance_ = np.asarray(state["covariance"], dtype=float)
        self._finalize()


class QuadraticDiscriminantAnalysis(Classifier):
    """Gaussian classes, one full covariance per class."""

    algorithm = "QDA"
    DEFAULTS = {"ridge": 1e-6}

    def _fit(self, X, y, rng):
        n, d = X.shape
        C = self.n_classes_
        self.priors_ = np.bincount(y, minlength=C) / n
        self.means_ = np.empty((C, d))
        self.covariances_ = np.empty((C, d, d))
        for c in range(C):
            rows = X[y == c]
            if rows.shape[0] < 2:
                raise DataError(
                    f"QDA: class {c} has fewer than 2 rows; cannot estimate "
                    "a per-class covariance"
                )
            self.means_[c] = rows.mean(axis=0)
            centered = rows - self.means_[c]
            self.covariances_[c] = (centered.T @ centered / rows.shape[0]
                                    + self.params["ridge"] * np.eye(d))
        self._finalize()

    def _finalize(self):
        self.precisions_ = np.linalg.inv(self.covariances_)
        signs, logdets = np.linalg.slogdet(self.covariances_)
        if np.any(signs <= 0):
            raise DataError("QDA: a class covariance is not positive definite")
        self._logdets = logdets

    def _predict_proba(self, X):
        d = X.shape[1]
        scores = np.empty((X.shape[0], self.n_classes_))
        for c in range(self.n_classes_):
            diff = X - self.means_[c]
            quad = np.einsum("ij,jk,ik->i", diff, self.precisions_[c], diff)
            scores[:, c] = (np.log(self.priors_[c])
                            - 0.5 * (quad + self._logdets[c] + d * _LOG_2PI))
        return _softmax(scores)

    def _state(self):
        return {
            "priors": self.priors_.tolist(),
            "means": self.means_.tolist(),
            "covariances": self.covariances_.tolist(),
        }

    def _load_state(self, state):
        self.priors_ = np.asarray(state["priors"], dtype=float)
        self.means_ = np.asarray(state["means"], dtype=float)
        self.covariances_ = np.asarray(state["covariances"], dtype=float)
        self._finalize()
