"""Linear models: softmax regression and the two discriminant classifiers."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import Classifier, _class_softmax, _softmax_nll

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
    RANGES = {"step_size": "> 0", "l2": ">= 0", "max_iter": ">= 1", "tol": ">= 0"}

    def _fit(self, X, y):
        n, d = X.shape
        C = self.n_classes_
        onehot = np.zeros((C, n))  # class-major, as are the logits
        onehot[y, np.arange(n)] = 1.0
        W = np.zeros((d, C))
        b = np.zeros(C)
        step = self.params["step_size"]
        l2 = self.params["l2"]
        logits = np.empty((C, n))

        def forward():
            """Loss and softmax at (W, b), from one pass over the logits."""
            np.add((X @ W).T, b[:, None], out=logits)
            nll, proba = _softmax_nll(logits, y)
            return nll + 0.5 * l2 * float(np.sum(W**2)), proba

        loss, proba = forward()
        self.loss_history_ = [loss]
        for _ in range(self.params["max_iter"]):
            err = np.subtract(proba, onehot, out=proba)
            # BLAS can round X.T @ err.T otherwise than X.T @ a C-ordered
            # (n, C) err, the descent's gradient
            grad_W = X.T @ np.ascontiguousarray(err.T) / n + l2 * W
            # an (n, C) err.mean(axis=0) adds rows in order, as cumsum
            # along each class row does
            grad_b = np.cumsum(err, axis=1)[:, -1] / n
            norm = float(np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2)))
            if norm < self.params["tol"]:
                break
            W = W - step * grad_W
            b = b - step * grad_b
            loss, proba = forward()
            self.loss_history_.append(loss)
        self.weights_ = W
        self.intercept_ = b

    def _predict_proba(self, X):
        return _class_softmax(np.add((X @ self.weights_).T,
                                     self.intercept_[:, None], order="C"))


class QuadraticDiscriminantAnalysis(Classifier):
    """Gaussian classes, one full covariance per class."""

    algorithm = "QDA"
    DEFAULTS = {"ridge": 1e-6}
    RANGES = {"ridge": ">= 0"}

    def _fit(self, X, y):
        C, d = self.n_classes_, X.shape[1]
        self.priors_ = np.bincount(y, minlength=C) / X.shape[0]
        self.means_ = np.vstack([X[y == c].mean(axis=0) for c in range(C)])
        self.covariance_ = self._covariance(X, y) + self.params["ridge"] * np.eye(d)
        # one matrix per class, or one matrix every class shares
        covariances = np.broadcast_to(self.covariance_, (C, d, d))
        # positive definite with room to spare: slogdet's sign is 0 on
        # exactly the matrices inv rejects, but a matrix singular in exact
        # arithmetic can round to sign +1, so the smallest eigenvalue must
        # also exceed d * eps times the largest
        signs, self._logdets = np.linalg.slogdet(covariances)
        eig = np.linalg.eigvalsh(covariances)  # ascending, per class
        bad = ((signs <= 0)
               | (eig[:, 0] <= d * np.finfo(float).eps * eig[:, -1]))
        if bad.any():
            which = ("the pooled covariance" if self.covariance_.ndim == 2 else
                     f"class {int(np.argmax(bad))}'s covariance")
            raise DataError(
                f"{self.algorithm}: {which} is singular or not positive "
                f"definite at ridge {self.params['ridge']!r}; raise ridge"
            )
        self.precisions_ = np.linalg.inv(covariances)

    def _covariance(self, X, y):
        """Each class's covariance about its mean, (C, d, d)."""
        blocks = []
        for c in range(self.n_classes_):
            centered = X[y == c] - self.means_[c]
            if centered.shape[0] < 2:
                raise DataError(f"QDA: class {c} has fewer than 2 rows; cannot "
                                "estimate a per-class covariance")
            blocks.append(centered.T @ centered / centered.shape[0])
        return np.stack(blocks)

    def _predict_proba(self, X):
        d = X.shape[1]
        scores = np.empty((self.n_classes_, X.shape[0]))
        for c in range(self.n_classes_):
            diff = X - self.means_[c]
            quad = np.einsum("ij,jk,ik->i", diff, self.precisions_[c], diff)
            scores[c] = (np.log(self.priors_[c])
                         - 0.5 * (quad + self._logdets[c] + d * _LOG_2PI))
        return _class_softmax(scores)


class LinearDiscriminantAnalysis(QuadraticDiscriminantAnalysis):
    """QDA with one covariance tied across classes: the pooled within-class
    covariance (Hastie, Tibshirani & Friedman, ESL section 4.3)."""

    algorithm = "LDA"

    def _covariance(self, X, y):
        """The pooled within-class covariance, (d, d)."""
        pooled = np.zeros((X.shape[1], X.shape[1]))
        for c in range(self.n_classes_):
            centered = X[y == c] - self.means_[c]
            pooled += centered.T @ centered
        return pooled / X.shape[0]
