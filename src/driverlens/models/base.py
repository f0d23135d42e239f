"""Uniform classifier contract: fit / predict / predict_proba.

Every model is deterministic given (hyperparameters, data, seed), exposes
class-probability rows on the simplex, and predicts the argmax class
(ties resolve to the lowest class code). Fitted models are immutable in
practice: nothing mutates state after fit, so they are safe to share
across threads.

Row reductions over the class axis (_row_max, _row_sum) give numpy's own
bits faster: numpy reduces a short last axis slowly, so below 8 columns they
pass over the columns one at a time, left to right, as numpy does (a sum
starts from +0.0); from 8 columns on numpy sums in pairwise blocks and
reduces maxima with SIMD, and they call numpy.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError


class Classifier:
    """Base class wiring hyperparameter validation and the predict contract."""

    algorithm: str = ""
    DEFAULTS: dict = {}

    def __init__(self, seed: int = 0, **hyperparameters):
        self.check_hyperparameters(hyperparameters)
        self.params = {**self.DEFAULTS, **hyperparameters}
        self.seed = int(seed)
        self.n_features_: int | None = None
        self.n_classes_: int | None = None

    @classmethod
    def check_hyperparameters(cls, hyperparameters) -> None:
        """Raise ConfigError naming every key that is not in DEFAULTS."""
        unknown = sorted(set(hyperparameters) - set(cls.DEFAULTS))
        if unknown:
            raise ConfigError(
                f"{cls.algorithm}: unknown hyperparameter(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(cls.DEFAULTS))}"
            )

    # -- fitting -------------------------------------------------------------

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise DataError(f"{self.algorithm}: X must be 2-d")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DataError(f"{self.algorithm}: y must match X row count")
        if not np.all(np.isfinite(X)):
            raise DataError(f"{self.algorithm}: X contains non-finite values")
        C = int(y.max()) + 1 if y.size else 0
        if C < 2:
            raise DataError(f"{self.algorithm}: need at least 2 classes")
        present = np.bincount(y, minlength=C) > 0
        if not present.all():
            missing = np.flatnonzero(~present).tolist()
            raise DataError(
                f"{self.algorithm}: class(es) {missing} absent from training data"
            )
        if X.shape[0] < C:
            raise DataError(f"{self.algorithm}: fewer rows than classes")
        self.n_features_ = X.shape[1]
        self.n_classes_ = C
        self._fit(X, y)
        return self

    def _fit(self, X: np.ndarray, y: np.ndarray):
        raise NotImplementedError

    # -- prediction ----------------------------------------------------------

    def _check_matrix(self, X) -> np.ndarray:
        if self.n_features_ is None:
            raise DataError(f"{self.algorithm}: model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.n_features_:
            raise DataError(
                f"{self.algorithm}: expected {self.n_features_} features, "
                f"got {X.shape[1]}"
            )
        return X

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability matrix, one simplex row per input row."""
        return self._predict_proba(self._check_matrix(X))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        """Argmax of predict_proba; probability ties go to the lowest code."""
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)

_COLUMN_PASSES_BELOW = 8  # numpy's pairwise-summation block


def _row_max(A: np.ndarray) -> np.ndarray:
    """A.max(axis=1, keepdims=True), bit for bit."""
    if not 0 < A.shape[1] < _COLUMN_PASSES_BELOW:
        return A.max(axis=1, keepdims=True)
    top = A[:, :1].copy()
    for k in range(1, A.shape[1]):
        np.maximum(top, A[:, k:k + 1], out=top)
    return top


def _row_sum(A: np.ndarray) -> np.ndarray:
    """A.sum(axis=1, keepdims=True), bit for bit."""
    if not 0 < A.shape[1] < _COLUMN_PASSES_BELOW:
        return A.sum(axis=1, keepdims=True)
    total = A[:, :1] + 0.0  # numpy starts from +0.0: -0.0 alone sums to +0.0
    for k in range(1, A.shape[1]):
        total += A[:, k:k + 1]
    return total


def _softmax(logits: np.ndarray) -> np.ndarray:
    exp = np.exp(logits - _row_max(logits))
    exp /= _row_sum(exp)
    return exp
