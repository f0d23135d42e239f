"""Uniform classifier contract: fit / predict / predict_proba.

Every model is deterministic given (hyperparameters, data, seed), exposes
class-probability rows on the simplex, and predicts the argmax class
(ties resolve to the lowest class code). Fitted models are immutable in
practice: nothing mutates state after fit, so they are safe to share
across threads.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ConfigError, DataError


class Classifier:
    """Base class wiring hyperparameter validation and the predict contract."""

    algorithm: str = ""
    DEFAULTS: dict = {}

    def __init__(self, seed: int = 0, **hyperparameters):
        unknown = sorted(set(hyperparameters) - set(self.DEFAULTS))
        if unknown:
            raise ConfigError(
                f"{self.algorithm}: unknown hyperparameter(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(self.DEFAULTS))}"
            )
        self.params = {**self.DEFAULTS, **hyperparameters}
        self.seed = int(seed)
        self.n_features_: int | None = None
        self.n_classes_: int | None = None

    # -- fitting -------------------------------------------------------------

    def fit(self, X, y, n_classes: int | None = None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise DataError(f"{self.algorithm}: X must be 2-d")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DataError(f"{self.algorithm}: y must match X row count")
        if not np.all(np.isfinite(X)):
            raise DataError(f"{self.algorithm}: X contains non-finite values")
        C = int(n_classes) if n_classes is not None else int(y.max()) + 1 if y.size else 0
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
        self._fit(X, y, np.random.default_rng(self.seed))
        return self

    def _fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
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

    # -- serialization -------------------------------------------------------

    def _state(self) -> dict:
        raise NotImplementedError

    def _load_state(self, state: dict):
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        if self.n_features_ is None:
            raise DataError(f"{self.algorithm}: cannot serialize an unfitted model")
        return {
            "format_version": 1,
            "algorithm": self.algorithm,
            "hyperparameters": self.params,
            "seed": self.seed,
            "n_features": self.n_features_,
            "n_classes": self.n_classes_,
            "state": self._state(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
