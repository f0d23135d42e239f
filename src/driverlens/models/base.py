"""Uniform classifier contract: fit / predict / predict_proba.

Every model is deterministic given (hyperparameters, data, seed), exposes
class-probability rows on the simplex, and predicts the argmax class
(ties resolve to the lowest class code). Fitted models are immutable in
practice: nothing mutates state after fit, so they are safe to share
across threads.

Models that score classes build the scores class-major, one contiguous
(n,) row per class in a (C, n) array, and Gaussian NB sums its log densities
feature-major, over (d, n) rows: numpy reduces and broadcasts along a short
last axis slowly, and along rows every operation runs over contiguous
memory. _predict_proba returns the class-major (C, n) probabilities, and
predict_proba hands them back as C-ordered (n, C) rows, whose strided
columns the explainer's surrogate fit reads. _leading_sum adds rows in the
order numpy's sum takes along the contiguous rows of the transposed array,
so every model keeps the bits it had with (n, C) scores.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DataError


class Classifier:
    """Base class wiring hyperparameter validation and the predict contract."""

    algorithm: str = ""
    DEFAULTS: dict = {}
    RANGES: dict = {}  # each hyperparameter's rule, read by range_problems

    def __init__(self, seed: int = 0, **hyperparameters):
        self.check_hyperparameters(hyperparameters)
        self.params = {**self.DEFAULTS, **hyperparameters}
        self.seed = int(seed)
        self.n_features_: int | None = None
        self.n_classes_: int | None = None

    @classmethod
    def check_hyperparameters(cls, hyperparameters) -> None:
        """Raise ConfigError naming every key that is not in DEFAULTS, or
        else every value outside its key's RANGES rule."""
        unknown = sorted(set(hyperparameters) - set(cls.DEFAULTS))
        if unknown:
            raise ConfigError(
                f"{cls.algorithm}: unknown hyperparameter(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(cls.DEFAULTS))}"
            )
        problems = range_problems(cls.RANGES, hyperparameters)
        if problems:
            raise ConfigError("; ".join(f"{cls.algorithm}: {problem}"
                                        for problem in problems.values()))

    # -- fitting -------------------------------------------------------------

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = class_codes(y, f"{self.algorithm}: y")
        if X.ndim != 2:
            raise DataError(f"{self.algorithm}: X must be 2-d")
        if y.shape[0] != X.shape[0]:
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
        return np.ascontiguousarray(self._predict_proba(self._check_matrix(X)).T)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-major (C, n) probabilities: one row per class."""
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        """Argmax of predict_proba; probability ties go to the lowest code."""
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)


def class_codes(y, name: str) -> np.ndarray:
    """y as int64 class codes, or a DataError naming name."""
    y = np.asarray(y)
    with np.errstate(invalid="ignore"):  # NaN and huge floats are refused
        codes = y.astype(np.int64) if y.dtype.kind in "biuf" else None
    if codes is None or y.ndim != 1 or (codes != y).any() or (codes < 0).any():
        raise DataError(f"{name} must be a 1-d vector of non-negative integers")
    return codes


def _finite(value) -> bool:
    """Whether value is a finite number; an int past float's range is not."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def range_problems(ranges: dict, values: dict) -> dict:
    """{key: message} for each value in values outside its key's rule in
    ranges, a RANGES table; keys without a rule are not checked. A rule
    reads "> x" or ">= x", for a finite number, and ends " or null" where
    None is valid too. The message is "{key} must be {rule}, got {value!r}",
    with "a finite number " before the rule where the value is a number
    that is not finite."""
    problems = {}
    for key, value in values.items():
        rule = ranges.get(key)
        if rule is None or value is None and rule.endswith(" or null"):
            continue
        op, bound = rule.split()[:2]
        finite = _finite(value)
        if finite and (value > float(bound) if op == ">" else value >= float(bound)):
            continue
        if isinstance(value, (int, float)) and not finite:
            rule = f"a finite number {rule}"
        problems[key] = f"{key} must be {rule}, got {value!r}"
    return problems


def _pairwise_sum(A: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The rows A[lo:hi] summed as numpy's pairwise_sum adds one contiguous
    run of hi - lo terms: below 8 terms left to right from +0.0; up to 128
    in 8 running partial sums, combined pairwise, then the leftover terms in
    order; above that, the sum of two halves split at a multiple of 8. From
    8 terms on, the sum is a row of the 8-row buffer that holds the partial
    sums and combines them in place."""
    count = hi - lo
    if count < 8:
        total = np.zeros(A.shape[1:])
        for k in range(lo, hi):
            total += A[k]
        return total
    if count <= 128:
        end = hi - count % 8
        partial = A[lo:lo + 8].copy()
        for k in range(lo + 8, end, 8):
            partial += A[k:k + 8]
        # a row at a time: partial[0::2] += partial[1::2] would make numpy
        # buffer its overlapping operands
        for r in (0, 2, 4, 6):  # the pairs
            partial[r] += partial[r + 1]
        partial[0] += partial[2]  # and the pairs of pairs
        partial[4] += partial[6]
        total = partial[0]
        total += partial[4]
        for k in range(end, hi):
            total += A[k]
        return total
    half = count // 2 - count // 2 % 8
    return _pairwise_sum(A, lo, lo + half) + _pairwise_sum(A, lo + half, hi)


def _leading_sum(A: np.ndarray) -> np.ndarray:
    """The sum of A's rows, bit for bit A.T.sum(axis=1) on a C-ordered copy
    of A.T: numpy reduces each contiguous run pairwise and adds the result
    to its identity, +0.0. Every step adds whole rows, whatever A's strides."""
    total = _pairwise_sum(A, 0, A.shape[0])
    total += 0.0  # only turns -0.0 (a sum of -0.0 terms) into +0.0
    return total


def _class_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the classes of class-major (C, n) scores, in the same
    layout; bit for bit the row softmax of scores.T."""
    exp = np.exp(scores - scores.max(axis=0))
    exp /= _leading_sum(exp)
    return exp


def _softmax_nll(scores: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of labels y under class-major (C, n)
    scores, and the softmax of the scores (bit for bit _class_softmax's),
    both from one pass of exponentials."""
    top = scores.max(axis=0)
    exp = np.exp(scores - top)
    norm = _leading_sum(exp)
    nll = float(np.mean(np.log(norm) + top - scores[y, np.arange(y.size)]))
    exp /= norm
    return nll, exp
