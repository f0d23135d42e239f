"""Class balancing, standard scaling, and repeated stratified splits.

All three operations are pure functions of (input, seed): pass an integer
seed or a freshly seeded Generator to reproduce results exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError
from .rng import as_generator


def _round_half_up(x: float) -> int:
    # pinned rounding rule: banker's rounding would make sizes platform-lucky
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature mean and population standard deviation."""

    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        if mean.shape != std.shape or mean.ndim != 1:
            raise DataError("scaler mean/std must be 1-d and of equal length")
        if np.any(std < 0):
            raise DataError("scaler std must be non-negative")
        if (self.feature_names is not None
                and len(self.feature_names) != mean.size):
            raise DataError(f"scaler has {len(self.feature_names)} feature "
                            f"names for {mean.size} features")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    def to_json_dict(self) -> dict:
        names = self.feature_names or tuple(f"f{j}" for j in range(self.n_features))
        return {
            name: {"mean": float(m), "std": float(s)}
            for name, m, s in zip(names, self.mean, self.std)
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass(frozen=True)
class SplitIndices:
    """One train/test partition by row index, and the scaler it applies to
    both sides (None: none). train may repeat a row: leak-safe preprocessing
    oversamples a split by appending duplicates of its own training rows.
    """

    train: np.ndarray
    test: np.ndarray
    scaler: ScalerParams | None = None

    def __post_init__(self):
        train = np.asarray(self.train, dtype=np.int64)
        test = np.asarray(self.test, dtype=np.int64)
        if train.size == 0 or test.size == 0:
            raise DataError("a split must have non-empty train and test sides")
        if np.intersect1d(train, test).size:
            raise DataError("train and test indices overlap")
        train.setflags(write=False)
        test.setflags(write=False)
        object.__setattr__(self, "train", train)
        object.__setattr__(self, "test", test)


def random_oversample(data: Dataset, rng: int | np.random.Generator) -> Dataset:
    """Duplicate minority-class rows until every class matches the majority.

    Original rows keep their order; duplicates (drawn uniformly with
    replacement from same-class rows) are appended after them.
    """
    if data.n_rows == 0:
        raise DataError("cannot oversample an empty dataset")
    rows = _oversample_rows(data.y, as_generator(rng))
    if rows.size == data.n_rows:
        return data
    return Dataset(X=data.X[rows], y=data.y[rows], schema=data.schema,
                   classes=data.classes)


def _oversample_rows(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The row positions random_oversample keeps: 0..n-1, then each minority
    class's duplicates.

    Classes are visited in code order and each draws its duplicates with one
    rng.integers call, so a seed gives the same rows on every caller.
    """
    counts = np.bincount(y)
    target = counts.max()
    rows = [np.arange(y.size)]
    for c in range(counts.size):
        deficit = int(target - counts[c])
        if deficit <= 0 or counts[c] == 0:
            continue
        pool = np.flatnonzero(y == c)
        rows.append(pool[rng.integers(0, pool.size, size=deficit)])
    return np.concatenate(rows)


def fit_scaler(X: np.ndarray, feature_names=None) -> ScalerParams:
    """Per-column mean and population std; constant columns get std 0 exactly.
    The sums run over a C-ordered copy (none for C-ordered X), since numpy
    adds a column in another order, with other rounding, in another layout."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("fit_scaler needs a non-empty 2-d matrix")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = np.all(X == X[0], axis=0)
    # exact-equality mask avoids 1e-17 stds blowing up constant columns
    mean = np.where(constant, X[0], mean)
    std = np.where(constant, 0.0, std)
    names = tuple(feature_names) if feature_names is not None else None
    return ScalerParams(mean=mean, std=std, feature_names=names)


def apply_scaler(X: np.ndarray, params: ScalerParams) -> np.ndarray:
    """(x - mean) / std per column; zero-variance columns map to all zeros."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.n_features:
        raise DataError(
            f"scaler fitted for {params.n_features} features, got matrix with "
            f"{X.shape[1] if X.ndim == 2 else '?'} columns"
        )
    safe = np.where(params.std == 0.0, 1.0, params.std)
    out = (X - params.mean) / safe
    out[:, params.std == 0.0] = 0.0
    return out


def _largest_remainder(quotas: np.ndarray, total: int, cap) -> np.ndarray:
    """Integer counts near the real quotas: their floors, plus one for each
    of the largest remainders whose count is still below its cap, until the
    counts reach total. Ties go to the lower index."""
    counts = np.floor(quotas).astype(np.int64)
    order = np.argsort(counts - quotas, kind="stable")
    below_cap = order[(counts < cap)[order]]
    counts[below_cap[:max(total - int(counts.sum()), 0)]] += 1
    return counts


def _draw_strata(groups: list[np.ndarray], counts, gen: np.random.Generator):
    """The sorted rows drawn from each group, counts[g] from group g, and
    the sorted rest: one gen.permutation per group, in group order."""
    perms = [gen.permutation(rows) for rows in groups]
    picked = np.concatenate([p[:t] for p, t in zip(perms, counts)])
    rest = np.concatenate([p[t:] for p, t in zip(perms, counts)])
    return np.sort(picked), np.sort(rest)


def stratified_shuffle_splits(
    data: Dataset,
    repeats: int = 20,
    test_frac: float = 0.12,
    rng: int | np.random.Generator = 0,
) -> list[SplitIndices]:
    """Independent stratified train/test partitions.

    Class c gives count_c * test_frac test rows, rounded by _largest_remainder
    so the total test size is round(n * test_frac), as far as every class
    keeps at least one training row.
    Every repeat draws from its own sub-stream, so splits are identical
    whether generated serially or in parallel.
    """
    if not 0.0 < test_frac < 1.0:
        raise DataError(f"test_frac must be in (0, 1), got {test_frac}")
    if repeats < 1:
        raise DataError("repeats must be >= 1")
    if data.n_rows == 0:
        raise DataError("cannot split an empty dataset")
    counts = data.class_counts()
    for c, count in enumerate(counts):
        if count == 1:
            raise DataError(
                f"class {data.classes[c]!r} has a single row; cannot stratify"
            )
    total = min(max(_round_half_up(data.n_rows * test_frac), 1), data.n_rows - 1)
    test_counts = _largest_remainder(counts * test_frac, total, counts - 1)
    class_rows = [np.flatnonzero(data.y == c) for c in range(data.n_classes)]
    splits: list[SplitIndices] = []
    for gen in as_generator(rng).spawn(repeats):
        test, train = _draw_strata(class_rows, test_counts, gen)
        splits.append(SplitIndices(train=train, test=test))
    return splits
