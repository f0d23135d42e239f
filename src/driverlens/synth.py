"""Synthetic driving-behavior datasets for hermetic runs and tests.

The generator produces class-imbalanced Gaussian data: the first
n_informative feature columns carry the class signal (class c is centered at
c * separation * noise_std), the rest are class-independent standard normals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .models.base import _finite, range_problems
from .preprocess import _largest_remainder

_THREE_CLASS_NAMES = ("aggressive", "normal", "vague")
_THREE_CLASS_PRIORS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class SynthSpec:
    RANGES = {"n_classes": ">= 2", "n_features": ">= 1", "separation": ">= 0",
              "noise_std": "> 0", "seed": ">= 0"}  # not a field

    n_rows: int = 2000
    n_classes: int = 3
    n_features: int = 18
    n_informative: int = 5
    separation: float = 3.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # the rules across fields read only values that met their own
        problems = range_problems(self.RANGES, vars(self))
        if "n_features" not in problems and not (
                _finite(self.n_informative)
                and 0 <= self.n_informative <= self.n_features):
            problems["n_informative"] = ("n_informative must be in 0..n_features, "
                                         f"got {self.n_informative}")
        if "n_classes" not in problems:
            if not (_finite(self.n_rows) and self.n_rows >= 4 * self.n_classes):
                problems["n_rows"] = (f"n_rows={self.n_rows} is too small for "
                                      f"{self.n_classes} classes")
            elif (smallest := self.class_counts().min()) < 1:
                problems["n_rows"] = (
                    f"n_rows={self.n_rows} leaves a class empty with "
                    f"n_classes={self.n_classes} (smallest class count {smallest})")
        if problems:
            raise ConfigError("; ".join(problems.values()))

    def class_counts(self) -> np.ndarray:
        """Rows per class: the priors' quotas rounded by largest remainder."""
        return _largest_remainder(class_priors(self.n_classes) * self.n_rows,
                                  self.n_rows, self.n_rows)


def class_priors(n_classes: int) -> np.ndarray:
    """Imbalanced priors; the three-class default is (0.5, 0.3, 0.2)."""
    if n_classes == 3:
        return np.asarray(_THREE_CLASS_PRIORS)
    weights = np.arange(n_classes, 0, -1, dtype=float)
    return weights / weights.sum()


def class_names(n_classes: int) -> tuple[str, ...]:
    if n_classes == 3:
        return _THREE_CLASS_NAMES
    return tuple(f"class_{c:02d}" for c in range(n_classes))


def synth_generate(spec: SynthSpec) -> Dataset:
    """Dataset of spec.n_rows rows; informative columns are 0..n_informative-1."""
    gen = np.random.default_rng(spec.seed)
    y_sorted = np.repeat(np.arange(spec.n_classes, dtype=np.int64),
                         spec.class_counts())
    y = y_sorted[gen.permutation(spec.n_rows)]
    X = gen.standard_normal((spec.n_rows, spec.n_features))
    if spec.n_informative:
        means = y[:, None] * spec.separation * spec.noise_std
        X[:, : spec.n_informative] = (
            X[:, : spec.n_informative] * spec.noise_std + means
        )
    names = [f"f{j:02d}" for j in range(spec.n_features)]
    return Dataset(X=X, y=y, feature_names=names,
                   classes=class_names(spec.n_classes))


def dump_csv(data: Dataset, path: str, target_column: str = "behavior"):
    """Write a dataset as CSV; floats use repr so a reload is bit-exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*data.feature_names, target_column])
        for i in range(data.n_rows):
            cells = [repr(float(v)) for v in data.X[i]]
            cells.append(data.classes[data.y[i]])
            writer.writerow(cells)
