"""Synthetic driving-behavior datasets for hermetic runs and tests.

The generator produces class-imbalanced Gaussian data: the first
n_informative feature columns carry the class signal (class c is centered at
c * separation * noise_std), the rest are class-independent standard normals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import NUMERIC, ColumnSchema, Dataset
from .errors import ConfigError
from .preprocess import _largest_remainder

_THREE_CLASS_NAMES = ("aggressive", "normal", "vague")
_THREE_CLASS_PRIORS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class SynthSpec:
    n_rows: int = 2000
    n_classes: int = 3
    n_features: int = 18
    n_informative: int = 5
    separation: float = 3.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.n_classes < 2:
            problems.append(f"n_classes must be >= 2, got {self.n_classes}")
        if not 0 <= self.n_informative <= self.n_features:
            problems.append(
                f"n_informative must be in 0..n_features, got {self.n_informative}"
            )
        if self.n_features < 1:
            problems.append(f"n_features must be >= 1, got {self.n_features}")
        if self.noise_std <= 0:
            problems.append(f"noise_std must be > 0, got {self.noise_std}")
        if self.separation < 0:
            problems.append(f"separation must be >= 0, got {self.separation}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if self.n_rows < 4 * self.n_classes:
            problems.append(
                f"n_rows={self.n_rows} is too small for {self.n_classes} classes"
            )
        elif self.n_classes >= 2 and (smallest := self.class_counts().min()) < 1:
            problems.append(
                f"n_rows={self.n_rows} leaves a class empty with "
                f"n_classes={self.n_classes} (smallest class count {smallest})"
            )
        if problems:
            raise ConfigError("; ".join(problems))

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
    schema = tuple(
        ColumnSchema(name=f"f{j:02d}", kind=NUMERIC, index=j)
        for j in range(spec.n_features)
    )
    return Dataset(X=X, y=y, schema=schema, classes=class_names(spec.n_classes))


def dump_csv(data: Dataset, path: str, target_column: str = "behavior"):
    """Write a dataset as CSV; floats use repr so a reload is bit-exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.feature_names() + [target_column])
        for i in range(data.n_rows):
            cells = [repr(float(v)) for v in data.X[i]]
            cells.append(data.classes[data.y[i]])
            writer.writerow(cells)
