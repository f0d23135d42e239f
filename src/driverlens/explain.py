"""Local surrogate explanations for one prediction at a time.

The recipe: discretize features into training quartile bins, draw
perturbed neighbors that keep or swap each feature's bin, weight neighbors by
an exponential kernel on their binary keep/swap vector, and fit a weighted
ridge surrogate whose coefficients are the per-feature explanation weights.
Sparsity comes from keeping only the k largest-magnitude coefficients.

Features are continuous: the pipeline explains in scaled model space. Each
instance draws from its own stream, seeded by seed XOR index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError
from .models.base import _in_range
from .rng import as_generator, xor_seed


@dataclass(frozen=True)
class LimeConfig:
    """Knobs for the perturbation set and the ridge surrogate.

    kernel_width None means the scale-free default 0.75 * sqrt(d), resolved
    when the feature count is known. The numbers must be finite, as model
    hyperparameters must (models.base._in_range).
    """

    n_samples: int = 5000
    kernel_width: float | None = None
    ridge_alpha: float = 1.0
    k_features: int = 10
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.n_samples < 2:
            problems.append(f"n_samples must be >= 2, got {self.n_samples}")
        if not _in_range(self.kernel_width, ">= 1e-12 or null"):
            problems.append(f"kernel_width must be a finite number >= 1e-12 "
                            f"or null, got {self.kernel_width}")
        if not _in_range(self.ridge_alpha, ">= 0"):
            problems.append(f"ridge_alpha must be a finite number >= 0, "
                            f"got {self.ridge_alpha}")
        if self.k_features < 1:
            problems.append(f"k_features must be >= 1, got {self.k_features}")
        if problems:
            raise ConfigError("; ".join(problems))

    def check_samples(self, n_features: int) -> None:
        """Raise ConfigError unless n_samples fits a surrogate on n_features."""
        if self.n_samples < n_features + 2:
            raise ConfigError(f"n_samples={self.n_samples} is too small for "
                              f"{n_features} features (need at least d + 2)")

    def resolve_width(self, n_features: int) -> float:
        if self.kernel_width is not None:
            return self.kernel_width
        return 0.75 * float(np.sqrt(n_features))


def _quartile_bins(x: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Bin 0..3 of each value: how many of its (Q1, Q2, Q3) it exceeds.
    boundaries is (3,) for a column of values, or (d, 3) for one row."""
    return (x[..., None] > boundaries).sum(axis=-1)


@dataclass(frozen=True)
class Discretizer:
    """Training-quartile bins per feature.

    edges holds (min, Q1, Q2, Q3, max) per feature, so bin b spans
    edges[b]..edges[b + 1]; frequencies holds the training occupancy of each
    bin, used to sample swap bins.
    """

    edges: np.ndarray  # (d, 5)
    frequencies: np.ndarray  # (d, 4)

    @property
    def boundaries(self) -> np.ndarray:
        """(Q1, Q2, Q3) per feature, (d, 3): a view of edges."""
        return self.edges[:, 1:4]

    @property
    def n_features(self) -> int:
        return self.edges.shape[0]

    def bin_row(self, row: np.ndarray) -> np.ndarray:
        """Each feature's quartile bin for one row."""
        return _quartile_bins(np.asarray(row), self.boundaries).astype(np.int64)


def fit_discretizer(X_train: np.ndarray) -> Discretizer:
    """Quartile boundaries (linear-interpolation percentiles) per feature."""
    X_train = np.asarray(X_train, dtype=float)
    if X_train.ndim != 2 or X_train.shape[0] < 4:
        raise DataError("discretizer needs a 2-d matrix with at least 4 rows")
    d = X_train.shape[1]
    edges = np.zeros((d, 5))
    frequencies = np.zeros((d, 4))
    for j in range(d):
        x = X_train[:, j]
        edges[j, 1:4] = np.percentile(x, [25.0, 50.0, 75.0])
        edges[j, 0], edges[j, 4] = x.min(), x.max()
        frequencies[j] = np.bincount(_quartile_bins(x, edges[j, 1:4]),
                                     minlength=4)
    return Discretizer(edges, frequencies)


def _choice_bins(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Generator.choice(4, size=u.size, p=p) given the uniforms u it would
    draw: choice searches p's normalized cumulative sum for each u, which on
    four bins is counting the first three entries at or below u."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    bins = (cdf[0] <= u).astype(np.intp)
    bins += cdf[1] <= u
    bins += cdf[2] <= u
    return bins


def perturb(
    instance: np.ndarray,
    disc: Discretizer,
    n_samples: int,
    rng: int | np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Neighborhood of an instance plus its binary keep/swap encoding.

    Row 0 of both outputs is the instance itself (all-ones encoding). Every
    other row keeps each feature's bin with probability 0.5 (entry 1) or
    swaps to a training-frequency-weighted other bin (entry 0), then draws
    its value uniformly inside the realized bin. A feature whose training
    mass sits entirely in the instance's bin has no alternative and is
    always kept.

    Draw order, which fixes the output for a seed: one (n_samples - 1, d)
    block of keep draws, then feature by feature the swapped rows' bins
    (the uniforms Generator.choice would draw) and one uniform per row.
    The keep block is drawn straight into X_pert's rows, and each feature's
    values are filled as one contiguous row of a (d, n_samples - 1) buffer
    that a single transposing copy puts back; both outputs are C-ordered.
    """
    instance = np.asarray(instance, dtype=float)
    d = disc.n_features
    if instance.shape != (d,):
        raise DataError(f"instance must have {d} features")
    gen = as_generator(rng)
    m = n_samples - 1
    instance_bins = disc.bin_row(instance)
    widths = np.diff(disc.edges, axis=1)  # bin b spans edges[b] + [0, widths[b]]
    alt = disc.frequencies.copy()
    alt[np.arange(d), instance_bins] = 0.0
    total = alt.sum(axis=1)

    X_pert = np.empty((n_samples, d))
    X_pert[0] = instance
    keep_draw = gen.random(out=X_pert[1:]) < 0.5
    # with nothing to swap to, every row keeps the instance's bin
    keep_draw[:, total == 0.0] = True
    Z = np.empty((n_samples, d))
    Z[0] = 1.0
    Z[1:] = keep_draw
    swap = np.ascontiguousarray(~keep_draw.T)
    cols = np.empty((d, m))
    for j, values in enumerate(cols):
        ibin = int(instance_bins[j])
        swapped = np.flatnonzero(swap[j])
        if len(swapped):
            bins = _choice_bins(alt[j] / total[j], gen.random(len(swapped)))
        gen.random(out=values)
        if len(swapped):
            moved = values.take(swapped)
            moved *= widths[j].take(bins)
            moved += disc.edges[j].take(bins)
        values *= widths[j, ibin]
        values += disc.edges[j, ibin]
        if len(swapped):
            values[swapped] = moved
    X_pert[1:] = cols.T
    return X_pert, Z


def kernel_weights(Z: np.ndarray, kernel_width: float) -> np.ndarray:
    """exp(-D^2 / width^2) with D the distance to the all-ones anchor row.

    D^2 sums each row by a product with a ones vector: on a binary Z every
    partial sum is a small integer, so any summation order gives the same
    bits as a row sum."""
    if not kernel_width >= 1e-12:
        raise ConfigError(f"kernel_width must be >= 1e-12, got {kernel_width}")
    Z = np.asarray(Z, dtype=float)
    squares = 1.0 - Z
    squares *= squares  # in place: one (n, d) temporary, not two
    dist2 = squares @ np.ones(Z.shape[1])
    return np.exp(-dist2 / kernel_width**2)


@dataclass(frozen=True)
class Explanation:
    """Sparse signed feature weights for one explained prediction."""

    instance_index: int
    class_code: int
    intercept: float
    weights: np.ndarray  # dense, at most k_features nonzero
    fit_quality: float  # weighted R^2 of the dense surrogate

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def to_json_dict(self, feature_names) -> dict:
        if len(feature_names) != self.weights.size:
            raise DataError(f"explanation has {len(feature_names)} feature "
                            f"names for {self.weights.size} features")
        nonzero = np.flatnonzero(self.weights)
        order = nonzero[np.argsort(-np.abs(self.weights[nonzero]), kind="stable")]
        return {
            "instance_index": self.instance_index,
            "class_code": self.class_code,
            "intercept": self.intercept,
            "fit_quality": self.fit_quality,
            "weights": [[feature_names[j], float(self.weights[j])] for j in order],
        }


def fit_surrogate(
    Z: np.ndarray,
    y_target: np.ndarray,
    weights: np.ndarray,
    config: LimeConfig,
    instance_index: int = -1,
    class_code: int = -1,
) -> Explanation:
    """Weighted ridge least squares on the binary representation.

    Solves (Z'WZ + alpha*I) beta = Z'Wy with the intercept left unpenalized
    (weighted centering), reports the dense fit's weighted R^2, then keeps
    only the k largest-magnitude coefficients.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y_target, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (Z.shape[0] == y.size == w.size):
        raise DataError("Z, y_target and weights must agree on the row count")
    sw = w.sum()
    if sw <= 0:
        raise DataError("kernel weights sum to zero; widen the kernel")
    z_mean = w @ Z / sw
    y_mean = float(w @ y / sw)
    Zc = Z - z_mean
    yc = y - y_mean
    d = Z.shape[1]
    A = Zc.T @ (Zc * w[:, None]) + config.ridge_alpha * np.eye(d)
    if config.ridge_alpha == 0.0 and np.linalg.matrix_rank(A) < d:
        raise DataError(
            "weighted normal equations are singular with ridge_alpha=0; "
            "set ridge_alpha > 0"
        )
    beta = np.linalg.solve(A, Zc.T @ (w * yc))
    intercept = y_mean - float(z_mean @ beta)

    fitted = Z @ beta + intercept
    sse = float(w @ (y - fitted) ** 2)
    sst = float(w @ yc**2)
    if sst == 0.0:
        quality = 1.0 if sse <= 1e-24 else 0.0
    else:
        quality = 1.0 - sse / sst

    if d > config.k_features:
        order = np.argsort(-np.abs(beta), kind="stable")
        sparse = np.zeros(d)
        keep = order[: config.k_features]
        sparse[keep] = beta[keep]
        beta = sparse
    return Explanation(
        instance_index=instance_index,
        class_code=class_code,
        intercept=intercept,
        weights=beta,
        fit_quality=quality,
    )


def explain_instance(
    model,
    data: Dataset,
    instance_index: int,
    config: LimeConfig,
    discretizer: Discretizer | None = None,
    class_code: int | None = None,
) -> Explanation:
    """Explain the model's predicted class for one dataset row.

    model is any object with predict / predict_proba over data's feature
    space. Passing a prefitted discretizer skips the quartile fit when
    explaining many rows of the same dataset. class_code, when given, is
    the class to explain, as a prediction over a batch of rows holding this
    one gave it; without it the row is predicted alone, and a model whose
    arithmetic depends on the batch (BLAS) may round that call otherwise.
    """
    if not 0 <= instance_index < data.n_rows:
        raise DataError(f"instance index {instance_index} out of range")
    if class_code is not None and not 0 <= class_code < data.n_classes:
        raise DataError(f"class code {class_code} out of range")
    config.check_samples(data.n_features)
    disc = discretizer if discretizer is not None else fit_discretizer(data.X)
    instance = data.X[instance_index]
    target_class = (int(model.predict(instance.reshape(1, -1))[0])
                    if class_code is None else int(class_code))
    gen = np.random.default_rng(xor_seed(config.seed, instance_index))
    X_pert, Z = perturb(instance, disc, config.n_samples, gen)
    # y_target stays the strided column of the model's output: a contiguous
    # copy gives the surrogate's dot products other rounding, and changed
    # the benchmark's csv-leaksafe seed 1 report.json digest
    y_target = model.predict_proba(X_pert)[:, target_class]
    del X_pert  # the surrogate reads only Z: free the rows before it runs
    weights = kernel_weights(Z, config.resolve_width(data.n_features))
    return fit_surrogate(
        Z, y_target, weights, config,
        instance_index=instance_index, class_code=target_class,
    )
