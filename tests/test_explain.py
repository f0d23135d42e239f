import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

from driverlens.errors import ConfigError, DataError
from driverlens.explain import (
    Discretizer,
    LimeConfig,
    _choice_bins,
    explain_instance,
    fit_discretizer,
    fit_surrogate,
    kernel_weights,
    perturb,
)
from driverlens.rng import xor_seed

from test_preprocess import make_dataset


def bin_column(disc, j, x):
    """Oracle for feature j's bins: the number of its quartile boundaries a
    value exceeds."""
    return (x[:, None] > disc.boundaries[j]).sum(axis=1)


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class LinearSoftmaxModel:
    """Known black box: softmax over fixed linear scores."""

    def __init__(self, W, b=None):
        self.W = np.asarray(W, dtype=float)
        self.b = np.zeros(self.W.shape[1]) if b is None else np.asarray(b)

    def predict_proba(self, X):
        return softmax(np.asarray(X, dtype=float) @ self.W + self.b)

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


class ConstantModel:
    def __init__(self, proba):
        self.proba = np.asarray(proba, dtype=float)

    def predict_proba(self, X):
        return np.tile(self.proba, (np.asarray(X).shape[0], 1))

    def predict(self, X):
        return np.full(np.asarray(X).shape[0], int(np.argmax(self.proba)))


class TestDiscretizer:
    def test_quartiles_of_one_to_eight(self):
        X = np.arange(1.0, 9.0).reshape(-1, 1)
        disc = fit_discretizer(X)
        assert disc.boundaries[0].tolist() == [2.75, 4.5, 6.25]
        assert disc.edges[0].tolist() == [1.0, 2.75, 4.5, 6.25, 8.0]
        assert disc.frequencies[0].tolist() == [2.0, 2.0, 2.0, 2.0]
        assert disc.n_features == 1

    def test_boundaries_are_a_view_of_the_edges(self):
        # the quartiles are stored once, as edges[:, 1:4]
        disc = fit_discretizer(np.arange(16.0).reshape(8, 2))
        assert [f.name for f in fields(disc)] == ["edges", "frequencies"]
        built = Discretizer(disc.edges, disc.frequencies)
        assert built.boundaries.base is disc.edges
        assert built.boundaries.tolist() == [[3.5, 7.0, 10.5], [4.5, 8.0, 11.5]]

    def test_constant_feature_bins_to_zero(self):
        X = np.full((10, 1), 3.5)
        disc = fit_discretizer(X)
        assert np.all(disc.boundaries[0] == 3.5)
        assert np.all(disc.edges[0] == 3.5)
        assert disc.frequencies[0].tolist() == [10.0, 0.0, 0.0, 0.0]
        assert disc.bin_row(np.array([3.5])).tolist() == [0]
        assert bin_column(disc, 0, np.array([3.5, 3.5])).tolist() == [0, 0]

    def test_boundaries_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = rng.normal(size=(rng.integers(4, 50), 3)) * rng.exponential()
            disc = fit_discretizer(X)
            for j in range(3):
                b = disc.boundaries[j]
                assert b[0] <= b[1] <= b[2]

    def test_bin_assignment(self):
        X = np.arange(1.0, 9.0).reshape(-1, 1)  # boundaries 2.75, 4.5, 6.25
        disc = fit_discretizer(X)
        values = np.array([1.0, 2.75, 3.0, 4.5, 5.0, 6.25, 8.0])
        assert bin_column(disc, 0, values).tolist() == [0, 0, 1, 1, 2, 2, 3]
        assert [disc.bin_row(values[i:i + 1])[0] for i in range(values.size)] \
            == [0, 0, 1, 1, 2, 2, 3]

    def test_bin_row_equals_bin_column_on_mixed_kinds(self):
        # continuous, small-integer-coded and rounded (tied) columns
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=40), rng.integers(0, 3, 40),
                             np.round(rng.normal(size=40) * 5), rng.integers(0, 5, 40)])
        disc = fit_discretizer(X)
        edges = [disc.edges[:, q] for q in range(5)]
        for row in [*X, *edges, X.min(axis=0) - 1.0, X.max(axis=0) + 1.0]:
            bins = disc.bin_row(row)
            assert bins.dtype == np.int64
            assert bins.tolist() == [bin_column(disc, j, row[j:j + 1])[0]
                                     for j in range(4)]

    def test_needs_four_rows(self):
        with pytest.raises(DataError, match="4 rows"):
            fit_discretizer(np.ones((3, 1)))


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(1)
    X_train = rng.normal(2.0, 3.0, size=(300, 4))
    disc = fit_discretizer(X_train)
    return X_train, disc


class TestPerturb:
    def test_anchor_row(self, setup):
        X_train, disc = setup
        instance = X_train[0]
        X_pert, Z = perturb(instance, disc, 100, rng=0)
        assert np.array_equal(X_pert[0], instance)
        assert np.all(Z[0] == 1.0)

    def test_keep_probability_half(self, setup):
        X_train, disc = setup
        _, Z = perturb(X_train[3], disc, 5000, rng=2)
        assert abs(Z[1:].mean() - 0.5) <= 0.02

    def test_values_within_training_range(self, setup):
        X_train, disc = setup
        X_pert, _ = perturb(X_train[5], disc, 5000, rng=3)
        for j in range(4):
            assert X_pert[:, j].min() >= X_train[:, j].min()
            assert X_pert[:, j].max() <= X_train[:, j].max()

    def test_swapped_features_change_bin(self, setup):
        X_train, disc = setup
        instance = X_train[7]
        ibins = disc.bin_row(instance)
        X_pert, Z = perturb(instance, disc, 2000, rng=4)
        for j in range(4):
            bins = bin_column(disc, j, X_pert[1:, j])
            swapped = Z[1:, j] == 0.0
            assert np.all(bins[swapped] != ibins[j])
            assert np.all(bins[~swapped] == ibins[j])

    def test_constant_feature_always_kept(self):
        X_train = np.hstack([np.random.default_rng(5).normal(size=(50, 1)),
                             np.full((50, 1), 7.0)])
        disc = fit_discretizer(X_train)
        X_pert, Z = perturb(X_train[0], disc, 500, rng=6)
        assert np.all(Z[:, 1] == 1.0)
        assert np.all(X_pert[:, 1] == 7.0)

    def test_deterministic(self, setup):
        X_train, disc = setup
        a = perturb(X_train[2], disc, 200, rng=9)
        b = perturb(X_train[2], disc, 200, rng=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestKernelWeights:
    def test_anchor_weight_one(self):
        Z = np.array([[1.0, 1.0], [1.0, 0.0]])
        w = kernel_weights(Z, 0.75)
        assert w[0] == 1.0

    def test_distance_equal_width(self):
        Z = np.zeros((1, 4))
        Z[0, :] = [0.0, 0.0, 0.0, 0.0]  # distance 2 from the all-ones anchor
        w = kernel_weights(Z, 2.0)
        assert w[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert w[0] == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_monotone_in_hamming_distance(self):
        d = 6
        Z = np.ones((d + 1, d))
        for i in range(1, d + 1):
            Z[i, :i] = 0.0
        w = kernel_weights(Z, 1.5)
        assert np.all(np.diff(w) < 0)

    def test_tiny_width_rejected(self):
        with pytest.raises(ConfigError, match="1e-12"):
            kernel_weights(np.ones((2, 2)), 1e-13)
        with pytest.raises(ConfigError, match="kernel_width"):
            LimeConfig(kernel_width=1e-13)


def ridge_objective(Z, y, w, alpha, beta, intercept):
    residual = y - Z @ beta - intercept
    return float(w @ residual**2 + alpha * beta @ beta)


def oracle_ridge_lstsq(Z, y, w, alpha):
    """Independent solve: stacked least squares, penalty rows on beta only."""
    n, d = Z.shape
    sw = np.sqrt(w)
    top = np.hstack([Z * sw[:, None], sw[:, None]])
    bottom = np.hstack([np.sqrt(alpha) * np.eye(d), np.zeros((d, 1))])
    A = np.vstack([top, bottom])
    target = np.concatenate([y * sw, np.zeros(d)])
    solution, *_ = np.linalg.lstsq(A, target, rcond=None)
    return solution[:d], float(solution[d])


class TestFitSurrogate:
    def test_constant_target(self):
        rng = np.random.default_rng(10)
        Z = (rng.random((50, 3)) < 0.5).astype(float)
        y = np.full(50, 0.42)
        exp = fit_surrogate(Z, y, np.ones(50), LimeConfig(n_samples=50))
        assert np.allclose(exp.weights, 0.0, atol=1e-12)
        assert exp.intercept == pytest.approx(0.42, abs=1e-12)

    def test_exact_interpolation_single_column(self):
        Z = np.array([[1.0], [0.0], [1.0], [0.0]])
        y = Z[:, 0].copy()
        exp = fit_surrogate(Z, y, np.ones(4), LimeConfig(ridge_alpha=0.0))
        assert exp.weights[0] == pytest.approx(1.0, abs=1e-10)
        assert exp.intercept == pytest.approx(0.0, abs=1e-10)
        assert exp.fit_quality == pytest.approx(1.0, abs=1e-12)

    def test_ridge_shrinks_monotonically(self):
        rng = np.random.default_rng(11)
        Z = (rng.random((200, 4)) < 0.5).astype(float)
        y = Z @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(0, 0.05, 200)
        w = np.ones(200)
        previous = None
        for alpha in (0.0, 1.0, 10.0, 100.0, 1e4, 1e6):
            exp = fit_surrogate(Z, y, w, LimeConfig(ridge_alpha=alpha))
            magnitudes = np.abs(exp.weights)
            if previous is not None:
                assert np.all(magnitudes <= previous + 1e-9)
            previous = magnitudes
        assert np.all(previous <= 1e-3)  # alpha -> infinity drives weights to 0

    def test_singular_with_zero_alpha(self):
        Z = np.ones((10, 2))
        Z[:5, 0] = 0.0
        Z[:, 1] = Z[:, 0]  # duplicate column -> singular normal equations
        y = np.arange(10.0)
        with pytest.raises(DataError, match="ridge_alpha > 0"):
            fit_surrogate(Z, y, np.ones(10), LimeConfig(ridge_alpha=0.0))

    def test_top_k_truncation(self):
        rng = np.random.default_rng(12)
        Z = (rng.random((300, 8)) < 0.5).astype(float)
        y = Z @ rng.normal(size=8)
        exp = fit_surrogate(Z, y, np.ones(300), LimeConfig(k_features=3))
        assert np.count_nonzero(exp.weights) <= 3

    def test_matches_independent_lstsq_solver(self):
        rng = np.random.default_rng(13)
        Z = (rng.random((250, 5)) < 0.5).astype(float)
        y = Z @ rng.normal(size=5) + rng.normal(0, 0.1, 250)
        w = np.exp(-rng.random(250))
        exp = fit_surrogate(Z, y, w, LimeConfig(ridge_alpha=1.0, k_features=5))
        beta, intercept = oracle_ridge_lstsq(Z, y, w, 1.0)
        assert np.allclose(exp.weights, beta, atol=1e-8)
        assert exp.intercept == pytest.approx(intercept, abs=1e-8)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(14)
        Z = (rng.random((400, 6)) < 0.5).astype(float)
        y = Z @ rng.normal(size=6) + rng.normal(0, 0.2, 400)
        w = np.exp(-((1.0 - Z) ** 2).sum(axis=1) / 4.0)
        config = LimeConfig(ridge_alpha=1.0, k_features=6)
        exp = fit_surrogate(Z, y, w, config)
        base = ridge_objective(Z, y, w, 1.0, exp.weights, exp.intercept)
        for j in np.flatnonzero(exp.weights):
            for delta in (1e-3, -1e-3):
                nudged = exp.weights.copy()
                nudged[j] += delta
                assert ridge_objective(Z, y, w, 1.0, nudged, exp.intercept) >= base

    def test_duplicate_row_weight_split_invariance(self):
        rng = np.random.default_rng(15)
        Z = (rng.random((100, 4)) < 0.5).astype(float)
        y = Z @ rng.normal(size=4) + rng.normal(0, 0.1, 100)
        w = np.exp(-rng.random(100))
        base = fit_surrogate(Z, y, w, LimeConfig(k_features=4))

        Z2 = np.vstack([Z, Z[17]])
        y2 = np.concatenate([y, [y[17]]])
        w2 = w.copy()
        w2[17] /= 2.0
        w2 = np.concatenate([w2, [w2[17]]])
        doubled = fit_surrogate(Z2, y2, w2, LimeConfig(k_features=4))
        assert np.allclose(base.weights, doubled.weights, atol=1e-9)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(400, 8))
    y = (X[:, 0] > 0).astype(int)
    return make_dataset(X, y)


class TestExplainInstance:
    def test_deterministic(self, dataset):
        model = LinearSoftmaxModel(
            np.column_stack([np.zeros(8), np.linspace(-2, 2, 8)])
        )
        config = LimeConfig(n_samples=500, seed=21)
        a = explain_instance(model, dataset, 3, config)
        b = explain_instance(model, dataset, 3, config)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept
        assert a.class_code == b.class_code

    def test_constant_predictor_all_zero_weights(self, dataset):
        model = ConstantModel([0.2, 0.8])
        exp = explain_instance(model, dataset, 0, LimeConfig(n_samples=300, seed=0))
        assert np.allclose(exp.weights, 0.0, atol=1e-12)
        assert exp.intercept == pytest.approx(0.8, abs=1e-12)

    def test_linear_ranking_recovery(self):
        # bin-swap contrast depends on the instance's bin (outer bins swing
        # harder than inner ones), so the clean recovery statement uses an
        # instance whose features all sit in the same bin, with coefficients
        # small enough that the softmax stays in its linear regime
        from scipy.stats import spearmanr

        coefs = np.array([0.36, -0.30, 0.25, -0.20, 0.16, -0.12, 0.08, -0.04])
        rng = np.random.default_rng(1005)
        X = rng.normal(size=(400, 8))
        X[0] = np.quantile(X[1:], 0.9, axis=0)  # top-quartile bin everywhere
        data = make_dataset(X, (X[:, 0] > 0).astype(int))
        model = LinearSoftmaxModel(np.column_stack([np.zeros(8), coefs]))
        config = LimeConfig(n_samples=4000, seed=5, k_features=8)
        exp = explain_instance(model, data, 0, config)
        rho = spearmanr(np.abs(exp.weights),
                        np.abs(coefs) * X.std(axis=0)).statistic
        assert rho >= 0.9

    def test_explains_predicted_class(self, dataset):
        coefs = np.linspace(-2, 2, 8)
        model = LinearSoftmaxModel(np.column_stack([np.zeros(8), coefs]))
        exp = explain_instance(model, dataset, 42,
                               LimeConfig(n_samples=300, seed=1))
        assert exp.class_code == int(model.predict(dataset.X[42:43])[0])

    def test_given_class_is_explained_without_a_prediction(self, dataset):
        model = ConstantModel([0.2, 0.8])
        model.predict = None  # a given class needs no 1-row prediction
        config = LimeConfig(n_samples=300, seed=0)
        exp = explain_instance(model, dataset, 0, config, class_code=0)
        assert exp.class_code == 0
        assert exp.intercept == pytest.approx(0.2, abs=1e-12)
        for code in (-1, 2):
            with pytest.raises(DataError, match=f"class code {code} out of "
                               "range"):
                explain_instance(model, dataset, 0, config, class_code=code)

    def test_n_samples_floor(self, dataset):
        with pytest.raises(ConfigError, match="too small"):
            explain_instance(ConstantModel([1.0, 0.0]), dataset, 0,
                             LimeConfig(n_samples=6, seed=0))

    def test_json_round_trip(self, dataset):
        model = ConstantModel([0.5, 0.5])
        exp = explain_instance(model, dataset, 1, LimeConfig(n_samples=200, seed=2))
        doc = exp.to_json_dict(feature_names=[f"f{j}" for j in range(8)])
        assert doc["instance_index"] == 1
        assert isinstance(doc["weights"], list)

    def test_feature_name_count_must_match(self, dataset):
        exp = explain_instance(ConstantModel([0.5, 0.5]), dataset, 1,
                               LimeConfig(n_samples=200, seed=2))
        for names in (["a"], [f"f{j}" for j in range(9)]):
            with pytest.raises(DataError, match=f"{len(names)} feature names "
                               "for 8 features"):
                exp.to_json_dict(feature_names=names)


# -- frozen oracle: the numeric discretizer and perturbation as they were
# when the discretizer also carried categorical columns and built each
# feature's bin edges on every call

def frozen_fit_discretizer(X_train):
    """(boundaries, lows, highs, frequencies) of the numeric path."""
    X_train = np.asarray(X_train, dtype=float)
    d = X_train.shape[1]
    boundaries = np.zeros((d, 3))
    lows = np.zeros(d)
    highs = np.zeros(d)
    frequencies = []
    for j in range(d):
        x = X_train[:, j]
        boundaries[j] = np.percentile(x, [25.0, 50.0, 75.0])
        lows[j], highs[j] = float(x.min()), float(x.max())
        bins = (x[:, None] > boundaries[j]).sum(axis=-1)
        frequencies.append(np.bincount(bins, minlength=4).astype(float))
    return boundaries, lows, highs, tuple(frequencies)


def frozen_perturb(instance, frozen, n_samples, gen):
    boundaries, lows, highs, frequencies = frozen
    instance = np.asarray(instance, dtype=float)
    d = boundaries.shape[0]
    m = n_samples - 1
    instance_bins = (instance[:, None] > boundaries).sum(axis=-1)
    Z = np.ones((n_samples, d))
    X_pert = np.empty((n_samples, d))
    X_pert[0] = instance
    keep_draw = gen.random((m, d)) < 0.5
    for j in range(d):
        freqs = frequencies[j]
        ibin = int(instance_bins[j])
        alt = freqs.copy()
        if ibin < alt.size:
            alt[ibin] = 0.0
        if alt.sum() == 0.0:
            kept = np.ones(m, dtype=bool)
        else:
            kept = keep_draw[:, j]
        bins = np.full(m, ibin, dtype=np.int64)
        n_swap = int((~kept).sum())
        if n_swap:
            bins[~kept] = gen.choice(alt.size, size=n_swap, p=alt / alt.sum())
        Z[1:, j] = kept
        b = boundaries[j]
        edges = np.array([lows[j], b[0], b[1], b[2], highs[j]])
        X_pert[1:, j] = edges[bins] + gen.random(m) * (edges[bins + 1] - edges[bins])
    return X_pert, Z


def frozen_explain(model, data, index, config):
    frozen = frozen_fit_discretizer(data.X)
    instance = data.X[index]
    target = int(model.predict(instance.reshape(1, -1))[0])
    gen = np.random.default_rng(xor_seed(config.seed, index))
    X_pert, Z = frozen_perturb(instance, frozen, config.n_samples, gen)
    weights = kernel_weights(Z, config.resolve_width(data.n_features))
    y_target = model.predict_proba(X_pert)[:, target]
    return fit_surrogate(Z, y_target, weights, config,
                         instance_index=index, class_code=target)


def assert_c_ordered_float64(*arrays):
    # the model's predict_proba and the surrogate's matrix products round
    # by memory layout, so the outputs' layout is part of their bytes
    for a in arrays:
        assert a.dtype == np.float64 and a.flags.c_contiguous


def oracle_table(seed):
    """Continuous, tied (rounded), integer-coded and constant columns; row 0
    sits on quartile boundaries, row 1 outside the range of rows 2.."""
    rng = np.random.default_rng(seed)
    n = 120
    X = np.column_stack([
        rng.normal(size=n) * 3.0,
        np.round(rng.normal(size=n)),
        rng.integers(0, 3, n).astype(float),
        np.full(n, 2.5),
        rng.exponential(size=n),
    ])
    X[0] = np.percentile(X[2:], 25.0, axis=0)
    X[1] = X[2:].max(axis=0) + 1.0
    X[1, 3] = 2.5
    return X


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_perturb_matches_frozen_oracle_bytewise(seed):
    X = oracle_table(seed)
    for train_rows in (slice(None), slice(2, None)):  # row 1 out of range
        disc = fit_discretizer(X[train_rows])
        frozen = frozen_fit_discretizer(X[train_rows])
        assert disc.boundaries.tobytes() == frozen[0].tobytes()
        assert np.array_equal(disc.frequencies, np.vstack(frozen[3]))
        # 7 samples is explain_instance's floor of d + 2
        for index, n_samples in itertools.product((0, 1, 2, 7), (2, 7, 400)):
            got = perturb(X[index], disc, n_samples,
                          np.random.default_rng(seed))
            want = frozen_perturb(X[index], frozen, n_samples,
                                  np.random.default_rng(seed))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert_c_ordered_float64(*got)


def edge_table(seed):
    """A constant column first (nothing to swap), a spike column whose three
    lower quartiles coincide (bins 1 and 2 empty, so the swap cdf repeats
    entries), a two-valued column (two empty bins), a continuous column
    and a second constant column; row 0 sits on the spike, row 1 above it."""
    rng = np.random.default_rng(seed)
    n = 120
    spike = np.where(np.arange(n) < 96, 1.0, 1.0 + rng.exponential(size=n))
    X = np.column_stack([
        np.full(n, -4.0),
        rng.permutation(spike),
        (rng.random(n) < 0.4).astype(float),
        rng.normal(size=n),
        np.full(n, 7.0),
    ])
    X[0, 1], X[1, 1] = 1.0, 3.0
    return X


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_samples", [2, 3, 7, 400])
def test_perturb_matches_frozen_oracle_on_empty_bins(seed, n_samples):
    X = edge_table(seed)
    disc = fit_discretizer(X)
    frozen = frozen_fit_discretizer(X)
    assert disc.frequencies[1, 1:3].tolist() == [0.0, 0.0]
    assert disc.bin_row(X[0])[1] == 0 and disc.bin_row(X[1])[1] == 3
    assert disc.frequencies[0].tolist() == [120.0, 0.0, 0.0, 0.0]
    for index in range(6):
        got = perturb(X[index], disc, n_samples, np.random.default_rng(seed))
        want = frozen_perturb(X[index], frozen, n_samples,
                              np.random.default_rng(seed))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert_c_ordered_float64(*got)


@pytest.mark.parametrize("counts", [
    [1, 1, 1, 1], [3, 0, 5, 0], [0, 0, 0, 24], [96, 0, 0, 0], [0, 7, 0, 2],
    [2, 9, 4, 13], [0, 1, 0, 0],
])
@pytest.mark.parametrize("size", [1, 2, 5, 1000])
def test_choice_bins_consumes_the_generator_as_choice_does(counts, size):
    alt = np.array(counts, dtype=float)
    p = alt / alt.sum()
    ours, theirs = np.random.default_rng(size), np.random.default_rng(size)
    bins = _choice_bins(p, ours.random(size))
    assert bins.tolist() == theirs.choice(4, size=size, p=p).tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_explain_instance_matches_frozen_oracle_bitwise(seed):
    X = oracle_table(10 + seed)
    data = make_dataset(X, (X[:, 0] + X[:, 4] > 1.0).astype(int))
    model = LinearSoftmaxModel(
        np.column_stack([np.zeros(5), [0.8, -0.5, 0.3, 0.2, -1.0]]))
    config = LimeConfig(n_samples=600, seed=seed, k_features=3)
    for index in (0, 1, 5):
        got = explain_instance(model, data, index, config)
        want = frozen_explain(model, data, index, config)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.intercept == want.intercept
        assert got.fit_quality == want.fit_quality
        assert got.class_code == want.class_code


@pytest.mark.parametrize("n_samples", [2, 9, 400])
def test_perturb_with_nothing_to_swap_keeps_every_row(n_samples):
    # constant columns hold every feature's training mass in the
    # instance's bin, so no row can swap, yet every uniform is still drawn
    X = np.tile([-4.0, 0.0, 2.5, 7.0, 1e300], (40, 1))
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    X_pert, Z = perturb(X[0], fit_discretizer(X), n_samples, ours)
    want = frozen_perturb(X[0], frozen_fit_discretizer(X), n_samples, theirs)
    assert X_pert.tobytes() == want[0].tobytes()
    assert Z.tobytes() == want[1].tobytes()
    assert np.all(Z == 1.0) and np.all(X_pert == X[0])
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert_c_ordered_float64(X_pert, Z)


def row_sum_kernel_weights(Z, kernel_width):
    """kernel_weights with D^2 as numpy's pairwise row sum."""
    return np.exp(-((1.0 - Z) ** 2).sum(axis=1) / kernel_width**2)


@pytest.mark.parametrize("d", [1, 7, 8, 9, 18, 129])
def test_kernel_weights_equal_the_row_sum_on_binary_z(d):
    Z = (np.random.default_rng(d).random((600, d)) < 0.5).astype(float)
    Z[0], Z[1] = 1.0, 0.0
    for width in (0.3, 0.75 * math.sqrt(d), 25.0):
        got = kernel_weights(Z, width)
        assert np.array_equal(got, row_sum_kernel_weights(Z, width))


@pytest.mark.parametrize("d", [1, 7, 8, 9, 18, 129])
def test_kernel_weights_agree_with_the_row_sum_on_real_valued_z(d):
    # Z in [0, 1) and widths >= sqrt(d) keep the exponent within [-1, 0], so
    # the two sums' relative rounding difference bounds the weights'
    Z = np.random.default_rng(100 + d).random((600, d))
    for width in math.sqrt(d) * np.array([1.0, 2.0, 4.0]):
        np.testing.assert_allclose(kernel_weights(Z, width),
                                   row_sum_kernel_weights(Z, width),
                                   rtol=1e-15, atol=0.0)
