import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from driverlens.data import Dataset
from driverlens.errors import ConfigError, DataError
from driverlens.models import (
    ALGORITHMS,
    REGISTRY,
    ModelSpec,
    neighbors,
    train,
)
from driverlens.models import bayes, ensemble, linear
from driverlens.models import tree as tree_module
from driverlens.models.base import _class_softmax, _leading_sum
from driverlens.preprocess import random_oversample
from driverlens.rng import xor_seed
from driverlens.synth import SynthSpec, synth_generate
from reference_trees import (assert_same_fit, forest_arrays, forest_trees,
                             model_trees, reference_forest_tree, voting, walk)

ORDER_FREE = ("KNN", "GNB", "MNB", "LDA", "QDA")

# small hyperparameters so the whole zoo trains fast in contract tests
FAST = {
    "RFC": {"n_trees": 10},
    "ETC": {"n_trees": 10},
    "GBC": {"n_rounds": 10},
    "ABC": {"n_rounds": 10},
    "LR": {"max_iter": 50},
}


@pytest.fixture(scope="module")
def training_data():
    data = synth_generate(SynthSpec(n_rows=150, n_features=5, n_informative=3,
                                    separation=2.0, seed=5))
    X = (data.X - data.X.mean(axis=0)) / data.X.std(axis=0)
    return X, data.y


def fit(alg, X, y, seed=0):
    return train(ModelSpec(alg, FAST.get(alg, {}), seed=seed), X, y)


@pytest.mark.parametrize("alg", ALGORITHMS)
class TestContract:
    def test_proba_rows_on_simplex(self, alg, training_data):
        X, y = training_data
        proba = fit(alg, X, y).predict_proba(X)
        assert proba.shape == (X.shape[0], 3)
        assert np.all(proba >= 0.0)
        assert np.all(np.abs(proba.sum(axis=1) - 1.0) <= 1e-9)

    def test_predict_is_argmax_of_proba(self, alg, training_data):
        X, y = training_data
        model = fit(alg, X, y)
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(100, X.shape[1]))
        assert np.array_equal(model.predict(grid),
                              np.argmax(model.predict_proba(grid), axis=1))

    def test_deterministic_given_seed(self, alg, training_data):
        X, y = training_data
        a = fit(alg, X, y, seed=9)
        b = fit(alg, X, y, seed=9)
        grid = np.random.default_rng(1).normal(size=(50, X.shape[1]))
        assert np.array_equal(a.predict_proba(grid), b.predict_proba(grid))

    def test_serialization_bit_exact(self, alg, training_data):
        # a fitted model holds only plain state: a pickled copy (as a
        # process pool would move it) keeps every fitted array and bit
        X, y = training_data
        model = fit(alg, X, y, seed=3)
        clone = pickle.loads(pickle.dumps(model))
        assert_same_fit(clone, model)
        grid = np.random.default_rng(2).normal(size=(50, X.shape[1]))
        original = model.predict_proba(grid)
        restored = clone.predict_proba(grid)
        assert np.array_equal(original, restored)  # bit-exact, no tolerance

    def test_dimension_mismatch_rejected(self, alg, training_data):
        X, y = training_data
        model = fit(alg, X, y)
        with pytest.raises(DataError, match="features"):
            model.predict(np.zeros((4, X.shape[1] + 2)))

    def test_single_class_rejected(self, alg):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(DataError):
            fit(alg, X, np.zeros(10, dtype=int))

    def test_missing_class_code_rejected(self, alg):
        X = np.random.default_rng(0).normal(size=(12, 3))
        y = np.array([0, 2] * 6)  # class 1 absent
        with pytest.raises(DataError, match="absent"):
            fit(alg, X, y)

    @pytest.mark.parametrize("y", [
        [0.5, 1, 0, 1] * 3,            # 0.5 used to train as class 0
        [-1, 1, 0, 1] * 3,             # a raw ValueError from bincount
        [0, 1, 0, np.nan] * 3,
        [0, 1, 0, 2.0**70] * 3,
        ["0", "1", "0", "1"] * 3,
        [[0, 1]] * 12,
    ], ids=["fraction", "negative", "nan", "huge", "strings", "2-d"])
    def test_non_code_labels_rejected(self, alg, y):
        X = np.random.default_rng(0).normal(size=(12, 3))
        message = f"{alg}: y must be a 1-d vector of non-negative integer"
        with pytest.raises(DataError, match=message):
            fit(alg, X, y)

    def test_integral_float_labels_are_codes(self, alg):
        X = np.random.default_rng(0).normal(size=(12, 3))
        y = np.array([0, 1, 2] * 4)
        want = fit(alg, X, y).predict_proba(X)
        assert np.array_equal(fit(alg, X, y.astype(float)).predict_proba(X),
                              want)


@pytest.mark.parametrize("alg", ORDER_FREE)
def test_row_permutation_robustness(alg, training_data):
    X, y = training_data
    rng = np.random.default_rng(7)
    perm = rng.permutation(X.shape[0])
    grid = rng.normal(size=(80, X.shape[1]))
    base = fit(alg, X, y).predict(grid)
    shuffled = fit(alg, X[perm], y[perm]).predict(grid)
    assert np.array_equal(base, shuffled)


def test_unknown_hyperparameter_rejected():
    with pytest.raises(ConfigError, match="unknown hyperparameter") as spec_error:
        ModelSpec("RFC", {"n_estimators": 10})
    with pytest.raises(ConfigError) as model_error:
        REGISTRY["RFC"](n_estimators=10)
    assert str(spec_error.value) == str(model_error.value)
    with pytest.raises(ConfigError, match="unknown algorithm"):
        ModelSpec("SVM")


@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_needs_at_least_one_tree(alg):
    with pytest.raises(ConfigError, match=f"{alg}: n_trees must be >= 1, got 0"):
        ModelSpec(alg, {"n_trees": 0})
    with pytest.raises(ConfigError, match="n_trees must be >= 1, got -2"):
        REGISTRY[alg](n_trees=-2)
    assert ModelSpec(alg, {"n_trees": 1}).build().params["n_trees"] == 1


def test_every_hyperparameter_has_a_range_that_its_default_meets():
    for alg, cls in REGISTRY.items():
        assert set(cls.RANGES) == set(cls.DEFAULTS), alg
        cls.check_hyperparameters(cls.DEFAULTS)


@pytest.mark.parametrize("alg,params", [
    ("LR", {"l2": 0.0, "max_iter": 1, "tol": 0.0}), ("KNN", {"k": 1}),
    ("DTC", {"max_depth": 1, "min_samples_split": 2}), ("GBC", {"max_depth": None}),
    ("GNB", {"var_smoothing": 0.0}), ("QDA", {"ridge": 0.0}),
])
def test_hyperparameters_on_the_edge_of_their_range_are_accepted(alg, params):
    assert ModelSpec(alg, params).build().params == {**REGISTRY[alg].DEFAULTS,
                                                     **params}


@pytest.mark.parametrize("alg,key,bad", [
    ("LR", "step_size", float("nan")), ("LR", "tol", float("inf")),
    ("GBC", "learning_rate", float("inf")), ("MNB", "alpha", "1.0"),
    ("DTC", "max_depth", "3"), ("RFC", "min_samples_split", None),
])
def test_non_finite_or_non_numeric_hyperparameters_are_rejected(alg, key, bad):
    with pytest.raises(ConfigError, match=f"{alg}: {key} must be "):
        ModelSpec(alg, {key: bad})
    with pytest.raises(ConfigError, match=f"{alg}: {key} must be "):
        REGISTRY[alg](**{key: bad})


class TestKnn:
    def test_k1_memorizes_training_rows(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        y[:3] = [0, 1, 2]
        model = train(ModelSpec("KNN", {"k": 1}, 0), X, y)
        assert np.array_equal(model.predict(X), y)

    def test_vote_fractions(self):
        # five nearest neighbors vote 0,0,0,1,1 for the query at the origin
        X = np.array([[0.1], [0.2], [0.3], [0.4], [0.5], [9.0], [9.1]])
        y = np.array([0, 0, 0, 1, 1, 1, 0])
        model = train(ModelSpec("KNN", {"k": 5}, 0), X, y)
        proba = model.predict_proba(np.array([[0.0]]))
        assert proba[0].tolist() == [0.6, 0.4]

    def test_distance_tie_lower_row_index(self):
        # rows 0 and 1 are equidistant duplicates with different labels;
        # k=1 must pick row 0
        X = np.array([[1.0], [1.0], [5.0]])
        y = np.array([1, 0, 0])
        model = train(ModelSpec("KNN", {"k": 1}, 0), X, y)
        assert model.predict(np.array([[1.0]]))[0] == 1

    def test_vote_tie_lower_class_code(self):
        X = np.array([[0.0], [2.0], [10.0], [12.0]])
        y = np.array([1, 0, 0, 1])
        model = train(ModelSpec("KNN", {"k": 2}, 0), X, y)
        # neighbors of 1.0 are rows 0 and 1: one vote each -> class 0
        assert model.predict(np.array([[1.0]]))[0] == 0

    def test_k_exceeding_rows_rejected(self):
        X = np.zeros((3, 1))
        X[:, 0] = [0, 1, 2]
        with pytest.raises(DataError, match="k=5"):
            train(ModelSpec("KNN", {"k": 5}, 0), X, np.array([0, 1, 0]))


def knn_reference(model, Q):
    """Vote fractions from a full stable argsort of each row's distances."""
    k = model.params["k"]
    diff = Q[:, None, :] - model.X_[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    proba = np.empty((Q.shape[0], model.n_classes_))
    for i in range(Q.shape[0]):
        nearest = np.argsort(dist2[i], kind="stable")[:k]
        proba[i] = np.bincount(model.y_[nearest], minlength=model.n_classes_) / k
    return proba


class TestKnnOracle:
    """predict_proba equals the stable-argsort reference exactly."""

    N_TRAIN, D = 60, 3

    @pytest.fixture(scope="class")
    def tied(self):
        # integer features in 0..2 with duplicated rows: distances tie often
        rng = np.random.default_rng(21)
        X = rng.integers(0, 3, size=(self.N_TRAIN, self.D)).astype(float)
        X[40:] = X[:20]
        y = rng.integers(0, 3, size=self.N_TRAIN)
        y[:3] = [0, 1, 2]
        Q = rng.integers(-1, 4, size=(50, self.D)).astype(float)
        Q[:10] = X[:10]
        Q[10] = np.nan
        Q[11, 1] = np.nan
        Q[12, 0] = np.inf
        Q[13] = [-np.inf, np.inf, 0.0]
        return X, y, Q

    # 1-row blocks, 7-row blocks with a short last block, and the default
    @pytest.mark.parametrize("budget", [1, 8 * N_TRAIN * D * 7, None],
                             ids=["one-row", "seven-rows", "default"])
    @pytest.mark.parametrize("k", [1, 2, 5, N_TRAIN])
    def test_matches_stable_argsort(self, tied, k, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(neighbors, "_BUDGET", budget)
        X, y, Q = tied
        model = train(ModelSpec("KNN", {"k": k}, 0), X, y)
        assert np.array_equal(model.predict_proba(Q), knn_reference(model, Q))

    def test_continuous_features(self, monkeypatch):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(300, 5))
        y = rng.integers(0, 4, size=300)
        y[:4] = [0, 1, 2, 3]
        Q = rng.normal(size=(90, 5))
        model = train(ModelSpec("KNN", {"k": 7}, 0), X, y)
        expected = knn_reference(model, Q)
        assert np.array_equal(model.predict_proba(Q), expected)
        monkeypatch.setattr(neighbors, "_BUDGET", 8 * 300 * 5 * 4)
        assert np.array_equal(model.predict_proba(Q), expected)


def test_knn_predict_memory_is_bounded_by_budget():
    # at 256 rows per block this predict peaked near 130 MB; a block must
    # now stay within _BUDGET, with room for the distances and the selection
    rng = np.random.default_rng(23)
    X = rng.normal(size=(4000, 16))
    y = rng.integers(0, 3, size=4000)
    model = train(ModelSpec("KNN", {"k": 5}, 0), X, y)
    Q = rng.normal(size=(300, 16))
    tracemalloc.start()
    try:
        model.predict_proba(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * neighbors._BUDGET


class TestTreeModels:
    def test_dtc_separable_points(self):
        X = np.array([[0.0, 0.0], [0.1, 0.2], [5.0, 5.0], [5.1, 4.9]])
        y = np.array([0, 0, 1, 1])
        model = fit("DTC", X, y)
        assert np.array_equal(model.predict(X), y)

    def test_dtc_memorizes_consistent_data(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 3, size=60)
        y[:3] = [0, 1, 2]
        model = fit("DTC", X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_rfc_vote_fraction(self):
        # three one-leaf stub trees, as one array set, voting (0, 0, 1)
        # -> probability (2/3, 1/3), class 0
        model = REGISTRY["RFC"](seed=0, n_trees=3)
        model.n_features_ = 1
        model.n_classes_ = 2
        model.feature_ = model.left_ = np.full(3, -1)
        model.threshold_ = np.zeros(3)
        model.vote_ = np.array([0, 0, 1])
        model.roots_ = np.arange(3)
        proba = model.predict_proba(np.array([[0.0]]))
        assert proba[0].tolist() == [2 / 3, 1 / 3]
        assert model.predict(np.array([[0.0]]))[0] == 0

    def test_gbc_training_deviance_non_increasing(self, training_data):
        X, y = training_data
        model = train(ModelSpec("GBC", {"n_rounds": 30}, 0), X, y)
        deviance = np.array(model.train_deviance_)
        assert deviance.size == 31
        assert np.all(np.diff(deviance) <= 1e-12)

    def test_abc_perfect_stump_stops_early(self):
        X = np.array([[-2.0], [-1.5], [2.0], [1.5]])
        y = np.array([0, 0, 1, 1])
        model = fit("ABC", X, y)
        assert len(model.stumps_) == 1
        assert np.array_equal(model.predict(X), y)

    def test_abc_without_a_stump_predicts_its_priors(self):
        # on one constant column every stump errs at the random-guess level
        # 1/2, so none is kept and the model predicts the class priors
        X = np.ones((6, 1))
        y = np.array([0, 1, 0, 1, 1, 0])
        model = fit("ABC", X, y)
        assert model.stumps_.shape == (0,)
        assert model.alphas_ == []
        proba = model.predict_proba(np.array([[0.0], [3.0]]))
        assert proba.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_abc_multiclass_improves_over_one_stump(self, training_data):
        X, y = training_data
        boosted = train(ModelSpec("ABC", {"n_rounds": 25}, 0), X, y)
        stump = train(ModelSpec("DTC", {"max_depth": 1}, 0), X, y)
        acc_boosted = (boosted.predict(X) == y).mean()
        acc_stump = (stump.predict(X) == y).mean()
        assert acc_boosted > acc_stump

    def test_ensemble_seed_changes_trees(self, training_data):
        # adjacent small seeds can XOR into the same per-tree seed set, which
        # merely permutes the forest; distant seeds must differ
        X, y = training_data
        a = fit("RFC", X, y, seed=0)
        b = fit("RFC", X, y, seed=99991)
        grid = np.random.default_rng(3).normal(size=(200, X.shape[1]))
        assert not np.array_equal(a.predict_proba(grid), b.predict_proba(grid))


def forest_reference(alg, X, y, seed, params):
    """The forest grown by its own loop: one tree grown alone per
    xor_seed(seed, i), on the bootstrap draw that comes first in the tree's
    stream for RFC and on every row for ETC."""
    return [reference_forest_tree(
        X, y, int(y.max()) + 1, xor_seed(seed, i),
        max(1, math.isqrt(X.shape[1])),
        splitter="best" if alg == "RFC" else "random",
        bootstrap=alg == "RFC", max_depth=params["max_depth"],
        min_samples_split=params["min_samples_split"])
        for i in range(params["n_trees"])]


def assert_forest_is_its_loop(alg, params, n_classes, X=None, y=None):
    """The forest trained on (X, y), by default 90 rows of 6 features
    with ties and n_classes classes, equals one tree grown alone per seed,
    bit for bit, and predicts their vote fractions."""
    rng = np.random.default_rng(20 + n_classes)
    if X is None:
        X = np.round(rng.normal(size=(90, 6)), 1)  # ties
        y = np.arange(90) % n_classes
    model = train(ModelSpec(alg, params, 11), X, y)
    trees = forest_reference(alg, X, y, 11, model.params)

    # a forest keeps its node arrays, one vote per node, and nothing else
    # per node: no class distribution
    fitted = {key for key in vars(model) if key.endswith("_")}
    assert fitted == {"n_features_", "n_classes_", "feature_", "threshold_",
                      "left_", "vote_", "roots_"}
    assert model.vote_.dtype == np.int64
    assert_same_fit(forest_trees(forest_arrays(model),
                                 model.params["max_depth"],
                                 model.params["min_samples_split"]),
                    [voting(tree) for tree in trees])
    grid = rng.normal(size=(200, X.shape[1]))
    votes = np.zeros((200, n_classes))
    for tree in trees:
        vote = tree.value.argmax(axis=1)[walk(tree, grid)]
        votes[np.arange(200), vote] += 1.0
    want = votes / len(trees)
    assert np.array_equal(model.predict_proba(grid), want)


@pytest.mark.parametrize("params", [{"n_trees": 12},
                                    {"n_trees": 7, "max_depth": 3,
                                     "min_samples_split": 5}],
                         ids=["default", "shallow"])
@pytest.mark.parametrize("n_classes", [2, 4])
def test_etc_matches_its_own_loop_bitwise(params, n_classes):
    assert_forest_is_its_loop("ETC", params, n_classes)


@pytest.mark.parametrize("budget", [None, 8 * 90 * 3, 1],
                         ids=["default-budget", "groups-of-3", "one-node-blocks"])
@pytest.mark.parametrize("params", [{"n_trees": 1},
                                    {"n_trees": 7},
                                    {"n_trees": 5, "max_depth": 4,
                                     "min_samples_split": 9}],
                         ids=["one-tree", "seven-trees", "shallow"])
@pytest.mark.parametrize("n_classes", [2, 4, 8])
@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_matches_per_tree_fits_bitwise(alg, n_classes, params, budget,
                                              monkeypatch):
    # a step chunk holds _BUDGET // 8 rows, and a block
    # _BUDGET // (8 * candidates * rows) nodes: at 8 * 90 * 3 the seven
    # 90-row roots fall in chunks of 3, 3 and 1, and a budget of 1 makes
    # every chunk and every block one node and gives _Draws its shortest
    # word rows; 8 classes sum in pairwise blocks, and adding them left to
    # right changes RFC-8-seven-trees
    if budget is not None:
        monkeypatch.setattr(tree_module, "_BUDGET", budget)
    assert_forest_is_its_loop(alg, params, n_classes)


def copied_table(n_classes):
    """A table random_oversample has filled with copies: 60 rows of 6
    features, 45 of them class 0, oversampled until every class matches
    it, so a third of its rows (2 classes) or more are copies. Rows 8-15
    repeat rows 0-7 but for feature 0, -0.0 where rows 0-7 hold 0.0, so a
    forest must keep them apart."""
    rng = np.random.default_rng(40 + n_classes)
    X = np.round(rng.normal(size=(60, 6)), 1)
    y = np.zeros(60, dtype=np.int64)
    y[45:] = np.arange(15) % (n_classes - 1) + 1
    X[8:16], y[8:16] = X[:8], y[:8]
    X[:8, 0], X[8:16, 0] = 0.0, -0.0
    data = random_oversample(
        Dataset(X, y, tuple(f"f{j}" for j in range(6)),
                tuple(map(str, range(n_classes)))), 7)
    return data.X, data.y


@pytest.mark.parametrize("budget", [None, 1],
                         ids=["default-budget", "one-node-blocks"])
@pytest.mark.parametrize("params", [{"n_trees": 7},
                                    {"n_trees": 5, "max_depth": 4,
                                     "min_samples_split": 9}],
                         ids=["seven-trees", "shallow"])
@pytest.mark.parametrize("n_classes", [2, 4, 8])
@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_on_copied_rows_matches_per_tree_fits_bitwise(
        alg, n_classes, params, budget, monkeypatch):
    # each tree grows on its distinct rows weighted by their copies; the
    # references grow on every copy
    X, y = copied_table(n_classes)
    rows = tree_module._distinct_rows(X, y)[0]
    assert X.shape[0] >= 1.5 * rows.size  # a third of the rows or more
    if budget is not None:
        monkeypatch.setattr(tree_module, "_BUDGET", budget)
    assert_forest_is_its_loop(alg, params, n_classes, X, y)


@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_on_a_row_of_300_copies_matches_per_tree_fits_bitwise(
        alg, monkeypatch):
    # row 0 and its 300 copies: a uint8 holds at most 255 copies, so the
    # row takes two entries. Column 1 holds 0.0 and -0.0, which tie, and
    # column 3 repeats column 0, so their cuts tie and the lower feature
    # wins. 300 trees at a depth and split limit put more than 256 nodes
    # in one of RFC's blocks, past a uint8 node id
    rng = np.random.default_rng(41)
    X = np.round(rng.normal(size=(340, 4)), 1)
    y = np.arange(340) % 2
    X[:, 3] = X[:, 0]
    X[1:40:2, 1], X[2:40:2, 1] = 0.0, -0.0
    X[40:], y[40:] = X[0], y[0]
    _, copies = tree_module._entries(*tree_module._distinct_rows(X, y)[::2])
    assert sorted(copies.tolist())[-2:] == [46, 255]
    assert_forest_is_its_loop(alg, {"n_trees": 5}, 2, X, y)
    kernel, nodes = tree_module._best_block, []

    def counted(*block):
        nodes.append(block[6].shape[0])  # cand: one row per node
        return kernel(*block)

    monkeypatch.setattr(tree_module, "_best_block", counted)
    assert_forest_is_its_loop(alg, {"n_trees": 300, "max_depth": 3,
                                    "min_samples_split": 6}, 2, X, y)
    assert (max(nodes, default=0) > 256) == (alg == "RFC")


def test_distinct_rows_are_equal_in_every_byte_and_the_label():
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 1.0],
                  [0.0, 1.0 + 2**-52]])
    y = np.array([0, 0, 0, 1, 0])
    rows, inverse, copies = tree_module._distinct_rows(X, y)
    assert sorted(zip(rows.tolist(), copies.tolist())) == [
        (0, 2), (1, 1), (3, 1), (4, 1)]
    assert rows[inverse].tolist() == [0, 1, 0, 3, 4]
    ids, weight = tree_module._entries(np.array([5, 7, 9]),
                                       np.array([3, 600, 255]))
    assert (ids.dtype, weight.dtype) == (np.int32, np.uint8)
    assert ids.tolist() == [5, 7, 7, 7, 9]
    assert weight.tolist() == [3, 255, 255, 90, 255]


def test_weight_tables_match_numpys_sums_of_equal_weights():
    # S is built by numpy's pairwise rule; the oracle is the table as it was,
    # one sum per prefix: every row count to 2,000 crosses the rule's
    # boundaries at 8, 128 and each split above, and the larger counts are
    # bench and paper sizes
    for n in [*range(1, 2001), 5632, 11314, 20000]:
        Q, S = tree_module._weight_tables(n)
        w = np.full(n, 1.0 / n)
        assert Q.tobytes() == np.concatenate(([0.0], np.cumsum(w))).tobytes()
        oracle = np.array([w[:k].sum() for k in range(n + 1)])
        assert S.tobytes() == oracle.tobytes(), n


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 20_000), C=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1))
def test_vote_is_the_argmax_of_the_class_distribution(n, C, seed):
    # a forest node's vote is counts.argmax(axis=1); the class distribution
    # it replaces, Q[counts] over its row sum, has the same argmax, ties to
    # the lowest class included: Q is strictly increasing, and dividing by
    # one positive sum keeps the order. From 8 classes numpy adds the row
    # sum pairwise.
    Q = tree_module._weight_tables(n)[0]
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, n + 1, size=(60, C))
    # rows of two adjacent counts, so most rows tie at their maximum
    counts[:30] = rng.integers(1, n + 1, size=(30, 1)) - rng.integers(
        0, 2, size=(30, C))
    counts[counts.sum(axis=1) == 0, 0] = 1  # a node holds at least one row
    distribution = Q[counts] / Q[counts].sum(axis=1, keepdims=True)
    assert np.array_equal(counts.argmax(axis=1),
                          distribution.argmax(axis=1))


def assert_forest_fit_memory_is_bounded(alg, X, y):
    for n_trees in (10, 200):
        tracemalloc.start()
        try:
            model = train(ModelSpec(alg, {"n_trees": n_trees}, 0), X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in forest_arrays(model))
        assert peak - kept <= 24 * tree_module._BUDGET, n_trees


@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_fit_memory_is_bounded_by_budget(alg):
    # one lockstep pass, with step chunks and blocks of nodes sized by
    # _BUDGET, each tree's distinct rows as int32 ids with uint8 copies,
    # int32 node records and one shared word buffer, peaks 4.7 and 13.0
    # budgets (RFC, 10 and 200 trees) and 3.7 and 13.1 (ETC) above the
    # trees it returns; with unbounded steps, int64 ids and 48-byte
    # records, 200 trees read 32.6 (RFC) and 37.9 (ETC)
    rng = np.random.default_rng(29)
    X = rng.normal(size=(400, 4))
    y = np.digitize(X[:, 0] + 0.3 * rng.normal(size=400), [-0.5, 0.5])
    assert_forest_fit_memory_is_bounded(alg, X, y)


@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_fit_memory_on_copied_rows_is_bounded_by_budget(alg):
    # the bound above on 300 rows of classes 60:30:10, oversampled to 540
    # rows, 240 of them copies: 3.9 and 8.9 budgets (RFC) and 2.8 and
    # 13.2 (ETC)
    X = np.random.default_rng(29).normal(size=(300, 4))
    y = np.repeat([0, 1, 2], [180, 90, 30])
    data = random_oversample(Dataset(X, y, ("a", "b", "c", "d"),
                                     ("0", "1", "2")), 3)
    assert data.n_rows == 540
    assert_forest_fit_memory_is_bounded(alg, data.X, data.y)


@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_fit_peak_grows_linearly_in_trees_and_rows(alg):
    # g(n): how much a forest fit's tracemalloc peak grows from 10 to 100
    # trees at n rows. g(100) is at most 12 budgets, for blocks that 100
    # trees fill and 10 may not, plus 32 bytes per added tree and row; from
    # n to 4n rows g grows by at most 32 bytes per added tree and added
    # row, each tree's node arrays, node records and 5-byte entries.
    # Measured: g(100) 7.8 budgets (RFC) and 6.3 (ETC); g(400) - g(100) 12
    # and 24 bytes per added tree and row, at 0.27 and 0.84 nodes a row
    growth = []
    for n in (100, 400):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(n, 4))
        y = np.digitize(X[:, 0] + 0.3 * rng.normal(size=n), [-0.5, 0.5])
        peak = []
        for n_trees in (10, 100):
            tracemalloc.start()
            try:
                train(ModelSpec(alg, {"n_trees": n_trees}, 0), X, y)
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth.append(peak[1] - peak[0])
    assert growth[0] <= 12 * tree_module._BUDGET + 32 * 90 * 100
    assert growth[1] - growth[0] <= 32 * 90 * 300


@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_first_trees_of_a_forest_equal_the_smaller_forest(alg):
    # a tree's draws and node ids do not depend on how many trees grow
    # beside it: 60 trees at 400 rows, past the 40 that _BUDGET // (8 * 400)
    # once grew together, against 7 and 45 trees on the same seed
    rng = np.random.default_rng(33)
    X = rng.normal(size=(400, 6))
    y = np.digitize(X[:, 0] + 0.5 * rng.normal(size=400), [-0.5, 0.5])

    def trees(n_trees):
        model = train(ModelSpec(alg, {"n_trees": n_trees}, 8), X, y)
        return forest_trees(forest_arrays(model))

    whole = trees(60)
    for k in (7, 45):
        assert_same_fit(whole[:k], trees(k))


def test_forest_refuses_more_values_than_its_int32_ids_reach():
    # row and node ids are int32; a broadcast X holds 2**30 values in 8 bytes
    X = np.broadcast_to(0.0, (2**15, 2**15))
    with pytest.raises(DataError, match=r"fewer than 2\*\*30 values"):
        tree_module.grow_forest(X, np.arange(2**15) % 2, 2, [0], None)


def plain(value):
    """Whether value is fitted state a process pool could move as is: a
    numeric ndarray, None, a bool, int, float or str, or a list, tuple or
    dict of those."""
    if isinstance(value, (list, tuple)):
        return all(plain(v) for v in value)
    if isinstance(value, dict):
        return all(plain(k) and plain(v) for k, v in value.items())
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biuf"
    return value is None or isinstance(value, (bool, int, float, str))


@pytest.mark.parametrize("alg", ["DTC", "RFC", "ETC", "GBC", "ABC"])
def test_tree_models_hold_only_arrays_and_plain_values(alg, training_data):
    # every tree model keeps its trees as one set of node arrays, no tree
    # object, so a pickled copy predicts the same bytes
    X, y = training_data
    model = fit(alg, X, y, seed=3)
    odd = [key for key, value in vars(model).items() if not plain(value)]
    assert odd == []
    clone = pickle.loads(pickle.dumps(model))
    grid = np.random.default_rng(4).normal(size=(50, X.shape[1]))
    want = model.predict_proba(grid)
    assert clone.predict_proba(grid).tobytes() == want.tobytes()


# how much the per-row tracemalloc peak of one fit and one predict_proba,
# above the arrays the fitted model keeps, may rise from n to 4n rows: 1.1
# leaves room for allocator noise and still fails n log n growth, which
# reads 4 log 4n / log n = 4.9 times the bytes at n = 400
ROW_GROWTH = 1.1


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_fit_and_predict_memory_grows_at_most_linearly(alg):
    def extra(n):
        data = synth_generate(SynthSpec(n_rows=n, n_features=8,
                                        n_informative=4, separation=1.0,
                                        seed=5))
        tracemalloc.start()
        try:
            model = fit(alg, data.X, data.y)
            model.predict_proba(data.X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in vars(model).values()
                   if isinstance(a, np.ndarray))
        return peak - kept

    n = 400
    small, large = extra(n), extra(4 * n)
    assert large / (4 * n) <= ROW_GROWTH * small / n, (small, large)


def lda_reference_proba(model, X):
    """LDA's posterior from one pooled precision and log-determinant."""
    precision = np.linalg.inv(model.covariance_)
    _, logdet = np.linalg.slogdet(model.covariance_)
    d = X.shape[1]
    scores = np.empty((X.shape[0], model.n_classes_))
    for c in range(model.n_classes_):
        diff = X - model.means_[c]
        quad = np.einsum("ij,jk,ik->i", diff, precision, diff)
        scores[:, c] = (np.log(model.priors_[c])
                        - 0.5 * (quad + logdet + d * float(np.log(2.0 * np.pi))))
    return frozen_softmax(scores)


@pytest.mark.parametrize("n_classes,d", [(2, 1), (3, 4), (5, 7)])
def test_lda_matches_pooled_precision_bitwise(n_classes, d):
    rng = np.random.default_rng(40 + d)
    X = rng.normal(size=(120, d)) + np.arange(120)[:, None] % n_classes
    y = np.arange(120) % n_classes
    model = train(ModelSpec("LDA", {}, 0), X, y)
    assert model.covariance_.shape == (d, d)  # one matrix, pooled
    grid = rng.normal(size=(150, d)) * 2.0
    want = lda_reference_proba(model, grid)
    assert np.array_equal(model.predict_proba(grid), want)


# -- frozen kernels: the class-axis reductions as they were before the
# class-major scores (numpy's axis-1 max and sum over (n, C) rows), the
# single-pass LR descent before its flat label gather and cumsum intercept
# gradient, and GNB's predict before it reused one buffer

def frozen_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def frozen_class_softmax(scores):
    """frozen_softmax on class-major (C, n) scores, in their layout."""
    return frozen_softmax(np.ascontiguousarray(scores.T)).T


def frozen_leading_sum(A):
    return np.ascontiguousarray(A.T).sum(axis=1)


def frozen_lr_fit(self, X, y):
    n, d = X.shape
    C = self.n_classes_
    onehot = np.zeros((n, C))
    onehot[np.arange(n), y] = 1.0
    W = np.zeros((d, C))
    b = np.zeros(C)
    step = self.params["step_size"]
    l2 = self.params["l2"]

    def forward():
        logits = X @ W + b
        top = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - top)
        norm = exp.sum(axis=1, keepdims=True)
        log_norm = np.log(norm[:, 0]) + top[:, 0]
        nll = float(np.mean(log_norm - logits[np.arange(n), y]))
        return nll + 0.5 * l2 * float(np.sum(W**2)), exp / norm

    loss, proba = forward()
    self.loss_history_ = [loss]
    for _ in range(self.params["max_iter"]):
        err = proba - onehot
        grad_W = X.T @ err / n + l2 * W
        grad_b = err.mean(axis=0)
        norm = float(np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2)))
        if norm < self.params["tol"]:
            break
        W = W - step * grad_W
        b = b - step * grad_b
        loss, proba = forward()
        self.loss_history_.append(loss)
    self.weights_ = W
    self.intercept_ = b


def frozen_gnb_predict_proba(self, X):
    scores = np.empty((X.shape[0], self.n_classes_))
    for c in range(self.n_classes_):
        log_density = -0.5 * (
            bayes._LOG_2PI + np.log(self.var_[c])
            + (X - self.theta_[c]) ** 2 / self.var_[c]
        )
        scores[:, c] = np.log(self.priors_[c]) + log_density.sum(axis=1)
    return frozen_softmax(scores).T


def frozen_gbc_deviance(scores, y):
    scores = np.ascontiguousarray(scores.T)  # (n, C)
    log_norm = np.log(np.exp(scores - scores.max(axis=1, keepdims=True))
                      .sum(axis=1)) + scores.max(axis=1)
    return float(np.mean(log_norm - scores[np.arange(y.size), y]))


def frozen_abc_predict_proba(self, X):
    n = X.shape[0]
    if not self.stumps_.size:
        return np.tile(self.priors_, (n, 1)).T
    scores = np.zeros((n, self.n_classes_))
    rows = np.arange(n)
    for alpha, stump in zip(self.alphas_, model_trees(self)):
        scores[rows, stump.vote[walk(stump, X)]] += alpha
    return (scores / scores.sum(axis=1, keepdims=True)).T


def frozen_softmax_nll(scores, y):
    """GBC's deviance and the softmax as they were: two passes."""
    return frozen_gbc_deviance(scores, y), frozen_class_softmax(scores)


def freeze_kernels(patch):
    """Put the frozen kernels in place, through a monkeypatch context: every
    class-axis reduction each model module calls, and the whole LR descent,
    GNB predict, GBC deviance and ABC predict as they were."""
    frozen = {"_class_softmax": frozen_class_softmax,
              "_leading_sum": frozen_leading_sum,
              "_softmax_nll": frozen_softmax_nll}
    # each module's imports of them; setattr raises on a name it lacks
    for module, names in ((linear, ("_class_softmax", "_softmax_nll")),
                          (bayes, ("_class_softmax", "_leading_sum")),
                          (ensemble, ("_class_softmax", "_leading_sum",
                                      "_softmax_nll"))):
        for name in names:
            patch.setattr(module, name, frozen[name])
    patch.setattr(linear.LogisticRegression, "_fit", frozen_lr_fit)
    patch.setattr(bayes.GaussianNaiveBayes, "_predict_proba",
                  frozen_gnb_predict_proba)
    patch.setattr(ensemble.AdaBoostClassifier, "_predict_proba",
                  frozen_abc_predict_proba)


# rows of one width, with signed zeros, ties and magnitudes 1e-300..1e300
ROW_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
              st.floats(-9.99, 9.99), st.integers(-300, 299)),
)


def as_layout(A, layout):
    """A (n, w) as the (w, n) rows the leading reductions take: a C-ordered
    copy of A.T, the transposed view of A, or a strided view."""
    if layout == "contiguous":
        return np.ascontiguousarray(A.T)
    if layout == "transposed":
        return A.T
    padded = np.zeros((2 * A.shape[1], 3 * A.shape[0]))
    padded[::2, ::3] = A.T
    return padded[::2, ::3]


def row_cells(seed, shape):
    """ROW_CELLS' mix, drawn by numpy: wide rows are slow to draw cell by
    cell. A share of -0.0 alone makes some rows all -0.0."""
    rng = np.random.default_rng(seed)
    magnitudes = (rng.uniform(-9.99, 9.99, shape)
                  * 10.0 ** rng.integers(-300, 300, shape))
    fixed = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], shape)
    cells = np.where(rng.random(shape) < 0.5, fixed, magnitudes)
    negative_zero = rng.random((shape[0], 1)) < rng.random()
    return np.where(negative_zero, -0.0, cells)


@settings(max_examples=300, deadline=None, database=None)
@given(width=st.integers(1, 300), n=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["contiguous", "transposed", "strided"]))
def test_leading_sum_equals_numpy_row_sum_bitwise(width, n, seed, layout):
    A = row_cells(seed, (n, width))
    rows = as_layout(A, layout)
    assert _leading_sum(rows).tobytes() == A.sum(axis=1).tobytes()
    assert _leading_sum(rows).shape == (A.shape[0],)


@pytest.mark.parametrize("shape", [(18, 5000), (9, 5000), (130, 500)])
def test_leading_sum_holds_at_most_eight_rows(shape):
    # from 8 rows on the sum combines its 8 partial sums in place, in the
    # buffer that holds them: the peak is that buffer (two of them and
    # their sum above 128 rows), and the sum keeps numpy's bytes
    A = row_cells(5, shape)
    want = np.ascontiguousarray(A.T).sum(axis=1).tobytes()
    rows = 17 if shape[0] > 128 else 8
    tracemalloc.start()
    try:
        got = _leading_sum(A).tobytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= rows * shape[1] * 8 + len(want) + 4096


@settings(max_examples=300, deadline=None, database=None)
@given(A=st.integers(1, 12).flatmap(
    lambda width: arrays(np.float64, st.tuples(st.integers(1, 30),
                                               st.just(width)),
                         elements=ROW_CELLS)),
       layout=st.sampled_from(["contiguous", "transposed", "strided"]))
def test_row_reductions_equal_numpy_bitwise(A, layout):
    rows = as_layout(A, layout)
    assert _leading_sum(rows).tobytes() == A.sum(axis=1).tobytes()
    assert _leading_sum(rows).shape == (A.shape[0],)


@settings(max_examples=150, deadline=None, database=None)
@given(S=st.integers(1, 12).flatmap(
    lambda width: arrays(np.float64, st.tuples(st.integers(1, 30),
                                               st.just(width)),
                         elements=ROW_CELLS)),
       layout=st.sampled_from(["contiguous", "transposed", "strided"]))
def test_class_softmax_equals_row_softmax_bitwise(S, layout):
    with np.errstate(all="ignore"):  # 1e300 - (-1e300) overflows alike
        got = _class_softmax(as_layout(S, layout))
        want = frozen_softmax(S)
    assert got.shape == (S.shape[1], S.shape[0])
    assert np.ascontiguousarray(got.T).tobytes() == want.tobytes()


@pytest.mark.parametrize("width", range(1, 13))
def test_row_reductions_keep_numpy_sign_on_zero_ties(width):
    """Rows whose maximum is a tie of 0.0 and -0.0 (or whose sum is a sum of
    signed zeros), at every pair of positions, and a row of -0.0 alone,
    which numpy sums to +0.0. The sum keeps numpy's sign.
    numpy's SIMD maximum from 8 columns on picks a zero's sign by its own
    pairing, which the softmax never shows: x - (+0.0) and x - (-0.0) differ
    only in a zero's sign, and exp maps both zeros to 1.0."""
    rows = []
    for i in range(width):
        for j in range(width):
            row = np.full(width, -1.5)
            row[i], row[j] = -0.0, 0.0
            rows += [row, np.where(row == -1.5, -0.0, row), -np.abs(row)]
    A = np.array(rows + [np.full(width, -0.0)])
    assert _leading_sum(A.T).tobytes() == A.sum(axis=1).tobytes()
    got = _class_softmax(A.T)
    assert np.ascontiguousarray(got.T).tobytes() == frozen_softmax(A).tobytes()


def class_table(n_classes, seed, d=4):
    """Rows around one mean per class with repeated rows, and a grid with the
    training rows, far rows (underflowing probabilities) and fresh rows."""
    rng = np.random.default_rng(seed)
    n = 24 * n_classes
    y = np.arange(n) % n_classes
    X = rng.normal(size=(n, d)) + 1.5 * rng.normal(size=(n_classes, d))[y]
    X[1::7] = X[0:-1:7][: X[1::7].shape[0]]
    grid = np.vstack([X, rng.normal(size=(60, d)) * 3.0,
                      np.full((1, d), 40.0), np.full((1, d), -40.0)])
    return X, y, grid


@pytest.mark.parametrize("n_classes", [2, 3, 5, 8, 9, 11])
@pytest.mark.parametrize("alg,params", [
    ("LR", {"max_iter": 80}), ("LR", {"tol": 5e-2}), ("GNB", {}), ("MNB", {}),
    ("LDA", {}), ("QDA", {}), ("GBC", {"n_rounds": 6}),
    ("ABC", {"n_rounds": 8}),
], ids=["LR", "LR-tol", "GNB", "MNB", "LDA", "QDA", "GBC", "ABC"])
def test_class_axis_kernels_match_frozen_bitwise(alg, params, n_classes):
    X, y, grid = class_table(n_classes, seed=n_classes)
    spec = ModelSpec(alg, params, seed=3)
    model = train(spec, X, y)
    with pytest.MonkeyPatch.context() as patch:
        freeze_kernels(patch)
        frozen = train(spec, X, y)
        want = frozen.predict_proba(grid)
    assert_same_fit(model, frozen)
    assert model.predict_proba(grid).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_classes", [2, 3, 9])
@pytest.mark.parametrize("d", [8, 9, 16, 18, 130])
def test_gnb_feature_sum_matches_frozen_bitwise(d, n_classes):
    """GNB's feature-major log-density sum at widths in numpy's pairwise
    regime: 8-term blocks, leftover terms, and a split above 128 terms."""
    X, y, grid = class_table(n_classes, seed=50 + d, d=d)
    model = train(ModelSpec("GNB", {}, 0), X, y)
    with pytest.MonkeyPatch.context() as patch:
        freeze_kernels(patch)
        want = model.predict_proba(grid)
    assert model.predict_proba(grid).tobytes() == want.tobytes()


def lr_reference(X, y, params):
    """Descent with a separate forward pass for the loss and the gradient."""
    n, d = X.shape
    C = int(y.max()) + 1
    onehot = np.zeros((n, C))
    onehot[np.arange(n), y] = 1.0
    W = np.zeros((d, C))
    b = np.zeros(C)
    step, l2 = params["step_size"], params["l2"]

    def loss():
        logits = X @ W + b
        log_norm = np.log(np.exp(logits - logits.max(axis=1, keepdims=True))
                          .sum(axis=1)) + logits.max(axis=1)
        nll = float(np.mean(log_norm - logits[np.arange(n), y]))
        return nll + 0.5 * l2 * float(np.sum(W**2))

    history = [loss()]
    for _ in range(params["max_iter"]):
        err = frozen_softmax(X @ W + b) - onehot
        grad_W = X.T @ err / n + l2 * W
        grad_b = err.mean(axis=0)
        if float(np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2))) < params["tol"]:
            break
        W = W - step * grad_W
        b = b - step * grad_b
        history.append(loss())
    return W, b, history


class TestLinearModels:
    def test_lr_zero_weights_uniform(self):
        model = REGISTRY["LR"](seed=0)
        model.n_features_ = 3
        model.n_classes_ = 4
        model.weights_ = np.zeros((3, 4))
        model.intercept_ = np.zeros(4)
        proba = model.predict_proba(np.random.default_rng(0).normal(size=(6, 3)))
        assert np.allclose(proba, 0.25, atol=1e-12)

    def test_lr_loss_non_increasing(self, training_data):
        X, y = training_data
        model = train(ModelSpec("LR", {}, 0), X, y)
        losses = np.array(model.loss_history_)
        assert np.all(np.diff(losses) <= 1e-12)

    @pytest.mark.parametrize("params", [{"max_iter": 60}, {"tol": 1e-2}],
                             ids=["max_iter", "tol"])
    def test_lr_matches_two_pass_descent_bitwise(self, params):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 4))
        y = rng.integers(0, 3, size=120)
        model = train(ModelSpec("LR", params, 0), X, y)
        W, b, history = lr_reference(X, y, model.params)
        stopped_early = len(history) < model.params["max_iter"] + 1
        assert stopped_early == ("tol" in params)
        assert np.array_equal(model.weights_, W)
        assert np.array_equal(model.intercept_, b)
        assert model.loss_history_ == history

    def test_qda_small_class_rejected(self):
        X = np.array([[0.0], [0.2], [5.0]])
        y = np.array([0, 0, 1])
        with pytest.raises(DataError, match="fewer than 2 rows"):
            fit("QDA", X, y)

    @pytest.mark.parametrize("alg,which", [
        ("LDA", "the pooled covariance"), ("QDA", "class 0's covariance")])
    def test_singular_covariance_is_a_data_error(self, alg, which):
        # a constant column makes every covariance exactly singular at ridge 0
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.normal(size=40), np.full(40, 5.0)])
        y = np.arange(40) % 2
        with pytest.raises(DataError, match=f"{alg}: {which} is singular or "
                           "not positive definite at ridge 0.0"):
            train(ModelSpec(alg, {"ridge": 0.0}, 0), X, y)
        assert np.isfinite(fit(alg, X, y).predict_proba(X)).all()

    def test_qda_class_with_fewer_rows_than_features_is_a_data_error(self):
        rng = np.random.default_rng(12)
        # class 1: three rows in four features, a rank-2 covariance
        X = np.vstack([rng.normal(size=(20, 4)),
                       [[0, 0, 0, 0], [3, 0, 3, 0], [0, 3, 0, 3]]])
        y = np.repeat([0, 1], [20, 3])
        with pytest.raises(DataError, match="QDA: class 1's covariance .* "
                           "at ridge 0.0; raise ridge"):
            train(ModelSpec("QDA", {"ridge": 0.0}, 0), X, y)

    @pytest.mark.parametrize("seed", range(12))
    def test_covariance_singular_in_exact_arithmetic_is_a_data_error(self,
                                                                      seed):
        # one outcome whatever the rounding: a class of 2 or 3 rows in 4
        # features (QDA), or a column that is exactly the sum of two others
        # (LDA), is singular in exact arithmetic; rounded, slogdet's sign
        # can still come out +1
        rng = np.random.default_rng(seed)
        small = 2 + seed % 2
        X = np.vstack([rng.normal(size=(20, 4)), rng.normal(size=(small, 4))])
        y = np.repeat([0, 1], [20, small])
        with pytest.raises(DataError, match="QDA: class 1's covariance is "
                           "singular or not positive definite at ridge 0.0"):
            train(ModelSpec("QDA", {"ridge": 0.0}, 0), X, y)
        X = np.round(rng.normal(size=(30, 3)) * 8) / 8
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        y = np.arange(30) % 2
        for alg, which in (("LDA", "the pooled covariance"),
                           ("QDA", "class 0's covariance")):
            with pytest.raises(DataError, match=f"{alg}: {which} is singular"):
                train(ModelSpec(alg, {"ridge": 0.0}, 0), X, y)
            assert np.isfinite(fit(alg, X, y).predict_proba(X)).all()

    def test_lda_qda_agree_on_shared_covariance_data(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(0, 1, (200, 2)), rng.normal(4, 1, (200, 2))])
        y = np.repeat([0, 1], 200)
        grid = rng.normal(2, 2, size=(100, 2))
        lda = fit("LDA", X, y).predict(grid)
        qda = fit("QDA", X, y).predict(grid)
        assert (lda == qda).mean() >= 0.97


class TestBayes:
    def test_gnb_matches_closed_form_posterior(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 1, (50, 1)), rng.normal(10, 1, (50, 1))])
        y = np.repeat([0, 1], 50)
        model = fit("GNB", X, y)

        # independent posterior: empirical moments + Gaussian density formula
        eps = 1e-9 * X.var()
        mus = [X[y == c].mean() for c in (0, 1)]
        vs = [X[y == c].var() + eps for c in (0, 1)]
        grid = np.linspace(-2, 12, 29).reshape(-1, 1)
        like = np.stack([
            0.5 / np.sqrt(2 * np.pi * vs[c]) *
            np.exp(-((grid[:, 0] - mus[c]) ** 2) / (2 * vs[c]))
            for c in (0, 1)
        ], axis=1)
        want = like / like.sum(axis=1, keepdims=True)
        assert np.allclose(model.predict_proba(grid), want, atol=1e-9)

        means = np.array([[mus[0]], [mus[1]]])
        assert model.predict(means).tolist() == [0, 1]

    def test_gnb_zero_variance_is_a_data_error(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        y = np.arange(40) % 2
        X[y == 1, 2] = 0.5  # feature 2 is constant in class 1
        with pytest.raises(DataError, match="GNB: feature 2 is constant in "
                           "class 1 and var_smoothing 0.0 leaves its variance 0"):
            train(ModelSpec("GNB", {"var_smoothing": 0.0}, 0), X, y)
        assert np.isfinite(fit("GNB", X, y).predict_proba(X)).all()

    def test_mnb_accepts_standardized_features(self, training_data):
        X, y = training_data
        assert X.min() < 0  # genuinely signed input
        model = fit("MNB", X, y)
        acc = (model.predict(X) == y).mean()
        assert acc > 1.0 / 3.0  # beats random guessing on separable data

    def test_mnb_clips_below_training_min(self, training_data):
        X, y = training_data
        model = fit("MNB", X, y)
        below = np.full((2, X.shape[1]), X.min() - 10.0)
        proba = model.predict_proba(below)
        assert np.all(np.isfinite(proba))
        assert np.all(np.abs(proba.sum(axis=1) - 1.0) <= 1e-9)
