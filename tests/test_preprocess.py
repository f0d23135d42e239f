import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driverlens.data import Dataset
from driverlens.errors import DataError
from driverlens.preprocess import (
    ScalerParams,
    _oversample_rows,
    apply_scaler,
    fit_scaler,
    random_oversample,
    stratified_shuffle_splits,
)
from reference_strata import _apportion_test_counts


def make_dataset(X, y, n_classes=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    C = n_classes or int(y.max()) + 1
    return Dataset(X=X, y=y, feature_names=column_names(X),
                   classes=tuple(f"c{i}" for i in range(C)))


def column_names(X):
    return [f"f{j}" for j in range(np.shape(X)[1])]


def fit(X):
    return fit_scaler(X, column_names(X))


def imbalanced_dataset(counts, seed=0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c, n in enumerate(counts):
        X.append(rng.normal(c, 1.0, size=(n, 3)))
        y.extend([c] * n)
    return make_dataset(np.vstack(X), np.array(y), n_classes=len(counts))


def vstack_oversample(X, y, rng):
    """Reference oversampler: appends each minority class's duplicated rows
    and labels, classes in code order, one rng.integers call per class."""
    counts = np.bincount(y)
    target = counts.max()
    extra_X, extra_y = [], []
    for c in range(counts.size):
        deficit = int(target - counts[c])
        if deficit <= 0 or counts[c] == 0:
            continue
        pool = np.flatnonzero(y == c)
        picks = pool[rng.integers(0, pool.size, size=deficit)]
        extra_X.append(X[picks])
        extra_y.append(np.full(deficit, c, dtype=y.dtype))
    if not extra_X:
        return X, y
    return np.vstack([X, *extra_X]), np.concatenate([y, *extra_y])


@settings(max_examples=80, deadline=None, database=None)
@given(counts=st.lists(st.integers(0, 25), min_size=1, max_size=5)
       .filter(lambda counts: sum(counts) > 0),
       n_features=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_oversample_rows_index_the_reference_rows(counts, n_features, seed):
    # the row positions pick out, bit for bit, the rows the reference stacks,
    # and both leave the generator in the same state
    data = np.random.default_rng(seed)
    y = data.permutation(np.repeat(np.arange(len(counts)), counts))
    X = data.normal(size=(y.size, n_features))
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = _oversample_rows(y, ours)
    X_ref, y_ref = vstack_oversample(X, y, reference)
    assert X[rows].tobytes() == X_ref.tobytes()
    assert y[rows].tobytes() == y_ref.tobytes()
    assert np.array_equal(rows[:y.size], np.arange(y.size))
    assert ours.random() == reference.random()


class TestRandomOversample:
    def test_balances_to_max_count(self):
        data = imbalanced_dataset([10, 4, 7])
        out = random_oversample(data, 0)
        assert np.bincount(out.y).tolist() == [10, 10, 10]
        assert out.n_rows == 30

    def test_balanced_input_unchanged(self):
        data = imbalanced_dataset([5, 5])
        out = random_oversample(data, 0)
        assert out is data

    def test_originals_preserved_duplicates_appended(self):
        data = imbalanced_dataset([6, 3])
        out = random_oversample(data, 1)
        assert np.array_equal(out.X[: data.n_rows], data.X)
        assert np.array_equal(out.y[: data.n_rows], data.y)

    def test_appended_rows_are_exact_duplicates(self):
        data = imbalanced_dataset([8, 2, 5])
        out = random_oversample(data, 2)
        for i in range(data.n_rows, out.n_rows):
            c = out.y[i]
            pool = data.X[data.y == c]
            assert any(np.array_equal(out.X[i], row) for row in pool)

    def test_value_sets_preserved_per_class(self):
        # no synthetic values: per class, the set of rows is unchanged
        data = imbalanced_dataset([9, 4])
        out = random_oversample(data, 3)
        for c in range(2):
            before = {tuple(r) for r in data.X[data.y == c]}
            after = {tuple(r) for r in out.X[out.y == c]}
            assert after == before

    def test_deterministic(self):
        data = imbalanced_dataset([10, 3])
        a = random_oversample(data, 7)
        b = random_oversample(data, 7)
        assert np.array_equal(a.X, b.X)

    def test_single_class_unchanged(self):
        data = make_dataset(np.ones((4, 2)), [0, 0, 0, 0], n_classes=1)
        assert random_oversample(data, 0) is data


class TestScaler:
    def test_hand_computed_column(self):
        # mean 4, population std sqrt(8/3); +-2 scaled to +-1.224744871391589
        params = fit(np.array([[2.0], [4.0], [6.0]]))
        assert params.mean[0] == pytest.approx(4.0, abs=1e-12)
        assert params.std[0] == pytest.approx(np.sqrt(8.0 / 3.0), abs=1e-12)
        scaled = apply_scaler(np.array([[2.0], [4.0], [6.0]]), params)
        expected = [-1.224744871391589, 0.0, 1.224744871391589]
        assert scaled[:, 0] == pytest.approx(expected, abs=1e-9)

    def test_constant_column_maps_to_zero(self):
        X = np.array([[5.0], [5.0], [5.0]])
        params = fit(X)
        assert params.std[0] == 0.0
        assert np.all(apply_scaler(X, params) == 0.0)

    def test_constant_column_float_noise(self):
        # 0.1 has no exact binary representation; std must still be exactly 0
        X = np.full((7, 1), 0.1)
        params = fit(X)
        assert params.std[0] == 0.0
        assert np.all(apply_scaler(X, params) == 0.0)

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(5)
        X = rng.normal(3.0, 2.5, size=(50, 4))
        once = apply_scaler(X, fit(X))
        twice = apply_scaler(once, fit(once))
        assert np.allclose(once, twice, atol=1e-9)

    def test_postconditions_on_fit_matrix(self):
        rng = np.random.default_rng(11)
        X = np.hstack([rng.normal(7, 3, size=(40, 3)), np.full((40, 1), 2.0)])
        scaled = apply_scaler(X, fit(X))
        assert np.all(np.abs(scaled[:, :3].mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(scaled[:, :3].std(axis=0) - 1.0) <= 1e-9)
        assert np.all(scaled[:, 3] == 0.0)

    def test_memory_layout_does_not_change_the_bits(self):
        # numpy sums a column of an F-ordered matrix in another order than
        # the same column of a C-ordered one, and rounds differently
        rng = np.random.default_rng(13)
        for _ in range(20):
            X = rng.normal(rng.normal(0, 50), rng.exponential(9) + 0.1,
                           size=(int(rng.integers(2, 300)), 7))
            c, f = fit(X), fit(np.asfortranarray(X))
            assert np.array_equal(c.mean, f.mean)
            assert np.array_equal(c.std, f.std)

    def test_dimension_mismatch(self):
        params = fit(np.ones((3, 2)))
        with pytest.raises(DataError, match="2 features"):
            apply_scaler(np.ones((3, 5)), params)

    def test_json_serialization(self):
        params = fit_scaler(np.array([[1.0, 2.0], [3.0, 6.0]]),
                            ("speed", "temp"))
        doc = params.to_json_dict()
        assert list(doc) == ["speed", "temp"]
        assert doc["speed"] == {"mean": 2.0, "std": 1.0}
        assert doc["temp"]["mean"] == 4.0

    def test_negative_std_rejected(self):
        with pytest.raises(DataError):
            ScalerParams(mean=np.zeros(2), std=np.array([1.0, -0.5]),
                         feature_names=("a", "b"))

    def test_feature_name_count_must_match(self):
        # zip once cut the JSON to the shorter of names and features
        for names in (("a",), ("a", "b", "c", "d")):
            with pytest.raises(DataError, match=f"{len(names)} feature names "
                               "for 3 features"):
                ScalerParams(np.zeros(3), np.ones(3), names).to_json_dict()

    def test_repeated_feature_name_rejected(self):
        # scaler.json is keyed by name, so a repeat once dropped a column
        with pytest.raises(DataError, match="scaler feature_names repeats "
                           "the column name 'a' at columns 1, 2"):
            ScalerParams(mean=[0, 1], std=[1, 1], feature_names=("a", "a"))


class TestStratifiedShuffleSplits:
    def test_even_class_counts(self):
        data = imbalanced_dataset([50, 50])
        splits = stratified_shuffle_splits(data, repeats=5, test_frac=0.12, rng=0)
        for split in splits:
            test_y = data.y[split.test]
            assert np.sum(test_y == 0) == 6
            assert np.sum(test_y == 1) == 6

    def test_repeat_count(self):
        data = imbalanced_dataset([30, 20])
        splits = stratified_shuffle_splits(data, repeats=20, rng=0)
        assert len(splits) == 20

    def test_same_seed_identical(self):
        data = imbalanced_dataset([25, 15, 10])
        a = stratified_shuffle_splits(data, repeats=4, rng=42)
        b = stratified_shuffle_splits(data, repeats=4, rng=42)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.train, s2.train)
            assert np.array_equal(s1.test, s2.test)

    def test_partition_covers_all_rows(self):
        data = imbalanced_dataset([21, 14, 9])
        for split in stratified_shuffle_splits(data, repeats=6, rng=1):
            merged = np.sort(np.concatenate([split.train, split.test]))
            assert np.array_equal(merged, np.arange(data.n_rows))

    def test_per_class_proportion_within_one_row(self):
        data = imbalanced_dataset([37, 23, 11], seed=2)
        frac = 0.12
        for split in stratified_shuffle_splits(data, repeats=20, test_frac=frac, rng=3):
            for c, count in enumerate([37, 23, 11]):
                got = int(np.sum(data.y[split.test] == c))
                assert abs(got - count * frac) <= 1.0

    def test_total_test_size(self):
        data = imbalanced_dataset([37, 23, 11])
        n = data.n_rows
        for split in stratified_shuffle_splits(data, repeats=3, test_frac=0.12, rng=0):
            assert split.test.size == int(np.floor(n * 0.12 + 0.5))

    def test_singleton_class_rejected(self):
        data = imbalanced_dataset([10, 1])
        with pytest.raises(DataError, match="single row"):
            stratified_shuffle_splits(data, rng=0)

    def test_bad_test_frac(self):
        data = imbalanced_dataset([10, 10])
        with pytest.raises(DataError, match="test_frac"):
            stratified_shuffle_splits(data, test_frac=1.2, rng=0)

    def test_empty_dataset_rejected(self):
        data = imbalanced_dataset([0, 0])
        with pytest.raises(DataError, match="empty dataset"):
            stratified_shuffle_splits(data, rng=np.random.default_rng(0))

    def test_splits_differ_across_repeats(self):
        data = imbalanced_dataset([40, 30])
        splits = stratified_shuffle_splits(data, repeats=3, rng=9)
        assert not np.array_equal(splits[0].test, splits[1].test)


def seed_sequence_splits(data, repeats, test_frac, seed):
    """The splits as integer seeds once built them: one stream per repeat
    from SeedSequence(seed).spawn(repeats), each permuting every class."""
    test_counts = _apportion_test_counts(data.class_counts(), test_frac)
    splits = []
    for child in np.random.SeedSequence(seed).spawn(repeats):
        gen = np.random.default_rng(child)
        perms = [gen.permutation(np.flatnonzero(data.y == c))
                 for c in range(data.n_classes)]
        splits.append((
            np.sort(np.concatenate([p[t:] for p, t in zip(perms, test_counts)])),
            np.sort(np.concatenate([p[:t] for p, t in zip(perms, test_counts)]))))
    return splits


@settings(max_examples=150, deadline=None, database=None)
@given(counts=st.lists(st.sampled_from([0, 2, 3, 4, 5, 7, 9, 13, 30]),
                       min_size=1, max_size=5)
       .filter(lambda counts: sum(counts) >= 2),
       test_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       repeats=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stratified_splits_partition_every_class(counts, test_frac, repeats,
                                                 seed):
    data = imbalanced_dataset(counts, seed=1)
    counts = np.array(counts)
    splits = stratified_shuffle_splits(data, repeats=repeats,
                                       test_frac=test_frac, rng=seed)
    assert len(splits) == repeats
    want_test = _apportion_test_counts(counts, test_frac)
    present = np.flatnonzero(counts)
    for split in splits:
        # disjoint, and together every row once
        assert np.array_equal(np.sort(np.concatenate([split.train, split.test])),
                              np.arange(counts.sum()))
        assert np.array_equal(np.bincount(data.y[split.test],
                                          minlength=counts.size), want_test)
        # every class in the data keeps a training row
        assert np.array_equal(np.unique(data.y[split.train]), present)
    again = stratified_shuffle_splits(data, repeats=repeats,
                                      test_frac=test_frac, rng=seed)
    for a, b in zip(splits, again):
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)
    assert all(np.array_equal(a.train, train) and np.array_equal(a.test, test)
               for a, (train, test) in zip(
                   splits, seed_sequence_splits(data, repeats, test_frac, seed)))
