"""The one largest-remainder rule and the one stratified draw
(preprocess._largest_remainder and _draw_strata) against the three rules
they replace, kept in reference_strata.py: the test rows per class of a
split, the explained rows of split 0's test side, and the synthetic class
sizes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driverlens.errors import ConfigError
from driverlens.preprocess import _draw_strata, _largest_remainder, _round_half_up
from driverlens.synth import SynthSpec, class_priors, synth_generate
from reference_strata import _apportion, _apportion_test_counts, _stratified_sample


def _ratio_and_neighbours(km):
    x = km[0] / km[1]
    return st.sampled_from([x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)])


# k/m makes equal class sizes tie on their remainders; its float neighbours
# and the largest double below 1 probe the floors' rounding
fractions = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.tuples(st.integers(1, 11), st.integers(2, 12))
    .filter(lambda km: km[0] < km[1]).flatmap(_ratio_and_neighbours),
    st.just(math.nextafter(1.0, 0.0)),
)
# few distinct sizes, so tied remainders are common
class_sizes = st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 12, 25, 40]),
                       min_size=2, max_size=6)


@settings(max_examples=600, deadline=None, database=None)
@given(counts=class_sizes.filter(lambda counts: sum(counts) >= 2),
       test_frac=fractions)
def test_split_test_counts_match_reference(counts, test_frac):
    counts = np.array(counts)
    n = int(counts.sum())
    total = min(max(_round_half_up(n * test_frac), 1), n - 1)
    quotas = counts * test_frac
    # the floors never exceed the split total, so no count is ever taken back
    assert np.floor(quotas).sum() <= total
    got = _largest_remainder(quotas, total, counts - 1)
    want = _apportion_test_counts(counts, test_frac)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=400, deadline=None, database=None)
@given(sizes=class_sizes.filter(sum),
       n_explain=st.one_of(st.integers(1, 40), st.integers(40, 300)),
       seed=st.integers(0, 2**32 - 1))
def test_explained_rows_match_reference(sizes, n_explain, seed):
    # groups as explain_best builds them: one per class code, empty ones too
    predicted = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(len(sizes)), sizes))
    groups = [np.flatnonzero(predicted == c) for c in range(len(sizes))]
    sizes = np.array(sizes)
    total = min(n_explain, predicted.size)
    counts = _largest_remainder(sizes * total / predicted.size, total, sizes)
    picked, rest = _draw_strata(groups, counts, np.random.default_rng(seed))
    want = _stratified_sample({c: rows for c, rows in enumerate(groups)
                               if rows.size}, n_explain,
                              np.random.default_rng(seed))
    assert picked.dtype == want.dtype and np.array_equal(picked, want)
    assert np.array_equal(np.sort(np.concatenate([picked, rest])),
                          np.arange(predicted.size))


@settings(max_examples=300, deadline=None, database=None)
@given(n_classes=st.integers(2, 20),
       extra_rows=st.one_of(st.integers(0, 20), st.integers(0, 4000)))
def test_synth_class_sizes_match_reference(n_classes, extra_rows):
    # from 15 classes on, n_rows = 4 * n_classes can leave the smallest
    # class empty, and SynthSpec rejects such a spec itself
    n_rows = 4 * n_classes + extra_rows
    try:
        want = _apportion(n_rows, class_priors(n_classes))
    except ConfigError:
        with pytest.raises(ConfigError, match="leaves a class empty"):
            SynthSpec(n_rows=n_rows, n_classes=n_classes)
        return
    spec = SynthSpec(n_rows=n_rows, n_classes=n_classes, n_features=1,
                     n_informative=1)
    counts = synth_generate(spec).class_counts()
    assert np.array_equal(counts, want)


def test_synth_spec_rejects_exactly_the_specs_that_empty_a_class():
    for n_classes in range(2, 80):
        priors = class_priors(n_classes)
        for n_rows in range(4 * n_classes, 8 * n_classes):
            try:
                _apportion(n_rows, priors)
            except ConfigError:
                with pytest.raises(ConfigError, match="leaves a class empty"):
                    SynthSpec(n_rows=n_rows, n_classes=n_classes)
            else:
                SynthSpec(n_rows=n_rows, n_classes=n_classes)


@settings(max_examples=300, deadline=None, database=None)
@given(weights=st.lists(st.integers(1, 9), min_size=2, max_size=6),
       n=st.integers(1, 5000))
def test_uncapped_counts_match_reference(weights, n):
    priors = np.array(weights) / sum(weights)
    try:
        want = _apportion(n, priors)
    except ConfigError:
        want = None
    got = _largest_remainder(priors * n, n, n)
    if want is None:
        assert got.min() < 1
    else:
        assert np.array_equal(got, want)
