"""The forests' draw decoder against the numpy Generator it stands in for."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driverlens.models import ModelSpec, train
from driverlens.models import tree as tree_module
from driverlens.models.tree import _Draws, grow_forest
from reference_trees import reference_forest_tree


def assert_draws_match(seeds, d, k, n_boot, steps):
    """Decode the draws of len(seeds) trees at once and make the same draws
    from one real Generator per tree. steps holds (active, live) pairs: the
    trees that draw candidates in the step and, per tree, which candidates
    then draw a threshold."""
    real = [np.random.default_rng(s) for s in seeds]
    mine = [np.random.default_rng(s) for s in seeds]
    for a, b in zip(real, mine):
        if n_boot:
            assert np.array_equal(a.integers(0, n_boot, size=n_boot),
                                  b.integers(0, n_boot, size=n_boot))
    draws = _Draws(mine, d, k)
    bounds = np.random.default_rng(d * 1000 + k)
    for active, live in steps:
        trees = np.flatnonzero(active)
        if not trees.size:
            continue
        got = draws.features(trees)
        for row, t in zip(got, trees):
            want = (np.arange(d) if k >= d
                    else np.sort(real[t].choice(d, k, replace=False)))
            assert np.array_equal(row, want)
            state = real[t].bit_generator.state
            assert draws.held[t] == state["has_uint32"]
            if state["has_uint32"]:
                assert draws.half[t] == state["uinteger"]
        lo = bounds.normal(0.0, 10.0, size=(trees.size, k))
        hi = lo + bounds.exponential(3.0, size=lo.shape)
        mask = live[trees]
        thr = draws.uniform(trees, lo, hi, mask)
        for b, t in enumerate(trees):
            want = real[t].uniform(lo[b, mask[b]], hi[b, mask[b]])
            assert np.array_equal(thr[b, mask[b]], want)
            assert np.isnan(thr[b, ~mask[b]]).all()


@st.composite
def draw_plans(draw):
    T = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**63), min_size=T, max_size=T))
    d = draw(st.integers(1, 40))
    k = draw(st.integers(1, d))
    n_boot = draw(st.sampled_from([0, 1, 2, 7, 8, 63, 64, 264]))
    n_steps = draw(st.integers(1, 80))
    active = draw(st.lists(st.lists(st.booleans(), min_size=T, max_size=T),
                           min_size=n_steps, max_size=n_steps))
    live = draw(st.lists(st.lists(st.lists(st.booleans(), min_size=k,
                                           max_size=k),
                                  min_size=T, max_size=T),
                         min_size=n_steps, max_size=n_steps))
    return seeds, d, k, n_boot, list(zip(np.array(active), np.array(live)))


@settings(max_examples=150, deadline=None, database=None)
@given(plan=draw_plans())
def test_decoded_draws_equal_the_generators(plan):
    # 80 steps of up to 40 candidates outrun a row of words, so refills and
    # held halves carried across them are covered
    assert_draws_match(*plan)


@pytest.mark.parametrize("n_boot", [7, 8], ids=["odd-n", "even-n"])
def test_bootstrap_parity_sets_the_held_half(n_boot):
    # n bounded 32-bit draws leave the high half of their last word held
    # exactly when n is odd (seed 3 rejects none of them)
    rng = np.random.default_rng(3)
    rng.integers(0, n_boot, size=n_boot)
    draws = _Draws([rng], 18, 4)
    assert bool(draws.held[0]) == (n_boot % 2 == 1)
    every = np.ones((60, 1), dtype=bool)
    live = np.ones((60, 1, 4), dtype=bool)
    assert_draws_match([3], 18, 4, n_boot, list(zip(every, live)))


def test_rejections_of_a_real_generator_shift_the_stream():
    # choice(10000, 100) makes 199 bounded draws of about 1e-6 rejection
    # odds each; with seed 4998 an odd number of them is rejected, so the
    # Generator holds no half afterwards (199 accepted draws would hold one)
    rng = np.random.default_rng(4998)
    rng.choice(10000, 100, replace=False)
    assert not rng.bit_generator.state["has_uint32"]
    steps = [(np.ones(1, dtype=bool), np.ones((1, 100), dtype=bool))] * 3
    assert_draws_match([4998], 10000, 100, 0, steps)


def test_choice_outside_floyds_range_is_refused():
    # above 10000 features numpy's choice takes a tail shuffle once k
    # exceeds d // 50, which the decoder does not follow
    with pytest.raises(ValueError, match="tail shuffle"):
        _Draws([np.random.default_rng(0)], 10_001, 201)
    draws = _Draws([np.random.default_rng(0)], 10_001, 200)
    want = np.sort(np.random.default_rng(0).choice(10_001, 200, replace=False))
    assert np.array_equal(draws.features(np.array([0]))[0], want)


def test_threshold_range_overflow_raises_as_the_generator_does():
    # a column spanning -1e308 .. 1e308 has a range of inf, which
    # Generator.uniform refuses; the grower refuses it the same way
    X = np.array([[-1e308], [1e308], [0.0], [5.0]])
    y = np.array([0, 1, 0, 1])
    with pytest.raises(OverflowError), np.errstate(over="ignore"):
        reference_forest_tree(X, y, 2, 1, None, splitter="random")
    with pytest.raises(OverflowError), np.errstate(over="ignore"):
        grow_forest(X, y, 2, [1], None, splitter="random")


class RawWords:
    """A Generator stand-in whose bit generator hands out given words, then
    a word with both halves 0x12345678, and holds the given half."""

    def __init__(self, words, half):
        self.bit_generator = self
        self.state = {"has_uint32": 1, "uinteger": half}
        self.words = list(words)

    def random_raw(self, size):
        out = (self.words + [0x1234567812345678] * size)[:size]
        del self.words[:size]
        return np.array(out, dtype=np.uint64)


def test_lemire_rejection_takes_the_next_half():
    # choice(18, 4) draws bounds 15..18 (Floyd), then 4, 3, 2 (shuffle).
    # u = 2**31 picks 7 of 15, 8 of 16, and 8 of 17, which Floyd replaces
    # by 16. The bound-18 draw reads u = 0: 0 * 18 mod 2**32 = 0 falls below
    # 2**32 mod 18 = 4, so it is rejected and u = 2**30 picks 4 instead of 0.
    # The shuffle takes three more halves; the high half of w3 stays held.
    words = [2**31 << 32 | 2**31,  # w0: bounds 16 and 17
             2**30 << 32 | 0,  # w1: bound 18 rejects 0, accepts 2**30
             2**31 << 32 | 2**31,  # w2: shuffle bounds 4 and 3
             0xABCDEF01 << 32 | 2**31]  # w3: shuffle bound 2, then held
    draws = _Draws([RawWords(words, half=2**31)], 18, 4)  # held: bound 15
    assert draws.features(np.array([0])).tolist() == [[4, 7, 8, 16]]
    assert (int(draws.at[0]), bool(draws.held[0])) == (4, True)
    assert draws.half[0] == 0xABCDEF01


@pytest.mark.parametrize("alg", ["RFC", "ETC"])
def test_forest_makes_a_fixed_number_of_generator_calls_per_tree(alg,
                                                                 monkeypatch):
    # RFC draws its bootstrap from the Generator and ETC draws nothing; all
    # other draws are decoded from raw words, however many nodes there are
    calls = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.gen = real(seed)
            self.bit_generator = self.gen.bit_generator

        def __getattr__(self, name):
            method = getattr(self.gen, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return call

    monkeypatch.setattr(tree_module.np.random, "default_rng", Counting)
    rng = real(5)
    X = rng.normal(size=(120, 9))
    y = (X[:, 0] + rng.normal(size=120) > 0).astype(np.int64)
    per_tree = {"RFC": ["integers"], "ETC": []}[alg]
    nodes = []
    for depth in (1, None):
        calls.clear()
        model = train(ModelSpec(alg, {"n_trees": 6, "max_depth": depth}, 0),
                      X, y)
        assert calls == per_tree * 6
        nodes.append(model.feature_.size)
    assert nodes[0] == 6 * 3 and nodes[1] > 6 * 10
