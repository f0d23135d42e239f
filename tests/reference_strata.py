"""The three largest-remainder rules driverlens once had, kept unchanged as
oracles for preprocess._largest_remainder and preprocess._draw_strata.

_apportion_test_counts gave each class its test rows in a split,
_stratified_sample drew the explained rows from split 0's test side in
proportion to the predicted classes, and _apportion gave each synthetic class
its rows. Each had its own floor, remainder order, cap and draw loop.
"""

import numpy as np

from driverlens.errors import ConfigError
from driverlens.preprocess import _round_half_up


def _apportion_test_counts(counts: np.ndarray, test_frac: float) -> np.ndarray:
    """Largest-remainder split of the total test size across classes. A
    class never gives all its rows to the test side: its extra row goes to
    the class with the next largest remainder instead."""
    n = int(counts.sum())
    total = _round_half_up(n * test_frac)
    total = min(max(total, 1), n - 1)
    quotas = counts * test_frac
    base = np.floor(quotas).astype(np.int64)
    shortfall = total - int(base.sum())
    if shortfall > 0:
        remainders = quotas - base
        order = np.lexsort((np.arange(counts.size), -remainders))
        for c in order:
            if shortfall == 0:
                break
            if base[c] < counts[c] - 1:
                base[c] += 1
                shortfall -= 1
    elif shortfall < 0:
        # test_frac near 1 can overshoot once after the total is clamped
        order = np.lexsort((np.arange(counts.size), -(quotas - base)))
        for c in order[::-1]:
            if shortfall == 0:
                break
            if base[c] > 0:
                base[c] -= 1
                shortfall += 1
    return base


def _stratified_sample(groups: dict[int, np.ndarray], total: int, rng) -> np.ndarray:
    """Sample `total` row positions proportionally to group sizes."""
    sizes = {g: rows.size for g, rows in groups.items()}
    n = sum(sizes.values())
    if total >= n:
        return np.sort(np.concatenate(list(groups.values())))
    keys = sorted(groups)
    quotas = {g: sizes[g] * total / n for g in keys}
    counts = {g: int(np.floor(quotas[g])) for g in keys}
    shortfall = total - sum(counts.values())
    for g in sorted(keys, key=lambda g: (-(quotas[g] - counts[g]), g)):
        if shortfall == 0:
            break
        if counts[g] < sizes[g]:
            counts[g] += 1
            shortfall -= 1
    picked = [rng.permutation(groups[g])[: counts[g]] for g in keys]
    return np.sort(np.concatenate(picked))


def _apportion(n: int, priors: np.ndarray) -> np.ndarray:
    quotas = priors * n
    counts = np.floor(quotas).astype(np.int64)
    shortfall = n - int(counts.sum())
    if shortfall > 0:
        remainders = quotas - counts
        order = np.lexsort((np.arange(priors.size), -remainders))
        counts[order[:shortfall]] += 1
    if counts.min() < 1:
        raise ConfigError(f"n_rows={n} leaves a class empty under priors {priors}")
    return counts
