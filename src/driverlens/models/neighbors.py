"""k-nearest-neighbors voting classifier.

Prediction walks the test rows in blocks. A block's difference array holds
rows x n_train x d doubles, so its row count is chosen to keep that array
within _BUDGET bytes (and at most _CHUNK rows); at least one row is taken
even when a single row is larger. Memory therefore stays bounded as the
training set grows. Each distance is summed over its own pair's features,
so the block size does not change any of its bits.

The budget is 4 MiB, near the size of a core's L2 cache (2 MiB on the
2-vCPU Xeon it was measured on): each difference array is written once and
read back once, and a smaller one is read back from cache. Predicting
360 rows against 3960 x 18 training rows took 124-131 ms against 169-196 ms
at 16 MiB, with equal bytes.

Each call fills one buffer of max(_BUDGET, one block's bytes), block after
block, so every call's largest temporary has one size. glibc raises its
mmap and trim thresholds to the largest mapped block freed, and a freed
block of a varying size left later heap pages resident or not depending on
unrelated allocations: the benchmark's leak-safe CSV workload peaked at
47.4 MiB or 50.7 MiB depending only on the checkout's path (8 paths, 2-vCPU
Xeon). With the buffer it peaked at 48.5-48.9 MiB on all of them.

The k neighbours of a row are exactly the first k of a stable sort of its
distances: every training row strictly closer than the k-th smallest
distance, then the lowest-indexed rows that tie it. A query row holding NaN
has no ordered distances and votes with training rows 0..k-1.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import Classifier

_CHUNK = 256  # at most this many test rows per distance block
_BUDGET = 4 * 2**20  # bytes of one block's rows x n_train x d differences


def _nearest(dist2: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k smallest entries per row, ties to the lower column."""
    dist2 = np.where(np.isnan(dist2), np.inf, dist2)
    kth = np.partition(dist2, k - 1, axis=1)[:, k - 1:k]
    below = dist2 < kth
    ties = dist2 == kth
    room = k - below.sum(axis=1, keepdims=True)
    return below | (ties & (np.cumsum(ties, axis=1) <= room))


class KNearestNeighbors(Classifier):
    """Euclidean k-NN; probability = neighbor vote fraction.

    Distance ties resolve to the lower training-row index (as a stable sort
    would), vote ties to the lower class code.
    """

    algorithm = "KNN"
    DEFAULTS = {"k": 5}
    RANGES = {"k": ">= 1"}  # and at most the training rows, a data error

    def _fit(self, X, y):
        k = self.params["k"]
        if k > X.shape[0]:
            raise DataError(f"KNN: k={k} must be in 1..{X.shape[0]} (training rows)")
        self.X_ = X.copy()
        self.y_ = y.copy()

    def _predict_proba(self, X):
        k = self.params["k"]
        C = self.n_classes_
        n = X.shape[0]
        n_train, d = self.X_.shape
        rows = max(1, min(_CHUNK, _BUDGET // max(8 * n_train * d, 1)))
        # every call's largest temporary has one size (see above)
        buffer = np.empty(max(_BUDGET, rows * n_train * d * 8) // 8)
        proba = np.empty((n, C))
        for start in range(0, n, rows):
            block = X[start:start + rows]
            diff = buffer[:block.shape[0] * n_train * d].reshape(
                block.shape[0], n_train, d)
            np.subtract(block[:, None, :], self.X_[None], out=diff)
            dist2 = np.einsum("ijk,ijk->ij", diff, diff)
            row, col = np.nonzero(_nearest(dist2, k))
            counts = np.bincount(row * C + self.y_[col],
                                 minlength=block.shape[0] * C)
            proba[start:start + rows] = counts.reshape(-1, C) / k
        return proba.T
