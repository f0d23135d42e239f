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
at 16 MiB, with equal bytes. glibc sets its mmap and trim thresholds from
the largest block freed, so the block size also decides whether the
explain stage's larger temporaries reuse heap pages: while GNB's prediction
allocated several (rows x d) temporaries per class, a leak-safe CSV
pipeline run took 174 k page faults at 2 MiB against 4.5 k at 4 MiB. With
one buffer per prediction it takes 5.4 k at 2 MiB and 5.5 k at 4 MiB.

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

    def _fit(self, X, y):
        k = self.params["k"]
        if not 1 <= k <= X.shape[0]:
            raise DataError(f"KNN: k={k} must be in 1..{X.shape[0]} (training rows)")
        self.X_ = X.copy()
        self.y_ = y.copy()

    def _predict_proba(self, X):
        k = self.params["k"]
        C = self.n_classes_
        n = X.shape[0]
        n_train, d = self.X_.shape
        rows = max(1, min(_CHUNK, _BUDGET // max(8 * n_train * d, 1)))
        proba = np.empty((n, C))
        for start in range(0, n, rows):
            block = X[start:start + rows]
            diff = block[:, None, :] - self.X_[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", diff, diff)
            del diff  # freed before the selection allocates its temporaries
            row, col = np.nonzero(_nearest(dist2, k))
            counts = np.bincount(row * C + self.y_[col],
                                 minlength=block.shape[0] * C)
            proba[start:start + rows] = counts.reshape(-1, C) / k
        return proba

    def _state(self):
        return {"X": self.X_.tolist(), "y": self.y_.tolist()}

    def _load_state(self, state):
        self.X_ = np.asarray(state["X"], dtype=float)
        self.y_ = np.asarray(state["y"], dtype=np.int64)
