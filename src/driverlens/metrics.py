"""Evaluation metrics on predicted vs true class codes.

Classification metrics come from per-class confusion counts; the remaining
quantities treat the integer class codes as real values (the report flags
them as label-code regression metrics). Variances use the population
convention throughout, matching the scaler.

Goodness-of-fit conventions:
  r2 = 1 - SSR/SST (the standard form; SSR/SST alone cannot go negative)
  ev = 1 - Var(residual)/Var(y)
  d2 = fraction of null deviance explained with squared-error deviance,
       which makes it identical to r2 by construction.
Fields that divide by Var(y) are returned as NaN when y is constant.

evaluate scores model specs over splits; split_rows applies the scaler each
split carries, so this module never knows how the rows are preprocessed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .errors import DataError
from .models import ModelSpec, train
from .models.base import class_codes
from .preprocess import SplitIndices, apply_scaler
from .rng import derive_seed

TABLE_COLUMNS = ("Model Name", "Accuracy", "F1 Score", "EV", "MSE", "RMSE", "R²", "D² Score")


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-class TP/FP/FN/TN tallies over T observations."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    total: int


@dataclass
class MetricsRecord:
    """One table row: a model's averaged scores in one phase."""

    model: str
    phase: str  # "before" or "after"
    accuracy: float
    f1_weighted: float
    ev: float
    mse: float
    rmse: float
    r2: float
    d2: float

    def to_json_dict(self) -> dict:
        return asdict(self)  # fields in declaration order

    def markdown_row(self) -> str:
        def fmt(x: float) -> str:
            return "undefined" if math.isnan(x) else f"{x:.3f}"

        cells = [self.model, fmt(self.accuracy), fmt(self.f1_weighted), fmt(self.ev),
                 fmt(self.mse), fmt(self.rmse), fmt(self.r2), fmt(self.d2)]
        return "| " + " | ".join(cells) + " |"


def confusion_counts(y_true, y_pred, n_classes: int | None = None) -> ConfusionCounts:
    y_true = class_codes(y_true, "metrics: y_true")
    y_pred = class_codes(y_pred, "metrics: y_pred")
    if y_true.size == 0:
        raise DataError("empty inputs")
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred must be of equal length")
    top = int(max(y_true.max(), y_pred.max()))
    C = n_classes or top + 1
    if top >= C:
        raise DataError(f"class codes must be below n_classes={C}")
    # matrix[t, p] counts the rows of true class t predicted as class p
    matrix = np.bincount(y_true * C + y_pred, minlength=C * C).reshape(C, C)
    tp = matrix.diagonal().copy()
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    total = y_true.size
    tn = total - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn, total=total)


def classification_metrics(y_true, y_pred) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1), averaged over classes by
    true-class support.

    Per class: precision = TP/(TP+FP), recall = TP/(TP+FN), both 0 when the
    denominator is 0; F1 is their harmonic mean (0 when both are 0).
    """
    counts = confusion_counts(y_true, y_pred)
    tp, fp, fn = counts.tp.astype(float), counts.fp.astype(float), counts.fn.astype(float)
    support = tp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    accuracy = float(tp.sum() / counts.total)
    weights = support / counts.total
    return (
        accuracy,
        float(np.sum(weights * precision)),
        float(np.sum(weights * recall)),
        float(np.sum(weights * f1)),
    )


def regression_style_metrics(y_true, y_pred) -> tuple[float, float, float, float, float]:
    """(mse, rmse, r2, ev, d2) treating class codes as real values.

    r2/ev/d2 are NaN when y_true is constant (their denominator vanishes);
    mse and rmse are always returned.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size < 2:
        raise DataError("need two 1-d vectors of equal length >= 2")
    residual = y_true - y_pred
    mse = float(np.mean(residual**2))
    rmse = math.sqrt(mse)
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        return mse, rmse, float("nan"), float("nan"), float("nan")
    r2 = 1.0 - float(np.sum(residual**2)) / sst
    ev = 1.0 - float(np.var(residual)) / float(np.var(y_true))
    d2 = r2  # squared-error deviance: explained deviance coincides with r2
    return mse, rmse, r2, ev, d2


def split_rows(split: SplitIndices, data: Dataset):
    """One split's (X_train, y_train, X_test, y_test), as every model of the
    split sees them.

    The split's scaler, when it carries one, is applied to both sides. The
    arrays are read-only views, so a model that writes into its input raises
    instead of altering the rows the next model sees.
    """
    X_tr, y_tr = data.X[split.train], data.y[split.train]
    X_te, y_te = data.X[split.test], data.y[split.test]
    if split.scaler is not None:
        X_tr, X_te = (apply_scaler(X, split.scaler) for X in (X_tr, X_te))
    rows = tuple(a.view() for a in (X_tr, y_tr, X_te, y_te))
    for a in rows:
        a.setflags(write=False)
    return rows


def train_on_split(spec, X_tr, y_tr, split_index: int):
    """Fit spec on one split's train rows, seeded for that split by
    derive_seed(spec.seed, "eval-split", split_index)."""
    return train(spec.with_seed(derive_seed(spec.seed, "eval-split", split_index)),
                 X_tr, y_tr)


def evaluate(
    specs,
    splits: list[SplitIndices],
    data: Dataset,
    phase: str = "before",
) -> list[MetricsRecord]:
    """Train/test every model spec on every split; one record per spec, in
    spec order, each field the mean over splits in ascending split order.

    Splits run outer: split_rows prepares each split's rows once, scaled by
    the scaler the split carries, and every model is retrained on them,
    seeded per split, and scored on the split's test rows.
    """
    if isinstance(specs, ModelSpec) or not all(isinstance(s, ModelSpec) for s in specs):
        raise DataError("evaluate expects a list of ModelSpec")
    if not splits:
        raise DataError("no splits supplied")
    per_split = np.empty((len(specs), len(splits), 7), dtype=float)
    for i, split in enumerate(splits):
        X_tr, y_tr, X_te, y_te = split_rows(split, data)
        for m, spec in enumerate(specs):
            y_hat = train_on_split(spec, X_tr, y_tr, i).predict(X_te)
            accuracy, _, _, f1_w = classification_metrics(y_te, y_hat)
            mse, rmse, r2, ev, d2 = regression_style_metrics(y_te, y_hat)
            per_split[m, i] = (accuracy, f1_w, ev, mse, rmse, r2, d2)
    # numpy pairwise summation over each model's splits, fixed order
    return [
        MetricsRecord(spec.algorithm, phase, *map(float, per_split[m].mean(axis=0)))
        for m, spec in enumerate(specs)
    ]


def markdown_table(records: list[MetricsRecord]) -> str:
    """Markdown table with the fixed column order used by the reports."""
    header = "| " + " | ".join(TABLE_COLUMNS) + " |"
    rule = "|" + "|".join(["---"] * len(TABLE_COLUMNS)) + "|"
    rows = [r.markdown_row() for r in records]
    return "\n".join([header, rule, *rows])
