"""Global feature ranking from local explanations, and the steps of the
before/after comparison.

aggregate_importance averages absolute explanation weights into one score per
feature; select_top_k keeps the best-ranked features. The comparison's steps,
which pipeline.run_stage calls in order, are plain functions: _prepare
(preprocess and split), metrics.evaluate (every model, before), explain_best
(the winner, fitted by evaluate's own helpers as split 0 fitted it),
rank_and_select, reduce_splits, and metrics.evaluate again on the reduced
features (after). Only _prepare and reduce_splits tell the two preprocessing
modes apart: every split they return carries the scaler it applies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import ColumnSchema, Dataset
from .errors import DataError
from .explain import Explanation, explain_instance, fit_discretizer
from .metrics import MetricsRecord, markdown_table, split_rows, train_on_split
from .preprocess import (
    ScalerParams,
    SplitIndices,
    _draw_strata,
    _largest_remainder,
    _oversample_rows,
    fit_scaler,
    random_oversample,
    stratified_shuffle_splits,
)
from .rng import stream


@dataclass(frozen=True)
class FeatureRanking:
    """Mean absolute explanation weight per feature, with ranks.

    ranks are a permutation of 1..d in descending score order (ties go to
    the lower feature index). positive_share is the fraction of explanations
    whose signed weight was >= 0.
    """

    scores: np.ndarray
    ranks: np.ndarray
    positive_share: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        ranks = np.asarray(self.ranks, dtype=np.int64)
        share = np.asarray(self.positive_share, dtype=float)
        if not (scores.shape == ranks.shape == share.shape) or scores.ndim != 1:
            raise DataError("ranking arrays must be 1-d and of equal length")
        if sorted(ranks.tolist()) != list(range(1, scores.size + 1)):
            raise DataError("ranks must be a permutation of 1..d")
        if np.any(scores < 0):
            raise DataError("importance scores must be non-negative")
        if self.names is not None and len(self.names) != scores.size:
            raise DataError(f"ranking has {len(self.names)} feature names "
                            f"for {scores.size} features")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "positive_share", share)

    def to_json_dict(self) -> dict:
        names = self.names or tuple(f"f{j}" for j in range(self.scores.size))
        order = np.argsort(self.ranks)
        return {
            "features": [
                {
                    "name": names[j],
                    "index": int(j),
                    "score": float(self.scores[j]),
                    "rank": int(self.ranks[j]),
                    "positive_share": float(self.positive_share[j]),
                }
                for j in order
            ]
        }


def aggregate_importance(
    explanations: list[Explanation], feature_names=None
) -> FeatureRanking:
    """score_j = mean over explanations of |weight_j|."""
    if not explanations:
        raise DataError("cannot aggregate an empty explanation list")
    d = explanations[0].weights.size
    for e in explanations:
        if e.weights.size != d:
            raise DataError("explanations cover different feature counts")
    stacked = np.vstack([e.weights for e in explanations])
    scores = np.abs(stacked).mean(axis=0)
    positive_share = (stacked >= 0).mean(axis=0)
    order = np.argsort(-scores, kind="stable")  # ties -> lower feature index
    ranks = np.empty(d, dtype=np.int64)
    ranks[order] = np.arange(1, d + 1)
    names = tuple(feature_names) if feature_names is not None else None
    return FeatureRanking(
        scores=scores, ranks=ranks, positive_share=positive_share, names=names
    )


def select_top_k(ranking: FeatureRanking, k: int = 10) -> list[int]:
    """Indices of the min(k, d) best-ranked features, in schema order."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    k = min(k, ranking.scores.size)
    chosen = np.flatnonzero(ranking.ranks <= k)
    return chosen.tolist()


def reduce_dataset(data: Dataset, features: list[int]) -> Dataset:
    """Restrict to the given feature columns (re-indexed, schema order kept)."""
    idx = list(features)
    if len(set(idx)) != len(idx):
        raise DataError("duplicate feature indices in selection")
    for j in idx:
        if not 0 <= j < data.n_features:
            raise DataError(f"feature index {j} out of range 0..{data.n_features - 1}")
    idx = sorted(idx)
    schema = tuple(
        ColumnSchema(name=data.schema[j].name, kind=data.schema[j].kind, index=pos)
        for pos, j in enumerate(idx)
    )
    return Dataset(X=data.X[:, idx], y=data.y, schema=schema, classes=data.classes)


@dataclass
class ComparisonReport:
    """Before/after metrics for every model plus the selection that links them."""

    before: list[MetricsRecord]
    after: list[MetricsRecord]
    best_model: str
    selected_indices: list[int]
    selected_features: list[str]
    ranking: FeatureRanking
    n_explanations: int
    config_echo: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "best_model": self.best_model,
            "selected_features": list(self.selected_features),
            "selected_indices": [int(j) for j in self.selected_indices],
            "n_explanations": self.n_explanations,
            "before": [r.to_json_dict() for r in self.before],
            "after": [r.to_json_dict() for r in self.after],
            "ranking": self.ranking.to_json_dict(),
            "config": self.config_echo,
        }

    def _tables(self, before_heading: str, after_heading: str) -> list[str]:
        """The before and after tables as lines, each under its heading."""
        return [before_heading, markdown_table(self.before), "",
                after_heading, markdown_table(self.after), ""]

    def to_markdown(self) -> str:
        lines = [
            "# Model comparison report",
            "",
            "Regression-style columns (EV, MSE, RMSE, R², D² Score) are",
            "label-code regression metrics: they treat integer class codes as",
            "real values.",
            "",
            # a trailing newline puts a blank line under each heading
            *self._tables("## Model performance before feature selection\n",
                          "## Model performance after feature selection\n"),
            f"Best model before selection: **{self.best_model}** "
            "(highest accuracy, ties broken by F1 score).",
            "",
            f"Selected features ({len(self.selected_features)}, from "
            f"{self.n_explanations} explanations): "
            + ", ".join(self.selected_features),
            "",
        ]
        return "\n".join(lines)

    def to_text(self) -> str:
        """Plain-text before/after tables for the compare subcommand."""
        return "\n".join([
            *self._tables("Before feature selection:", "After feature selection:"),
            f"Best model: {self.best_model}",
            "Selected features: " + ", ".join(self.selected_features),
        ])


def pick_best(records: list[MetricsRecord]) -> int:
    """Index of the winning record: highest accuracy, then highest F1."""
    best = 0
    for i in range(1, len(records)):
        r, b = records[i], records[best]
        if (r.accuracy, r.f1_weighted) > (b.accuracy, b.f1_weighted):
            best = i
    return best


def _fit_own_scalers(splits, data: Dataset) -> list[SplitIndices]:
    """The splits, each with a scaler fitted on its own training rows."""
    names = data.feature_names()
    return [replace(s, scaler=fit_scaler(data.X[s.train], feature_names=names))
            for s in splits]


def _prepare(data: Dataset, config) -> tuple[Dataset, list[SplitIndices]]:
    """Preprocess per the configured order and build the splits, each
    carrying the scaler it applies to the returned, unscaled rows.

    The default order mirrors the training recipe literally (oversample,
    scale, then split): all splits share one scaler, and duplicated rows leak
    across the split boundary. Leak-safe mode splits first, appends each
    split's oversampled duplicates of its own training rows to its train
    side, and fits each split's scaler on those rows only.
    """
    if config.oversample and not config.leak_safe:
        data = random_oversample(data, stream(config.seed, "oversample"))
    splits = stratified_shuffle_splits(data, config.repeats, config.test_frac,
                                       stream(config.seed, "splits"))
    if splits[0].test.size < 2:
        raise DataError(f"test_frac {config.test_frac} of {data.n_rows} rows "
                        "leaves 1 test row per split; scoring needs at least 2")
    if not config.leak_safe:
        scaler = fit_scaler(data.X, feature_names=data.feature_names())
        return data, [replace(split, scaler=scaler) for split in splits]
    if config.oversample:
        splits = [replace(s, train=s.train[_oversample_rows(
                      data.y[s.train], stream(config.seed, "oversample", i))])
                  for i, s in enumerate(splits)]
    return data, _fit_own_scalers(splits, data)


def reduce_splits(data: Dataset, splits, features: list[int],
                  config) -> tuple[Dataset, list[SplitIndices]]:
    """data and the splits' scalers cut down to the given feature columns.

    Leak-safe splits refit their scalers on the kept columns. Default-mode
    splits keep sharing theirs, cut: a refit would sum a single kept column
    pairwise and round differently from the scaling applied before.
    """
    reduced = reduce_dataset(data, features)
    if config.leak_safe:
        return reduced, _fit_own_scalers(splits, reduced)
    scaler, kept = splits[0].scaler, sorted(features)
    cut = ScalerParams(scaler.mean[kept], scaler.std[kept], reduced.feature_names())
    return reduced, [replace(split, scaler=cut) for split in splits]


def explain_best(best_spec, splits, data: Dataset, config) -> list[Explanation]:
    """Explain the winner on config.n_explain of split 0's test rows, sampled
    in proportion to the classes the model predicts for them; each row's
    explanation is of the class it was sampled under."""
    # the winner, trained exactly as the first evaluation split trained it
    X_tr, y_tr, X_te, y_te = split_rows(splits[0], data)
    model = train_on_split(best_spec, X_tr, y_tr, 0)
    test_dataset = Dataset(X=X_te, y=y_te, schema=data.schema,
                           classes=data.classes)
    predicted = model.predict(X_te)
    groups = [np.flatnonzero(predicted == c) for c in range(data.n_classes)]
    sizes = np.array([rows.size for rows in groups])
    total = min(config.n_explain, y_te.size)
    counts = _largest_remainder(sizes * total / y_te.size, total, sizes)
    positions, _ = _draw_strata(groups, counts,
                                stream(config.seed, "explain-sample"))
    # the discretizer needs the training distribution, not the test one
    disc = fit_discretizer(X_tr)
    return [
        explain_instance(model, test_dataset, int(pos), config.lime,
                         discretizer=disc, class_code=int(predicted[pos]))
        for pos in positions
    ]


def rank_and_select(explanations: list[Explanation], data: Dataset,
                    config) -> tuple[FeatureRanking, list[int]]:
    """Rank the features by the explanations and keep the top config.select_k."""
    ranking = aggregate_importance(explanations,
                                   feature_names=data.feature_names())
    if config.select_k > data.n_features:
        warnings.warn(
            f"select_k={config.select_k} exceeds the {data.n_features} "
            "available features; keeping all of them",
            stacklevel=2,
        )
    return ranking, select_top_k(ranking, config.select_k)
