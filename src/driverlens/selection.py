"""Global feature ranking from local explanations, and the before/after loop.

aggregate_importance averages absolute explanation weights into one score per
feature; select_top_k keeps the best-ranked features; retrain_compare drives
the whole comparison: evaluate every model, explain the best one, select
features, re-evaluate everything on the reduced feature set.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import NUMERIC, ColumnSchema, Dataset
from .errors import DataError
from .explain import Explanation, explain_instance, fit_discretizer
from .metrics import MetricsRecord, evaluate, markdown_table
from .models import ModelSpec, train
from .preprocess import (
    _oversample_rows,
    apply_scaler,
    fit_scaler,
    random_oversample,
    stratified_shuffle_splits,
)
from .rng import derive_seed, stream


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

    def to_markdown(self) -> str:
        lines = [
            "# Model comparison report",
            "",
            "Regression-style columns (EV, MSE, RMSE, R², D² Score) are",
            "label-code regression metrics: they treat integer class codes as",
            "real values.",
            "",
            "## Model performance before feature selection",
            "",
            markdown_table(self.before),
            "",
            "## Model performance after feature selection",
            "",
            markdown_table(self.after),
            "",
            f"Best model before selection: **{self.best_model}** "
            "(highest accuracy, ties broken by F1 score).",
            "",
            f"Selected features ({len(self.selected_features)}, from "
            f"{self.n_explanations} explanations): "
            + ", ".join(self.selected_features),
            "",
        ]
        return "\n".join(lines)


def pick_best(records: list[MetricsRecord]) -> int:
    """Index of the winning record: highest accuracy, then highest F1."""
    best = 0
    for i in range(1, len(records)):
        r, b = records[i], records[best]
        if (r.accuracy, r.f1_weighted) > (b.accuracy, b.f1_weighted):
            best = i
    return best


def _prepare(data: Dataset, config):
    """Preprocess per the configured order and build the splits.

    Default order mirrors the training recipe literally (oversample, scale,
    then split), which leaks duplicated rows across the split boundary; the
    leak-safe mode splits first and redoes oversampling/scaling inside each
    split on train rows only. Returns (data, splits, transform, scaler):
    transform is the per-split step in leak-safe mode, and scaler the one
    scaler applied to every row in the default mode; each is None otherwise.
    """
    if config.leak_safe:
        splits = stratified_shuffle_splits(
            data, config.repeats, config.test_frac, stream(config.seed, "splits")
        )

        oversample = config.oversample

        def transform(X_tr, y_tr, X_te, split_index):
            if oversample:
                X_tr, y_tr = _oversample_rows(
                    X_tr, y_tr, stream(config.seed, "oversample", split_index)
                )
            scaler = fit_scaler(X_tr)
            return apply_scaler(X_tr, scaler), y_tr, apply_scaler(X_te, scaler)

        return data, splits, transform, None

    balanced = (
        random_oversample(data, stream(config.seed, "oversample"))
        if config.oversample
        else data
    )
    scaler = fit_scaler(balanced.X, feature_names=balanced.feature_names())
    prepared = Dataset(
        X=apply_scaler(balanced.X, scaler),
        y=balanced.y,
        schema=balanced.schema,
        classes=balanced.classes,
    )
    splits = stratified_shuffle_splits(
        prepared, config.repeats, config.test_frac, stream(config.seed, "splits")
    )
    return prepared, splits, None, scaler


def _evaluate_all(specs, splits, data, transform, phase, threads):
    def job(spec):
        return evaluate(spec, splits, data, per_split_transform=transform,
                        phase=phase)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(job, specs))
    return [job(spec) for spec in specs]


def _explanation_context(best_spec, splits, data, transform):
    """Train the winner exactly as the first evaluation split did."""
    split = splits[0]
    X_tr, y_tr = data.X[split.train], data.y[split.train]
    X_te, y_te = data.X[split.test], data.y[split.test]
    if transform is not None:
        X_tr, y_tr, X_te = transform(X_tr, y_tr, X_te, 0)
    model = train(best_spec.with_seed(derive_seed(best_spec.seed, "eval-split", 0)),
                  X_tr, y_tr)
    return model, X_tr, X_te, y_te


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


class StagedComparison:
    """Incremental driver for the before/after loop.

    Stages run lazily in order (prepare, evaluate_before, explain_best,
    rank_and_select, evaluate_after); each one triggers its prerequisites, so
    callers can stop after any stage and still get consistent state.
    """

    def __init__(self, specs: list[ModelSpec], data: Dataset, config):
        if not specs:
            raise DataError("no model specs supplied")
        self.specs = specs
        self.data = data
        self.config = config
        self.threads = getattr(config, "threads", 1)
        self.prepared = None
        self.splits = None
        self.transform = None
        self.scaler = None
        self.before = None
        self.best_spec = None
        self.best_model = None
        self.explanations = None
        self.ranking = None
        self.selected = None
        self.after = None

    def prepare(self):
        if self.prepared is None:
            self.prepared, self.splits, self.transform, self.scaler = _prepare(
                self.data, self.config
            )
        return self.prepared, self.splits

    def evaluate_before(self):
        if self.before is None:
            self.prepare()
            self.before = _evaluate_all(
                self.specs, self.splits, self.prepared, self.transform,
                "before", self.threads,
            )
            self.best_spec = self.specs[pick_best(self.before)]
        return self.before

    def explain_best(self):
        if self.explanations is None:
            self.evaluate_before()
            model, X_tr, X_te, y_te = _explanation_context(
                self.best_spec, self.splits, self.prepared, self.transform
            )
            self.best_model = model
            # explanations run in the model's input space, where scaling has
            # made every column continuous: discretize them all as numeric
            test_dataset = Dataset(
                X=X_te,
                y=y_te,
                schema=tuple(
                    ColumnSchema(name=c.name, kind=NUMERIC, index=c.index)
                    for c in self.prepared.schema
                ),
                classes=self.prepared.classes,
            )
            predicted = model.predict(X_te)
            groups = {
                c: np.flatnonzero(predicted == c)
                for c in range(self.prepared.n_classes)
            }
            groups = {c: rows for c, rows in groups.items() if rows.size}
            positions = _stratified_sample(
                groups, self.config.n_explain,
                stream(self.config.seed, "explain-sample"),
            )
            # the discretizer needs the training distribution, not the test one
            disc = fit_discretizer(X_tr, kinds=None)
            lime = self.config.lime

            def explain_one(pos):
                return explain_instance(model, test_dataset, int(pos), lime,
                                        discretizer=disc)

            if self.threads > 1:
                with ThreadPoolExecutor(max_workers=self.threads) as pool:
                    self.explanations = list(pool.map(explain_one, positions))
            else:
                self.explanations = [explain_one(pos) for pos in positions]
        return self.explanations

    def rank_and_select(self):
        if self.selected is None:
            self.explain_best()
            self.ranking = aggregate_importance(
                self.explanations, feature_names=self.prepared.feature_names()
            )
            if self.config.select_k > self.prepared.n_features:
                warnings.warn(
                    f"select_k={self.config.select_k} exceeds the "
                    f"{self.prepared.n_features} available features; "
                    "keeping all of them",
                    stacklevel=2,
                )
            self.selected = select_top_k(self.ranking, self.config.select_k)
        return self.ranking, self.selected

    def evaluate_after(self):
        if self.after is None:
            self.rank_and_select()
            reduced = reduce_dataset(self.prepared, self.selected)
            self.after = _evaluate_all(
                self.specs, self.splits, reduced, self.transform,
                "after", self.threads,
            )
        return self.after

    def report(self) -> ComparisonReport:
        self.evaluate_after()
        return ComparisonReport(
            before=self.before,
            after=self.after,
            best_model=self.best_spec.algorithm,
            selected_indices=self.selected,
            selected_features=[self.prepared.schema[j].name for j in self.selected],
            ranking=self.ranking,
            n_explanations=len(self.explanations),
        )


def retrain_compare(specs: list[ModelSpec], data: Dataset, config) -> ComparisonReport:
    """Full before/after comparison on an encoded (numeric) dataset.

    Evaluates every spec, explains the best one on a stratified sample of the
    first split's test rows, aggregates the explanations into a feature
    ranking, keeps the top k features, and re-evaluates every spec on the
    reduced dataset with the same splits.
    """
    return StagedComparison(specs, data, config).report()
