"""Model zoo: eleven classifiers behind one train / predict contract.

Algorithms are addressed by their report row ids:

    LR   multinomial softmax regression (gradient descent)
    DTC  decision tree (CART, Gini)
    RFC  random forest            ETC  extremely randomized trees
    GBC  gradient boosting        ABC  adaptive boosting (multiclass stumps)
    KNN  k nearest neighbors      GNB  Gaussian naive Bayes
    MNB  multinomial naive Bayes (shifted)
    LDA  linear discriminant      QDA  quadratic discriminant
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .base import Classifier
from .bayes import GaussianNaiveBayes, MultinomialNaiveBayes
from .ensemble import (
    AdaBoostClassifier,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from .linear import (
    LinearDiscriminantAnalysis,
    LogisticRegression,
    QuadraticDiscriminantAnalysis,
)
from .neighbors import KNearestNeighbors
from .tree import DecisionTreeClassifier

REGISTRY: dict[str, type[Classifier]] = {
    cls.algorithm: cls
    for cls in (
        LogisticRegression,
        DecisionTreeClassifier,
        RandomForestClassifier,
        ExtraTreesClassifier,
        GradientBoostingClassifier,
        AdaBoostClassifier,
        KNearestNeighbors,
        GaussianNaiveBayes,
        MultinomialNaiveBayes,
        LinearDiscriminantAnalysis,
        QuadraticDiscriminantAnalysis,
    )
}

ALGORITHMS = tuple(REGISTRY)  # canonical report order


@dataclass(frozen=True)
class ModelSpec:
    """Algorithm id, hyperparameter overrides, and a seed."""

    algorithm: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in REGISTRY:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {', '.join(ALGORITHMS)}"
            )
        REGISTRY[self.algorithm].check_hyperparameters(self.hyperparameters)
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))

    def with_seed(self, seed: int) -> "ModelSpec":
        return ModelSpec(self.algorithm, dict(self.hyperparameters), int(seed))

    def build(self) -> Classifier:
        return REGISTRY[self.algorithm](seed=self.seed, **self.hyperparameters)


def train(spec: ModelSpec, X, y) -> Classifier:
    """Fit the spec'd model on (X, y)."""
    return spec.build().fit(X, y)

