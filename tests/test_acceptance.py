"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from driverlens.cli import main as cli_main
from driverlens.config import PipelineConfig
from driverlens.explain import (
    LimeConfig,
    explain_instance,
    fit_discretizer,
    kernel_weights,
    perturb,
)
from driverlens.metrics import classification_metrics, regression_style_metrics
from driverlens.models import ModelSpec, train
from driverlens.preprocess import (
    apply_scaler,
    fit_scaler,
    random_oversample,
    stratified_shuffle_splits,
)
from driverlens.rng import xor_seed
from driverlens.pipeline import run_stage
from driverlens.synth import SynthSpec, synth_generate

from test_explain import LinearSoftmaxModel, oracle_ridge_lstsq
from test_metrics import oracle_classification, oracle_regression
from test_preprocess import make_dataset
from test_tree_oracle import (
    impl_training_loss,
    oracle_grow,
    oracle_training_loss,
    random_instance,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            print(f"[PASS] criterion {number}: {label}")
        return wrapper
    return decorate


@criterion(1, "metric oracle suite (>=20 vectors, 1e-12, <1s)")
def test_criterion_1_metric_oracles():
    start = time.monotonic()
    cls_cases = [
        ([0, 0, 1, 1], [0, 0, 1, 1]),
        ([0, 1], [1, 0]),
        ([0, 0, 0, 1], [0, 0, 1, 1]),  # worked example: acc .75, f1 .76667
        ([0, 1, 2, 1, 0], [0, 2, 2, 1, 1]),
        ([2, 2, 2, 2], [2, 2, 2, 2]),
        ([0, 1, 2, 3], [3, 2, 1, 0]),
        ([1, 1, 0, 0, 1], [1, 0, 0, 1, 1]),
        ([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 0, 2]),
    ]
    for y_true, y_pred in cls_cases:
        got = classification_metrics(y_true, y_pred)
        want = oracle_classification(y_true, y_pred)
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))

    acc, _, _, f1 = classification_metrics([0, 0, 0, 1], [0, 0, 1, 1])
    assert abs(acc - 0.75) <= 1e-12
    assert abs(f1 - (3 * 0.8 + 2 / 3) / 4) <= 1e-12

    reg_cases = [
        ([0, 1, 2], [0, 1, 2]),        # perfect fit
        ([0, 1, 2], [1, 1, 1]),        # mean predictor
        ([0, 0, 2, 2], [2, 2, 0, 0]),  # worked example: mse 4, r2 -3
        ([0, 1], [1, 0]),
        ([0, 2, 1, 1], [1, 1, 1, 1]),
        ([3, 0, 3, 0, 3], [3, 3, 0, 0, 3]),
        ([1, 2, 3, 4, 5], [1, 2, 3, 4, 4]),
        ([0, 1, 0, 1], [0, 1, 1, 0]),
        ([2, 0, 1], [0, 1, 2]),
        ([0, 4, 2, 2], [1, 3, 2, 2]),
        ([5, 1, 1, 5], [5, 5, 1, 1]),
        ([0, 1, 2, 2, 1, 0], [0, 0, 2, 2, 1, 1]),
    ]
    for y_true, y_pred in reg_cases:
        got = regression_style_metrics([float(v) for v in y_true],
                                       [float(v) for v in y_pred])
        want = oracle_regression([float(v) for v in y_true],
                                 [float(v) for v in y_pred])
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))

    mse, rmse, r2, ev, d2 = regression_style_metrics([0, 0, 2, 2], [2, 2, 0, 0])
    assert (abs(mse - 4) <= 1e-12 and abs(r2 + 3) <= 1e-12
            and abs(ev + 3) <= 1e-12 and abs(d2 + 3) <= 1e-12)
    assert len(cls_cases) + len(reg_cases) >= 20
    assert time.monotonic() - start < 1.0


@criterion(2, "d2 == r2 on 1000 random vector pairs (1e-12)")
def test_criterion_2_d2_r2_identity():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        y = rng.normal(size=n)
        if np.all(y == y[0]):
            continue
        yhat = rng.normal(size=n)
        _, _, r2, _, d2 = regression_style_metrics(y, yhat)
        assert abs(d2 - r2) <= 1e-12


@criterion(3, "preprocessing invariants (oversample, scaler, 20 splits)")
def test_criterion_3_preprocessing_invariants():
    data = synth_generate(SynthSpec(n_rows=500, n_features=6, n_informative=2,
                                    seed=3))
    counts = np.bincount(data.y)
    balanced = random_oversample(data, 30)
    assert np.all(np.bincount(balanced.y) == counts.max())

    scaler = fit_scaler(balanced.X)
    scaled = apply_scaler(balanced.X, scaler)
    non_constant = scaler.std > 0
    assert np.all(np.abs(scaled[:, non_constant].mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(scaled[:, non_constant].std(axis=0) - 1.0) <= 1e-9)

    splits = stratified_shuffle_splits(balanced, repeats=20, test_frac=0.12,
                                       rng=17)
    assert len(splits) == 20
    class_counts = np.bincount(balanced.y)
    for split in splits:
        test_y = balanced.y[split.test]
        for c, count in enumerate(class_counts):
            assert abs(int(np.sum(test_y == c)) - count * 0.12) <= 1.0


@criterion(4, "depth-2 tree equals exhaustive split search on 50 instances (<10s)")
def test_criterion_4_tree_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    for _ in range(50):
        X, y, C = random_instance(rng)
        model = train(ModelSpec("DTC", {"max_depth": 2}, 0), X, y)
        got = impl_training_loss(model, X)
        want = oracle_training_loss(oracle_grow(X, y, 0, 2, C), C)
        assert abs(got - want) <= 1e-12
    assert time.monotonic() - start < 10.0


@criterion(5, "monotone training: GBC deviance (100 rounds), LR loss (500 steps)")
def test_criterion_5_monotone_training():
    data = synth_generate(SynthSpec(n_rows=300, n_features=6, n_informative=3,
                                    separation=2.0, seed=5))
    X = apply_scaler(data.X, fit_scaler(data.X))

    gbc = train(ModelSpec("GBC", {"n_rounds": 100}, 50), X, data.y)
    deviance = np.array(gbc.train_deviance_)
    assert deviance.size == 101
    assert np.all(np.diff(deviance) <= 1e-12)

    lr = train(ModelSpec("LR", {"max_iter": 500, "tol": 0.0}, 51), X, data.y)
    losses = np.array(lr.loss_history_)
    assert losses.size == 501
    assert np.all(np.diff(losses) <= 1e-12)


@criterion(6, "LIME linear recovery: Spearman >= 0.9 on >= 9/10 seeds (<30s)")
def test_criterion_6_lime_linear_recovery():
    start = time.monotonic()
    d = 8
    coefs = np.array([0.36, -0.30, 0.25, -0.20, 0.16, -0.12, 0.08, -0.04])
    model = LinearSoftmaxModel(np.column_stack([np.zeros(d), coefs]))
    passes = 0
    for seed in range(10):
        rng = np.random.default_rng(6000 + seed)
        X = rng.normal(size=(400, d))
        X[0] = np.quantile(X[1:], 0.9, axis=0)
        data = make_dataset(X, (X[:, 0] > 0).astype(int))
        config = LimeConfig(n_samples=4000, seed=seed, k_features=d)
        exp = explain_instance(model, data, 0, config)

        # closed-form check on the same perturbation set: rebuild it from the
        # derived per-instance stream and solve the ridge by stacked lstsq
        disc = fit_discretizer(data.X)
        gen = np.random.default_rng(xor_seed(config.seed, 0))
        X_pert, Z = perturb(data.X[0], disc, config.n_samples, gen)
        weights = kernel_weights(Z, config.resolve_width(d))
        target_class = int(model.predict(data.X[0].reshape(1, -1))[0])
        y_target = model.predict_proba(X_pert)[:, target_class]
        beta, intercept = oracle_ridge_lstsq(Z, y_target, weights,
                                             config.ridge_alpha)
        assert np.allclose(exp.weights, beta, atol=1e-6)
        assert abs(exp.intercept - intercept) <= 1e-6

        rho = spearmanr(np.abs(exp.weights),
                        np.abs(coefs) * X.std(axis=0)).statistic
        passes += rho >= 0.9
    assert passes >= 9
    assert time.monotonic() - start < 30.0


@pytest.fixture(scope="module")
def recovery_runs(tmp_path_factory):
    """Ten seeded selection runs on the 18-feature synthetic generator."""
    out = tmp_path_factory.mktemp("recovery")
    runs = []
    start = time.monotonic()
    for seed in range(10):
        config = PipelineConfig(
            seed=seed,
            synth=SynthSpec(n_rows=2000, n_features=18, n_informative=5,
                            separation=3.0, seed=7000 + seed),
            repeats=5,
            models=[ModelSpec("LR", {}, seed), ModelSpec("GNB", {}, seed + 1)],
            lime=LimeConfig(n_samples=2000, seed=seed),
            select_k=10,
            n_explain=100,
            out_dir=str(out / f"seed{seed}"),
        )
        report = run_stage(config, "run")
        best_before = max(report.before, key=lambda r: (r.accuracy, r.f1_weighted))
        best_after = next(r for r in report.after if r.model == report.best_model)
        runs.append({
            "selected": set(report.selected_indices),
            "before": best_before.accuracy,
            "after": best_after.accuracy,
        })
    return runs, time.monotonic() - start


@criterion(7, "top-10 selection recovers >= 4/5 informative features "
              "in >= 8/10 runs (<5min)")
def test_criterion_7_feature_recovery(recovery_runs):
    runs, elapsed = recovery_runs
    informative = set(range(5))
    hits = sum(len(informative & run["selected"]) >= 4 for run in runs)
    assert hits >= 8
    assert elapsed < 300.0


@criterion(8, "best-model accuracy changes by <= 0.05 after selection")
def test_criterion_8_small_accuracy_change(recovery_runs):
    runs, _ = recovery_runs
    for run in runs:
        assert abs(run["after"] - run["before"]) <= 0.05


@criterion(9, "byte-identical report.json across reruns")
def test_criterion_9_determinism(tmp_path):
    def run(out_dir):
        doc = {
            "seed": 42,
            "input": {"synth": {"n_rows": 240, "n_features": 8,
                                "n_informative": 3}},
            "splits": {"repeats": 3, "test_frac": 0.12},
            "models": ["LR", "GNB", "KNN",
                       {"algorithm": "RFC", "hyperparameters": {"n_trees": 10}}],
            "lime": {"n_samples": 400},
            "select_k": 5,
            "n_explain": 12,
            "out_dir": str(out_dir),
        }
        config_path = tmp_path / f"config_{out_dir.name}.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli_main(["run", "--config", str(config_path), "--seed", "42"])
        assert code == 0
        return (out_dir / "report.json").read_bytes()

    assert run(tmp_path / "a") == run(tmp_path / "b")


@criterion(10, "CSV run emits report.md with the fixed two-table layout")
def test_criterion_10_format_reproduction(tmp_path):
    rng = np.random.default_rng(10)
    roads = ["dry", "icy", "snowy", "wet"]
    lighting = ["dark", "daylight", "dusk"]
    styles = ["aggressive", "normal", "vague"]
    numeric_names = [
        "vehicle_speed", "vehicle_length", "air_temperature",
        "relative_humidity", "preceding_vehicle_speed", "traffic_density",
        "wind_speed", "precipitation", "road_slope", "lane_count",
        "visibility", "acceleration", "braking_rate", "steering_variance",
        "trip_duration", "time_of_day",
    ]
    header = numeric_names + ["road_conditions", "lighting_condition",
                              "driving_style"]
    assert len(header) == 18 + 1
    lines = [",".join(header)]
    for _ in range(150):
        c = int(rng.integers(0, 3))
        numeric = rng.normal(loc=c, scale=1.0, size=len(numeric_names))
        cells = [f"{v:.4f}" for v in numeric]
        cells.append(roads[int(rng.integers(len(roads)))])
        cells.append(lighting[int(rng.integers(len(lighting)))])
        cells.append(styles[c])
        lines.append(",".join(cells))
    csv_path = tmp_path / "drivers.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    doc = {
        "seed": 1,
        "input": {"csv": str(csv_path), "target": "driving_style"},
        "splits": {"repeats": 2, "test_frac": 0.12},
        "models": ["LR", "DTC", "GNB"],
        "lime": {"n_samples": 300},
        "n_explain": 6,
        "out_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["run", "--config", str(config_path)]) == 0

    text = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    header_line = "| Model Name | Accuracy | F1 Score | EV | MSE | RMSE | R² | D² Score |"
    assert text.count(header_line) == 2
    before_idx = text.index("before feature selection")
    after_idx = text.index("after feature selection")
    assert before_idx < text.index(header_line) < after_idx
