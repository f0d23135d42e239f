"""Metric correctness against naive pure-Python oracles and frozen values."""

import math
from dataclasses import replace

import numpy as np
import pytest

from driverlens.errors import DataError
from driverlens.metrics import (
    MetricsRecord,
    classification_metrics,
    confusion_counts,
    evaluate,
    markdown_table,
    regression_style_metrics,
    split_rows,
)
from driverlens.models import ModelSpec
from driverlens.preprocess import (
    fit_scaler,
    random_oversample,
    stratified_shuffle_splits,
)

from test_preprocess import imbalanced_dataset, make_dataset


# --- independent oracles: plain Python loops, no numpy -----------------------

def oracle_classification(y_true, y_pred):
    C = max(max(y_true), max(y_pred)) + 1
    T = len(y_true)
    accuracy = sum(1 for a, b in zip(y_true, y_pred) if a == b) / T
    precision_w = recall_w = f1_w = 0.0
    for c in range(C):
        tp = sum(1 for a, b in zip(y_true, y_pred) if b == c and a == c)
        fp = sum(1 for a, b in zip(y_true, y_pred) if b == c and a != c)
        fn = sum(1 for a, b in zip(y_true, y_pred) if b != c and a == c)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        weight = (tp + fn) / T
        precision_w += weight * p
        recall_w += weight * r
        f1_w += weight * f
    return accuracy, precision_w, recall_w, f1_w


def oracle_regression(y_true, y_pred):
    N = len(y_true)
    mse = sum((a - b) ** 2 for a, b in zip(y_true, y_pred)) / N
    rmse = math.sqrt(mse)
    mean = sum(y_true) / N
    sst = sum((a - mean) ** 2 for a in y_true)
    if sst == 0.0:
        return mse, rmse, None, None, None
    r2 = 1.0 - sum((a - b) ** 2 for a, b in zip(y_true, y_pred)) / sst
    residual = [a - b for a, b in zip(y_true, y_pred)]
    res_mean = sum(residual) / N
    var_res = sum((x - res_mean) ** 2 for x in residual) / N
    ev = 1.0 - var_res / (sst / N)
    return mse, rmse, r2, ev, r2


class TestClassificationMetrics:
    def test_perfect_prediction(self):
        acc, _, _, f1 = classification_metrics([0, 0, 1, 1], [0, 0, 1, 1])
        assert acc == 1.0
        assert f1 == 1.0

    def test_total_miss(self):
        acc, _, _, _ = classification_metrics([0, 1], [1, 0])
        assert acc == 0.0

    def test_hand_worked_confusion(self):
        # class 0: P=1, R=2/3, F1=0.8; class 1: P=0.5, R=1, F1=2/3
        acc, _, _, f1 = classification_metrics([0, 0, 0, 1], [0, 0, 1, 1])
        assert acc == pytest.approx(0.75, abs=1e-12)
        assert f1 == pytest.approx((3 * 0.8 + 1 * (2 / 3)) / 4, abs=1e-12)
        assert f1 == pytest.approx(0.7666666666666666, abs=1e-12)

    def test_against_oracle_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            C = int(rng.integers(2, 5))
            y_true = rng.integers(0, C, size=n).tolist()
            y_pred = rng.integers(0, C, size=n).tolist()
            got = classification_metrics(y_true, y_pred)
            want = oracle_classification(y_true, y_pred)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12

    def test_relabel_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            C = int(rng.integers(2, 5))
            y_true = rng.integers(0, C, size=n)
            y_pred = rng.integers(0, C, size=n)
            perm = rng.permutation(C)
            base = classification_metrics(y_true, y_pred)
            relabeled = classification_metrics(perm[y_true], perm[y_pred])
            for g, w in zip(base, relabeled):
                assert abs(g - w) <= 1e-12

    def test_errors(self):
        with pytest.raises(DataError):
            classification_metrics([], [])
        with pytest.raises(DataError):
            classification_metrics([0, 1], [0])

    @pytest.mark.parametrize("bad", [
        [0.5, 1.0, 0.0, 1.0], [-1, 1, 0, 1], [0, 1, np.nan, 1],
        ["0", "1", "0", "1"], [[0, 1], [0, 1]]],
        ids=["fraction", "negative", "nan", "strings", "2-d"])
    def test_non_codes_rejected(self, bad):
        # a fraction used to be truncated: 0.5 scored as class 0
        codes = [0, 1, 0, 1]
        for y_true, y_pred, name in ((bad, codes, "y_true"),
                                     (codes, bad, "y_pred")):
            with pytest.raises(DataError, match=f"metrics: {name} must be"):
                classification_metrics(y_true, y_pred)
        assert classification_metrics([0.0, 1.0, 0.0, 1.0], codes)[0] == 1.0

    def test_confusion_counts_sum(self):
        counts = confusion_counts([0, 1, 2, 1], [0, 2, 2, 1])
        for c in range(3):
            assert counts.tp[c] + counts.fp[c] + counts.fn[c] + counts.tn[c] == 4
        assert counts.tp.sum() == 3

    def test_confusion_counts_match_the_per_class_loop(self):
        # the per-class masks confusion_counts used before its bincount
        rng = np.random.default_rng(11)
        for _ in range(300):
            C = int(rng.integers(1, 6))
            n = int(rng.integers(1, 40))
            y_true, y_pred = rng.integers(0, C, size=n), rng.integers(0, C, size=n)
            n_classes = C + int(rng.integers(0, 2))
            counts = confusion_counts(y_true, y_pred, n_classes=n_classes)
            for c in range(n_classes):
                tp = int(np.sum((y_pred == c) & (y_true == c)))
                fp = int(np.sum((y_pred == c) & (y_true != c)))
                fn = int(np.sum((y_pred != c) & (y_true == c)))
                assert (counts.tp[c], counts.fp[c], counts.fn[c]) == (tp, fp, fn)
                assert counts.tn[c] == n - tp - fp - fn

    def test_confusion_counts_reject_codes_beyond_n_classes(self):
        with pytest.raises(DataError, match="n_classes"):
            confusion_counts([0, 1, 2], [0, 1, 1], n_classes=2)
        with pytest.raises(DataError, match="n_classes"):
            confusion_counts([0, 1, 1], [0, 3, 1], n_classes=3)


class TestRegressionStyleMetrics:
    def test_perfect_fit(self):
        mse, rmse, r2, ev, d2 = regression_style_metrics([0, 1, 2], [0, 1, 2])
        assert (mse, rmse, r2, ev, d2) == (0.0, 0.0, 1.0, 1.0, 1.0)

    def test_mean_predictor_baseline(self):
        mse, rmse, r2, ev, d2 = regression_style_metrics([0, 1, 2], [1, 1, 1])
        assert mse == pytest.approx(2 / 3, abs=1e-12)
        assert r2 == pytest.approx(0.0, abs=1e-12)
        assert ev == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_hand_computation(self):
        mse, rmse, r2, ev, d2 = regression_style_metrics([0, 0, 2, 2], [2, 2, 0, 0])
        assert mse == pytest.approx(4.0, abs=1e-12)
        assert rmse == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(-3.0, abs=1e-12)
        assert ev == pytest.approx(-3.0, abs=1e-12)
        assert d2 == pytest.approx(-3.0, abs=1e-12)

    def test_against_oracle_on_random_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            y_true = rng.integers(0, 4, size=n).astype(float).tolist()
            y_pred = rng.integers(0, 4, size=n).astype(float).tolist()
            if len(set(y_true)) == 1:
                y_true[0] += 1.0
            got = regression_style_metrics(y_true, y_pred)
            want = oracle_regression(y_true, y_pred)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12

    def test_constant_truth_flags_undefined(self):
        mse, rmse, r2, ev, d2 = regression_style_metrics([1, 1, 1], [0, 1, 2])
        assert mse == pytest.approx(2 / 3, abs=1e-12)
        assert math.isnan(r2) and math.isnan(ev) and math.isnan(d2)

    def test_rmse_squared_equals_mse(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n)
            yhat = rng.normal(size=n)
            mse, rmse, *_ = regression_style_metrics(y, yhat)
            assert abs(rmse**2 - mse) <= 1e-12

    def test_r2_at_most_ev(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            y = rng.normal(size=n)
            yhat = rng.normal(size=n)
            _, _, r2, ev, _ = regression_style_metrics(y, yhat)
            assert r2 <= ev + 1e-12

    def test_r2_equals_ev_iff_zero_mean_residual(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        yhat = y + np.array([0.5, -0.5, 0.5, -0.5])  # zero-mean residual
        _, _, r2, ev, _ = regression_style_metrics(y, yhat)
        assert r2 == pytest.approx(ev, abs=1e-12)
        yhat_biased = y + 0.5
        _, _, r2b, evb, _ = regression_style_metrics(y, yhat_biased)
        assert r2b < evb


class TestEvaluate:
    def test_record_is_mean_over_splits(self):
        data = imbalanced_dataset([40, 25], seed=6)
        splits = stratified_shuffle_splits(data, repeats=5, rng=0)
        spec = ModelSpec("GNB", {}, seed=1)
        [record] = evaluate([spec], splits, data)
        assert record.model == "GNB"
        assert record.phase == "before"
        assert 0.0 <= record.accuracy <= 1.0
        assert record.d2 == pytest.approx(record.r2, abs=1e-15)

    def test_memorizer_hits_perfect_accuracy_after_duplication(self):
        # duplicated rows leak across the split boundary; a memorizing tree
        # then sees (almost surely) every test row at train time
        base = imbalanced_dataset([40, 5], seed=7)
        duplicated = random_oversample(base, 0)
        splits = stratified_shuffle_splits(duplicated, repeats=3, rng=1)
        [record] = evaluate([ModelSpec("DTC", {}, seed=0)], splits, duplicated)
        assert record.accuracy >= 0.95

    def test_models_share_a_split_but_score_as_if_alone(self):
        # every model of a split reuses the split's scaled rows; the
        # records must equal those of evaluating each model on its own
        from driverlens.config import PipelineConfig
        from driverlens.selection import _prepare
        from driverlens.synth import SynthSpec, synth_generate

        config = PipelineConfig(
            seed=5, synth=SynthSpec(n_rows=160, n_features=5, n_informative=2,
                                    seed=9),
            leak_safe=True, repeats=3, out_dir="unused")
        data, splits = _prepare(synth_generate(config.synth), config)
        a = ModelSpec("LR", {"max_iter": 40}, seed=1)
        b = ModelSpec("RFC", {"n_trees": 5}, seed=2)
        together = evaluate([a, b], splits, data, phase="after")
        alone = (evaluate([a], splits, data, phase="after")
                 + evaluate([b], splits, data, phase="after"))
        assert [r.to_json_dict() for r in together] == \
            [r.to_json_dict() for r in alone]

    def test_split_rows_are_read_only(self):
        data = imbalanced_dataset([20, 12], seed=2)
        splits = stratified_shuffle_splits(data, repeats=1, rng=0)
        scaled = replace(splits[0], scaler=fit_scaler(data.X[splits[0].train]))
        for array in [*split_rows(splits[0], data),
                      *split_rows(scaled, data)]:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_bare_spec_rejected(self):
        data = imbalanced_dataset([20, 12], seed=2)
        splits = stratified_shuffle_splits(data, repeats=1, rng=0)
        with pytest.raises(DataError, match="list of ModelSpec"):
            evaluate(ModelSpec("GNB", {}, seed=0), splits, data)

    def test_markdown_table_layout(self):
        record = MetricsRecord("RFC", "before", 0.657, 0.629, -0.070,
                               0.410, 0.545, -0.090, -0.090)
        table = markdown_table([record])
        lines = table.splitlines()
        assert lines[0] == ("| Model Name | Accuracy | F1 Score | EV | MSE "
                            "| RMSE | R² | D² Score |")
        assert lines[2].startswith("| RFC | 0.657 | 0.629 |")
