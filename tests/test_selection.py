import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driverlens.config import PipelineConfig
from driverlens.errors import DataError
from driverlens.explain import Explanation, LimeConfig
from driverlens.metrics import MetricsRecord, split_rows
from driverlens.models import ModelSpec
from driverlens.pipeline import run_stage
from driverlens.preprocess import (
    apply_scaler,
    fit_scaler,
    random_oversample,
    stratified_shuffle_splits,
)
from driverlens.rng import stream
from driverlens.selection import (
    FeatureRanking,
    _prepare,
    aggregate_importance,
    pick_best,
    reduce_dataset,
    reduce_splits,
    select_top_k,
)
from driverlens.synth import SynthSpec, synth_generate

from test_preprocess import imbalanced_dataset, make_dataset, vstack_oversample


def explanation(weights, index=0, code=0):
    return Explanation(instance_index=index, class_code=code, intercept=0.0,
                       weights=np.asarray(weights, dtype=float), fit_quality=1.0)


class TestAggregateImportance:
    def test_hand_computed_tie(self):
        exps = [explanation([0.4, -0.2]), explanation([-0.4, 0.6])]
        ranking = aggregate_importance(exps)
        assert ranking.scores.tolist() == [0.4, 0.4]
        assert ranking.ranks.tolist() == [1, 2]  # tie -> lower index first
        assert ranking.positive_share.tolist() == [0.5, 0.5]

    def test_single_explanation(self):
        ranking = aggregate_importance([explanation([0.1, -0.7, 0.3])])
        assert ranking.scores.tolist() == [0.1, 0.7, 0.3]
        assert ranking.ranks.tolist() == [3, 1, 2]

    def test_all_zero(self):
        ranking = aggregate_importance([explanation([0.0, 0.0, 0.0])] * 3)
        assert ranking.scores.tolist() == [0.0, 0.0, 0.0]
        assert ranking.ranks.tolist() == [1, 2, 3]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        exps = [explanation(rng.normal(size=5)) for _ in range(8)]
        base = aggregate_importance(exps)
        shuffled = aggregate_importance([exps[i] for i in rng.permutation(8)])
        assert np.allclose(base.scores, shuffled.scores, atol=1e-15)
        assert np.array_equal(base.ranks, shuffled.ranks)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            aggregate_importance([])

    def test_mismatched_widths_rejected(self):
        with pytest.raises(DataError, match="different feature counts"):
            aggregate_importance([explanation([1.0]), explanation([1.0, 2.0])])

    def test_feature_name_count_must_match(self):
        exps = [explanation([0.1, -0.7, 0.3])]
        for names in (("a",), ("a", "b", "c", "d")):
            with pytest.raises(DataError, match=f"{len(names)} feature names "
                               "for 3 features"):
                aggregate_importance(exps, feature_names=names).to_json_dict()


class TestSelectTopK:
    def make_ranking(self, scores):
        scores = np.asarray(scores, dtype=float)
        order = np.argsort(-scores, kind="stable")
        ranks = np.empty(scores.size, dtype=np.int64)
        ranks[order] = np.arange(1, scores.size + 1)
        return FeatureRanking(scores=scores, ranks=ranks,
                              positive_share=np.zeros(scores.size))

    def test_saturates_at_d(self):
        ranking = self.make_ranking([0.3, 0.1, 0.2])
        assert select_top_k(ranking, 10) == [0, 1, 2]

    def test_single_best(self):
        ranking = self.make_ranking([0.3, 0.9, 0.2])
        assert select_top_k(ranking, 1) == [1]

    def test_schema_order_output(self):
        ranking = self.make_ranking([0.1, 0.9, 0.5, 0.7])
        assert select_top_k(ranking, 2) == [1, 3]

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(10)
        base = select_top_k(self.make_ranking(scores), 4)
        for factor in (1e-6, 3.7, 1e9):
            assert select_top_k(self.make_ranking(scores * factor), 4) == base


class TestReduceDataset:
    def make_data(self):
        rng = np.random.default_rng(2)
        return make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))

    def test_identity_selection(self):
        data = self.make_data()
        out = reduce_dataset(data, [0, 1, 2])
        assert np.array_equal(out.X, data.X)
        assert [c.name for c in out.schema] == [c.name for c in data.schema]

    def test_projection_keeps_schema_order(self):
        data = self.make_data()
        out = reduce_dataset(data, [2, 0])
        assert out.n_features == 2
        assert [c.name for c in out.schema] == ["f0", "f2"]
        assert [c.index for c in out.schema] == [0, 1]
        assert np.array_equal(out.X, data.X[:, [0, 2]])

    def test_rows_and_target_untouched(self):
        data = self.make_data()
        out = reduce_dataset(data, [1])
        assert out.n_rows == data.n_rows
        assert np.array_equal(out.y, data.y)

    def test_errors(self):
        data = self.make_data()
        with pytest.raises(DataError, match="out of range"):
            reduce_dataset(data, [0, 5])
        with pytest.raises(DataError, match="duplicate"):
            reduce_dataset(data, [1, 1])


def test_pick_best_accuracy_then_f1():
    def record(model, acc, f1):
        return MetricsRecord(model, "before", acc, f1, 0, 0, 0, 0, 0)

    records = [record("A", 0.8, 0.7), record("B", 0.9, 0.5),
               record("C", 0.9, 0.6), record("D", 0.7, 0.9)]
    assert pick_best(records) == 2  # accuracy tie between B and C -> higher F1


def comparison_config(out_dir, **overrides):
    params = dict(
        out_dir=str(out_dir),
        seed=3,
        synth=SynthSpec(n_rows=240, n_features=8, n_informative=3, seed=11),
        repeats=2,
        models=[ModelSpec("LR", {"max_iter": 80}, 1), ModelSpec("GNB", {}, 2)],
        lime=LimeConfig(n_samples=400, seed=4),
        select_k=4,
        n_explain=8,
    )
    params.update(overrides)
    return PipelineConfig(**params)


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    config = comparison_config(tmp_path_factory.mktemp("compare"))
    return run_stage(config, "run"), config


class TestRetrainCompare:
    def test_before_after_cover_same_models(self, outcome):
        report, config = outcome
        want = [m.algorithm for m in config.models]
        assert [r.model for r in report.before] == want
        assert [r.model for r in report.after] == want
        assert all(r.phase == "before" for r in report.before)
        assert all(r.phase == "after" for r in report.after)

    def test_best_model_flagged(self, outcome):
        report, _ = outcome
        best = max(report.before, key=lambda r: (r.accuracy, r.f1_weighted))
        assert report.best_model == best.model

    def test_selection_size(self, outcome):
        report, config = outcome
        assert len(report.selected_indices) == config.select_k
        assert report.selected_features == [f"f{j:02d}" for j in report.selected_indices]

    def test_markdown_has_two_tables(self, outcome):
        report, _ = outcome
        text = report.to_markdown()
        assert text.count("| Model Name | Accuracy |") == 2
        assert "before feature selection" in text.lower()
        assert "after feature selection" in text.lower()

    def test_json_round_trip(self, outcome):
        import json
        report, _ = outcome
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["best_model"] == report.best_model
        assert len(doc["before"]) == len(report.before)
        assert len(doc["ranking"]["features"]) == 8

    def test_saturation_warns(self, tmp_path):
        config = comparison_config(tmp_path, select_k=99)
        with pytest.warns(UserWarning, match="keeping all"):
            report = run_stage(config, "run")
        assert len(report.selected_indices) == 8

    def test_leak_safe_mode_runs(self, tmp_path):
        config = comparison_config(tmp_path, leak_safe=True)
        report = run_stage(config, "run")
        assert len(report.before) == 2
        # well-separated data stays learnable without the leak
        assert max(r.accuracy for r in report.before) > 0.8


def test_leak_safe_run_fits_one_scaler_per_split_per_phase(tmp_path, monkeypatch):
    # R fits before (the same scalers scaler.json records and the explained
    # model reuses) and R after, on the kept columns: nothing else refits
    import driverlens.selection as selection

    calls = []
    fit_scaler = selection.fit_scaler

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_scaler(*args, **kwargs)

    monkeypatch.setattr(selection, "fit_scaler", counting)
    config = comparison_config(tmp_path, leak_safe=True, repeats=3)
    run_stage(config, "run")
    assert len(config.models) == 2
    assert len(calls) == 2 * config.repeats


@settings(max_examples=40, deadline=None, database=None)
@given(counts=st.lists(st.integers(2, 30), min_size=2, max_size=4),
       repeats=st.integers(3, 5),
       seed=st.integers(0, 2**32 - 1),
       oversample=st.booleans(),
       leak_safe=st.booleans(),
       kept=st.sets(st.integers(0, 2), min_size=1))
def test_leak_safe_split_rows_equal_oversampling_then_scaling_each_split(
        counts, repeats, seed, oversample, leak_safe, kept):
    # the prepared splits carry their train rows and scalers. In leak-safe
    # mode split_rows must give, bit for bit, what stacking each split's
    # duplicates and then fitting and applying its scaler gives, and no
    # train row may be a test row; after reduce_splits the scaler is refitted
    # on the kept columns. In the default mode it must give the rows of the
    # recipe's order, every row oversampled and scaled up front, and after
    # reduce_splits the kept columns of those rows.
    data = imbalanced_dataset(counts, seed=seed)
    config = PipelineConfig(seed=seed, synth=SynthSpec(), leak_safe=leak_safe,
                            oversample=oversample, repeats=repeats,
                            out_dir="unused")
    split_data = data
    if oversample and not leak_safe:
        split_data = random_oversample(data, stream(seed, "oversample"))
    plain = stratified_shuffle_splits(split_data, repeats, config.test_frac,
                                      stream(seed, "splits"))
    if plain[0].test.size < 2:
        with pytest.raises(DataError, match="leaves 1 test row per split"):
            _prepare(data, config)
        return
    prepared, splits = _prepare(data, config)
    cols = sorted(kept)
    reduced, reduced_splits = reduce_splits(prepared, splits, cols, config)
    assert len(splits) == len(reduced_splits) == repeats
    scaled = apply_scaler(split_data.X, fit_scaler(split_data.X))
    for i, (base, split, cut) in enumerate(zip(plain, splits, reduced_splits)):
        assert not np.isin(split.train, split.test).any()
        assert np.array_equal(split.test, base.test)
        y_tr, y_te = split_data.y[base.train], split_data.y[base.test]
        expected = []
        for c in (slice(None), cols):  # all columns, then the kept ones
            if not leak_safe:
                assert np.array_equal(split.train, base.train)
                expected.append((scaled[:, c][base.train], y_tr,
                                 scaled[:, c][base.test], y_te))
                continue
            X = data.X[:, c]  # columns first, then rows, as reduce_splits
            X_tr, y_tr_c = X[base.train], y_tr
            if oversample:
                X_tr, y_tr_c = vstack_oversample(X_tr, y_tr,
                                                 stream(seed, "oversample", i))
            scaler = fit_scaler(X_tr)
            expected.append((apply_scaler(X_tr, scaler), y_tr_c,
                             apply_scaler(X[base.test], scaler), y_te))
        got = [split_rows(split, prepared), split_rows(cut, reduced)]
        assert [[a.tobytes() for a in rows] for rows in got] == \
            [[a.tobytes() for a in rows] for rows in expected]


def test_synthetic_recovery_small(tmp_path):
    # informative features are columns 0..2; selection should find most of
    # them in most seeded runs
    hits = 0
    for seed in range(5):
        config = PipelineConfig(
            seed=seed,
            synth=SynthSpec(n_rows=400, n_features=10, n_informative=3,
                            separation=3.0, seed=100 + seed),
            repeats=2,
            models=[ModelSpec("LR", {"max_iter": 120}, seed)],
            lime=LimeConfig(n_samples=800, seed=seed),
            select_k=4,
            n_explain=16,
            out_dir=str(tmp_path / f"seed{seed}"),
        )
        report = run_stage(config, "run")
        informative = set(range(3))
        hits += len(informative & set(report.selected_indices)) >= 2
    assert hits >= 4


class BatchDependentModel:
    """A black box whose 1-row calls round otherwise than its batch calls,
    taken to the extreme: a row predicted alone gets the other class."""

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        code = (X[:, 0] > 0).astype(int)
        if X.shape[0] == 1:
            code = 1 - code
        return np.eye(2)[code]

    def predict(self, X):
        return self.predict_proba(X).argmax(axis=1)


def test_explain_best_explains_the_class_each_row_was_sampled_under(
        tmp_path, monkeypatch):
    # the rows are sampled by the class the batch prediction gives them, and
    # each explanation must be of that class, not of a 1-row re-prediction
    import driverlens.selection as selection

    config = comparison_config(tmp_path, synth=SynthSpec(
        n_rows=240, n_features=8, n_informative=3, n_classes=2, seed=11))
    data, splits = _prepare(synth_generate(config.synth), config)
    monkeypatch.setattr(selection, "train_on_split",
                        lambda *args: BatchDependentModel())
    explanations = selection.explain_best(config.models[0], splits, data,
                                          config)
    X_te = split_rows(splits[0], data)[2]
    batch = BatchDependentModel().predict(X_te)
    rows = [e.instance_index for e in explanations]
    assert len(rows) == config.n_explain
    assert len(set(batch[rows].tolist())) == 2
    assert [e.class_code for e in explanations] == batch[rows].tolist()
    for i in rows:  # alone, each of those rows predicts the other class
        assert BatchDependentModel().predict(X_te[i:i + 1])[0] != batch[i]
