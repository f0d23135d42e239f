import csv
import html
import json
import math
import os
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from driverlens.cli import main
from driverlens.config import (_FIELDS, PipelineConfig, config_from_dict,
                               config_from_json, config_schema)
from driverlens.errors import ConfigError
from driverlens.explain import LimeConfig
from driverlens.models import REGISTRY, ModelSpec
from driverlens.synth import SynthSpec


def small_config_doc(out_dir, **overrides):
    doc = {
        "seed": 7,
        "input": {"synth": {"n_rows": 200, "n_features": 6, "n_informative": 2}},
        "splits": {"repeats": 2, "test_frac": 0.12},
        "models": ["LR", "GNB"],
        "lime": {"n_samples": 300},
        "select_k": 3,
        "n_explain": 6,
        "out_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_artifacts(out_dir):
    """{file name: bytes} for every file in an artifact directory."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def make_drivers_csv(tmp_path):
    """A small three-class CSV with a string column, for CSV-input runs."""
    rng = np.random.default_rng(0)
    lines = ["speed,road,temp,behavior"]
    roads = ["dry", "icy", "wet"]
    for i in range(120):
        c = int(rng.integers(0, 3))
        speed = rng.normal(40 + 15 * c, 4)
        temp = rng.normal(10, 5)
        road = roads[int(rng.integers(0, 3))]
        label = ["calm", "normal", "reckless"][c]
        lines.append(f"{speed:.3f},{road},{temp:.3f},{label}")
    path = tmp_path / "drivers.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestConfigValidation:
    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as excinfo:
            PipelineConfig(
                seed=0,
                synth=SynthSpec(n_rows=100, n_features=6, n_informative=2),
                repeats=0,
                test_frac=1.5,
                select_k=0,
                n_explain=0,
            )
        message = str(excinfo.value)
        for fragment in ("repeats", "test_frac", "select_k", "n_explain"):
            assert fragment in message

    def test_input_required(self):
        with pytest.raises(ConfigError, match="input required"):
            PipelineConfig(seed=0)

    def test_csv_needs_target(self):
        with pytest.raises(ConfigError, match="target column"):
            PipelineConfig(seed=0, csv_path="x.csv")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"inputs": {}, "seed": 1})

    def test_unknown_algorithm_listed(self):
        doc = {"input": {"synth": {}}, "models": ["LR", "SVM"]}
        with pytest.raises(ConfigError, match="SVM"):
            config_from_dict(doc)

    def test_bad_lime_reported(self):
        doc = {"input": {"synth": {}}, "lime": {"kernel_width": -1.0}}
        with pytest.raises(ConfigError, match="kernel_width"):
            config_from_dict(doc)

    def test_nested_sections_keep_their_values(self):
        doc = {"seed": 3,
               "input": {"synth": {"n_rows": 120, "separation": 2, "seed": 9}},
               "lime": {"kernel_width": None, "ridge_alpha": 2, "n_samples": 50}}
        config = config_from_dict(doc)
        assert config.synth == SynthSpec(n_rows=120, separation=2.0, seed=9)
        assert config.lime.kernel_width is None
        assert (config.lime.ridge_alpha, config.lime.n_samples) == (2.0, 50)

    def test_default_models_cover_zoo(self):
        config = config_from_dict({"input": {"synth": {}}})
        assert [m.algorithm for m in config.models] == [
            "LR", "DTC", "RFC", "ETC", "GBC", "ABC", "KNN", "GNB", "MNB",
            "LDA", "QDA",
        ]

    def test_model_seeds_derived_per_algorithm(self):
        config = config_from_dict({"input": {"synth": {}}, "seed": 5})
        seeds = {m.algorithm: m.seed for m in config.models}
        assert len(set(seeds.values())) == len(seeds)  # all distinct
        again = config_from_dict({"input": {"synth": {}}, "seed": 5})
        assert {m.algorithm: m.seed for m in again.models} == seeds

    def test_section_seeds_derived_when_the_document_sets_none(self):
        from driverlens.rng import derive_seed

        for doc in ({"input": {"synth": {}}, "seed": 5},
                    {"input": {"synth": {}}, "seed": 5, "lime": {}}):
            config = config_from_dict(doc)
            assert config.synth.seed == derive_seed(5, "synth")
            assert config.lime.seed == derive_seed(5, "explain")
        pinned = config_from_dict({"input": {"synth": {"seed": 4}},
                                   "lime": {"seed": 3}, "seed": 5})
        assert (pinned.synth.seed, pinned.lime.seed) == (4, 3)


class TestCliExitCodes:
    def test_schema_subcommand(self, capsys):
        assert main(["schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert "models" in doc["fields"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "none.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert main(["prep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err

    def test_invalid_field_is_usage_error(self, tmp_path):
        doc = small_config_doc(tmp_path / "out", select_k=0)
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 1

    def test_data_error_exit_2_and_no_partial_report(self, tmp_path, capsys):
        cases = [  # (CSV text, missing_policy, leak_safe, expected message)
            ("a,b,label\n1,2,x\n3,y\n", "fill_mean", False, "line 3"),
            *[(text, policy, leak_safe, message)
              for text, policy, message in [
                  ("a,b,label\n", "fill_mean", "no data rows"),
                  ("a,b,label\n1,NA,x\n,2,y\n3,4,\n", "drop_rows",
                   "drop_rows removed every row")]
              for leak_safe in (False, True)],
        ]
        for i, (text, policy, leak_safe, message) in enumerate(cases):
            csv_path = tmp_path / f"broken{i}.csv"
            csv_path.write_text(text, encoding="utf-8")
            out_dir = tmp_path / f"out{i}"
            doc = small_config_doc(out_dir, missing_policy=policy,
                                   leak_safe=leak_safe)
            doc["input"] = {"csv": str(csv_path), "target": "label"}
            for stage in ("prep", "run"):
                code = main([stage, "--config", write_config(tmp_path, doc)])
                err = capsys.readouterr().err
                assert code == 2, (i, stage, err)
                assert message in err and "Traceback" not in err
                assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("leak_safe", [False, True])
    def test_one_row_test_side_is_a_data_error(self, tmp_path, capsys,
                                               leak_safe):
        # 12 rows at test_frac 0.05 leave each split one test row, too few
        # for the regression-style metrics
        out = tmp_path / "out"
        doc = small_config_doc(out, leak_safe=leak_safe,
                               splits={"repeats": 2, "test_frac": 0.05})
        doc["input"]["synth"]["n_rows"] = 12
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "test_frac 0.05 of " in err and "1 test row per split" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["explode"]) == 1

    @pytest.mark.parametrize("how", ["config-key", "flag"])
    def test_removed_threads_knob_fails_cleanly(self, tmp_path, capsys, how):
        out = tmp_path / "out"
        doc = small_config_doc(out, **({"threads": 2} if how == "config-key" else {}))
        flag = ["--threads", "2"] if how == "flag" else []
        assert main(["run", "--config", write_config(tmp_path, doc), *flag]) == 1
        printed = capsys.readouterr()
        assert "threads" in printed.err
        assert "Traceback" not in printed.err + printed.out
        assert not out.exists()


@pytest.mark.parametrize("override,flags,named", [
    ({"seed": "x"}, [], "seed must be an integer"),
    ({"splits": {"repeats": "many"}}, [], "splits.repeats must be an integer"),
    ({"splits": {"test_frac": "half"}}, [], "splits.test_frac must be a number"),
    ({"select_k": None}, [], "select_k must be an integer"),
    ({"n_explain": 1e400}, [], "n_explain must be an integer"),
    ({"splits": 5}, [], "splits must be an object"),
    ({"models": [5]}, [], "models[0] must be an algorithm name or an object"),
    ({"models": 5}, ["--seed", "1"], "models must be a list"),
    ({"models": [{"algorithm": "LR", "hyperparameters": 5}]}, [],
     "models[0].hyperparameters must be an object"),
    ({"input": "x.csv"}, [], "input must be an object"),
    ({"input": "x.csv"}, ["--seed", "1"], "input must be an object"),
    ({"lime": 5}, ["--seed", "1"], "lime must be an object"),
    ({"schema_overrides": ["a"]}, [], "schema_overrides must be an object"),
    ({"input": {"csv": 5, "target": "y"}}, [], "input.csv must be a string"),
    ({"input": {"csv": "x.csv", "target": 7}}, [],
     "input.target must be a string"),
    ({"out_dir": 5}, [], "out_dir must be a string"),
    ({"models": [{"algorithm": "LR", "seed": "x"}, "GNB"]}, [],
     "models[0].seed must be an integer"),
    ({"leak_safe": "no"}, [], "leak_safe must be true or false"),
    ({"oversample": "false"}, [], "oversample must be true or false"),
    ({"oversample": 0}, [], "oversample must be true or false"),
    ({"splits": {"repeats": 2.9}}, [], "splits.repeats must be an integer"),
    ({"select_k": True}, [], "select_k must be an integer"),
    ({"seed": False}, [], "seed must be an integer"),
    ({"splits": {"test_frac": True}}, [], "splits.test_frac must be a number"),
    ({"models": [{"algorithm": "LR", "seed": 4.7}]}, [],
     "models[0].seed must be an integer"),
    ({"lime": {"n_samples": 300.5}}, [], "lime.n_samples must be an integer"),
    ({"lime": {"k_features": True}}, [], "lime.k_features must be an integer"),
    ({"lime": {"ridge_alpha": "x"}}, [], "lime.ridge_alpha must be a number"),
    ({"lime": {"kernel_width": [1]}}, [], "lime.kernel_width must be a number"),
    ({"lime": {"seed": None}}, [], "lime.seed must be an integer"),
    ({"lime": {"n_sample": 300}}, [], "unknown lime key(s): n_sample"),
    ({"input": {"synth": {"n_rows": 200.5, "n_features": 6}}}, [],
     "input.synth.n_rows must be an integer"),
    ({"input": {"synth": {"n_rows": 200, "seed": "x"}}}, [],
     "input.synth.seed must be an integer"),
    ({"input": {"synth": {"n_rows": 200, "seed": -1}}}, [],
     "input.synth: seed must be >= 0"),
    ({"input": {"synth": {"n_rows": 200, "separation": False}}}, [],
     "input.synth.separation must be a number"),
    ({"input": {"synth": {"rows": 200}}}, [],
     "unknown input.synth key(s): rows"),
    ({"input": {"synth": 5}}, [], "input.synth must be an object"),
    ({"seed": "5"}, [], "seed must be an integer"),
    ({"splits": {"repeats": "1", "test_frac": 0.2}}, [],
     "splits.repeats must be an integer"),
    ({"splits": {"repeats": 1, "test_frac": "0.2"}}, [],
     "splits.test_frac must be a number"),
    ({"input": {"synth": {"n_rows": "120"}}}, [],
     "input.synth.n_rows must be an integer"),
    ({"lime": {"n_samples": "300"}}, [], "lime.n_samples must be an integer"),
    ({"lime": {"ridge_alpha": "1.0"}}, [], "lime.ridge_alpha must be a number"),
    ({"models": [{"algorithm": "LR", "seed": "3"}]}, [],
     "models[0].seed must be an integer"),
    ({"models": [{"algorithm": "RFC", "hyperparameters": {"n_trees": "5"}}]},
     [], "models[0].hyperparameters.n_trees must be an integer, got '5'"),
    ({"models": [{"algorithm": "RFC", "hyperparameters": {"max_depth": "3"}}]},
     [], "models[0].hyperparameters.max_depth must be an integer, got '3'"),
    ({"models": ["LR", {"algorithm": "RFC", "hyperparameters": {"n_trees": 0}}]},
     [], "models[1]: RFC: n_trees must be >= 1, got 0"),
    ({"models": [{"algorithm": "KNN", "hyperparameters": {"k": True}}]}, [],
     "models[0].hyperparameters.k must be an integer, got True"),
    ({"models": [{"algorithm": "GBC", "hyperparameters": {"n_rounds": 2.5}}]},
     [], "models[0].hyperparameters.n_rounds must be an integer, got 2.5"),
    ({"models": [{"algorithm": "GBC",
                  "hyperparameters": {"learning_rate": "0.1"}}]}, [],
     "models[0].hyperparameters.learning_rate must be a number, got '0.1'"),
    ({"models": [{"algorithm": ["LR"]}]}, [],
     "models[0].algorithm must be a string, got ['LR']"),
    ({"models": [{"algorithm": "LR", "hyperparams": {}}]}, [],
     "unknown models[0] key(s): hyperparams"),
    ({"splits": {"repeat": 2}}, [], "unknown splits key(s): repeat"),
    ({"input": {"synth": {}, "csv_path": "x.csv"}}, [],
     "unknown input key(s): csv_path"),
], ids=["seed", "repeats", "test_frac", "select_k-null", "n_explain-inf",
        "splits-number", "model-entry", "models-number-seed-flag",
        "hyperparameters-number", "input-string", "input-string-seed-flag",
        "lime-number-seed-flag", "schema-overrides-list", "csv-number",
        "target-number", "out-dir-number", "model-seed-string",
        "leak-safe-string", "oversample-string", "oversample-number",
        "repeats-fraction", "select_k-bool", "seed-bool", "test_frac-bool",
        "model-seed-fraction", "lime-n_samples-fraction", "lime-k_features-bool",
        "lime-ridge_alpha-string", "lime-kernel_width-list", "lime-seed-null",
        "lime-unknown-key", "synth-n_rows-fraction", "synth-seed-string",
        "synth-seed-negative", "synth-separation-bool", "synth-unknown-key",
        "synth-number", "seed-numeric-string", "repeats-numeric-string",
        "test_frac-numeric-string", "synth-n_rows-numeric-string",
        "lime-n_samples-numeric-string", "lime-ridge_alpha-numeric-string",
        "model-seed-numeric-string", "n_trees-numeric-string",
        "max_depth-numeric-string", "n_trees-zero", "knn-k-bool",
        "n_rounds-fraction", "learning_rate-numeric-string", "algorithm-list",
        "model-unknown-key", "splits-unknown-key", "input-unknown-key"])
def test_malformed_config_value_is_a_usage_error(tmp_path, capsys, override,
                                                 flags, named):
    out = tmp_path / "out"
    doc = small_config_doc(out)
    doc.update(override)
    assert main(["prep", "--config", write_config(tmp_path, doc), *flags]) == 1
    printed = capsys.readouterr()
    assert named in printed.err
    assert "Traceback" not in printed.err + printed.out
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section,key,named", [
    ("lime", "ridge_alpha", "lime: ridge_alpha must be a finite number >= 0"),
    ("lime", "kernel_width",
     "lime: kernel_width must be a finite number >= 1e-12 or null"),
    ("synth", "separation",
     "input.synth: separation must be a finite number >= 0"),
    ("synth", "noise_std", "input.synth: noise_std must be a finite number > 0"),
], ids=["ridge_alpha", "kernel_width", "separation", "noise_std"])
def test_non_finite_lime_or_synth_number_is_a_usage_error(tmp_path, capsys,
                                                          section, key, named,
                                                          value):
    # json.loads reads NaN and Infinity: a NaN ridge_alpha once ran to exit 0
    # and wrote NaN weights, and a NaN separation failed as a data error
    out = tmp_path / "out"
    doc = small_config_doc(out)
    (doc["lime"] if section == "lime" else doc["input"]["synth"])[key] = value
    with pytest.raises(ConfigError, match=re.escape(named)):
        config_from_json(json.dumps(doc))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    printed = capsys.readouterr()
    assert named in printed.err
    assert "Traceback" not in printed.err + printed.out
    assert not out.exists()


@pytest.mark.parametrize("doc,named", [
    ({"seed": "x", "input": {"synth": {}}, "splits": {"repeats": 0}},
     ["seed must be an integer, got 'x'", "repeats must be >= 1, got 0"]),
    ({"input": {"synth": {"n_features": 2.5}}, "lime": {"k_features": 0}},
     ["input.synth.n_features must be an integer",
      "lime: k_features must be >= 1, got 0"]),
    ({"input": {"synth": {"n_classes": 1}}, "splits": {"test_frac": "x"},
      "models": [{"algorithm": "RFC", "hyperparameters": {"n_trees": -1}}]},
     ["input.synth: n_classes must be >= 2", "splits.test_frac must be a number",
      "models[0]: RFC: n_trees must be >= 1, got -1"]),
    ({"input": {"synth": {}}, "select_k": "3", "n_explain": 0, "splits": 5},
     ["select_k must be an integer", "n_explain must be >= 1, got 0",
      "splits must be an object"]),
    ({"input": {"synth": {}}, "models": [{"algorithm": "GBC", "hyperparameters":
                                          {"n_rounds": 0, "learning_rate": -1.0}}]},
     ["models[0]: GBC: n_rounds must be >= 1, got 0",
      "GBC: learning_rate must be > 0, got -1.0"]),
], ids=["seed-and-repeats", "synth-and-lime", "synth-splits-models",
        "top-level-and-section", "two-hyperparameters"])
def test_one_error_names_every_problem_of_the_document(doc, named):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(doc)
    message = str(excinfo.value)
    assert message.count("invalid configuration: ") == 1
    for fragment in named:
        assert fragment in message


@pytest.mark.parametrize("source", [
    5, {"csv": 5, "target": "y"}, {"csv": "x.csv", "target": 7},
    {"synth": 5}, {"synth": {"n_rows": "x"}}, {"synth": {"n_classes": 1}},
    {"synth": {"rows": 10}}, {"synth": {}, "target": ["y"]},
], ids=["number", "csv-number", "target-number", "synth-number",
        "synth-value", "synth-range", "synth-unknown-key", "synth-target-list"])
def test_malformed_input_is_not_also_called_missing(source):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({"input": source, "seed": 1})
    message = str(excinfo.value)
    assert "input" in message
    for wrong in ("input required", "requires a target column",
                  "mutually exclusive"):
        assert wrong not in message


# one value just outside each model's range for each of its hyperparameters
OUT_OF_RANGE = [
    ("LR", "step_size", 0.0), ("LR", "l2", -1e-4), ("LR", "max_iter", 0),
    ("LR", "tol", -1e-6), ("DTC", "max_depth", 0),
    ("DTC", "min_samples_split", 1), ("RFC", "n_trees", 0),
    ("RFC", "max_depth", 0), ("RFC", "min_samples_split", 1),
    ("ETC", "n_trees", -2), ("ETC", "max_depth", -1),
    ("ETC", "min_samples_split", 0), ("GBC", "n_rounds", 0),
    ("GBC", "learning_rate", 0.0), ("GBC", "max_depth", 0),
    ("GBC", "min_samples_split", 1), ("ABC", "n_rounds", 0),
    ("ABC", "learning_rate", -1.0), ("KNN", "k", 0),
    ("GNB", "var_smoothing", -1e-9), ("MNB", "alpha", -1.0),
    ("MNB", "alpha", 0.0), ("LDA", "ridge", -1e-6), ("QDA", "ridge", -1e-6),
]


@pytest.mark.parametrize("alg,key,bad", OUT_OF_RANGE,
                         ids=[f"{alg}-{key}-{bad}" for alg, key, bad in OUT_OF_RANGE])
def test_out_of_range_hyperparameter_is_a_usage_error(tmp_path, capsys, alg, key,
                                                       bad):
    out = tmp_path / "out"
    doc = small_config_doc(out, models=[
        "LR", {"algorithm": alg, "hyperparameters": {key: bad}}])
    assert main(["prep", "--config", write_config(tmp_path, doc)]) == 1
    printed = capsys.readouterr()
    rule = REGISTRY[alg].RANGES[key]
    assert f"models[1]: {alg}: {key} must be {rule}, got {bad!r}" in printed.err
    assert "Traceback" not in printed.err + printed.out
    assert not out.exists()


@pytest.mark.parametrize("doc", [[1], [], "config", 5, None],
                         ids=["list", "empty-list", "string", "number", "null"])
def test_document_that_is_not_an_object_is_a_config_error(doc):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(doc)
    assert str(excinfo.value) == (
        f"invalid configuration: config must be an object, got {doc!r}")


@pytest.mark.parametrize("build,named", [
    (lambda: LimeConfig(n_samples="x"), "n_samples must be >= 2, got 'x'"),
    (lambda: SynthSpec(n_classes=None), "n_classes must be >= 2, got None"),
    (lambda: PipelineConfig(synth=SynthSpec(), repeats=None),
     "repeats must be >= 1, got None"),
    (lambda: ModelSpec("RFC", {"n_trees": 10**400}),
     "RFC: n_trees must be a finite number >= 1, got 1000"),
], ids=["lime-string", "synth-null", "pipeline-null", "model-huge-int"])
def test_python_built_config_with_a_bad_value_is_a_config_error(build, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        build()


def range_tables():
    """(where the key sits in the config document, RANGES table, kinds), one
    per RANGES table, kinds being {key: True for a float key}."""
    def floats(cls):
        return {f.name: f.type.startswith("float") for f in fields(cls)}

    paths = {name: path for path, name in _FIELDS.items()}
    tables = [(("lime",), LimeConfig.RANGES, floats(LimeConfig)),
              (("input", "synth"), SynthSpec.RANGES, floats(SynthSpec))]
    tables += [(paths[name][:-1], {name: rule}, floats(PipelineConfig))
               for name, rule in PipelineConfig.RANGES.items()]
    tables += [(("models", alg), model.RANGES, {key: isinstance(default, float) for key,
                                       default in model.DEFAULTS.items()})
               for alg, model in REGISTRY.items()]
    return tables


# (path of the section, key, its rule, whether it takes a float) for every
# RANGES rule: a model's under ("models", its algorithm), the rest where the
# config document holds them
RANGED_KEYS = [(path, key, rule, kinds[key])
               for path, table, kinds in range_tables()
               for key, rule in table.items()]


def just_outside(rule, is_float):
    op, bound = rule.split()[:2]
    bound = float(bound)
    if op == ">":
        return bound if is_float else int(bound)
    return math.nextafter(bound, -math.inf) if is_float else int(bound) - 1


@st.composite
def bad_values(draw):
    """(path, key, value, whether the key itself is unknown), a value of
    a ranged key that its rule or its type refuses."""
    path, key, rule, is_float = draw(st.sampled_from(RANGED_KEYS))
    wrong_types = ["1", [1], {"v": 1}, True] + (
        [] if rule.endswith(" or null") else [None])
    values = [just_outside(rule, is_float), *wrong_types] + (
        [math.nan, math.inf, -math.inf] if is_float else [2.5, 10**400])
    mutation = draw(st.sampled_from(["value", "unknown-key"]))
    return path, key, draw(st.sampled_from(values)), mutation == "unknown-key"


@settings(max_examples=250, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_values())
def test_config_gate_refuses_every_ranged_key_mutation(capsys, case):
    path, key, value, unknown = case
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        doc = small_config_doc(out)
        if path[:1] == ("models",):
            hyperparameters = {f"{key}_x" if unknown else key: value}
            doc["models"] = [{"algorithm": path[1],
                              "hyperparameters": hyperparameters}]
        else:
            section = doc
            for part in path:
                section = section.setdefault(part, {})
            section[f"{key}_x" if unknown else key] = value
        config_path = write_config(Path(scratch), doc)
        capsys.readouterr()
        assert main(["prep", "--config", config_path]) == 1
        printed = capsys.readouterr()
        assert len(printed.err.splitlines()) == 1
        assert key in printed.err
        assert "Traceback" not in printed.err + printed.out
        assert not out.exists()


def test_every_range_rule_is_in_its_schema_entry():
    schema = config_schema()["fields"]
    checked = 0
    for path, table, _ in range_tables():
        if path[:1] == ("models",):
            section = schema["models"][0]["hyperparameters"][path[1]]
        else:
            section = schema
            for part in path:
                section = section[part]
        for key, rule in table.items():
            assert re.fullmatch(rf"(int|float) {re.escape(rule)}(,| \(|$).*",
                                section[key]), (path, key, section[key])
            checked += 1
    assert checked == len(RANGED_KEYS)


def test_schema_defaults_are_the_dataclass_defaults():
    declared = {f"input.synth.{f.name}": f.default for f in fields(SynthSpec)}
    declared.update({f"lime.{f.name}": f.default for f in fields(LimeConfig)})
    pipeline = {f.name: f.default for f in fields(PipelineConfig)}
    declared.update({".".join(path): pipeline[name]
                     for path, name in _FIELDS.items()})
    schema = config_schema()
    checked = []

    def walk(node, where):
        for key, text in node.items():
            if isinstance(text, dict):
                walk(text, f"{where}{key}.")
            elif isinstance(text, str) and "(default " in text:
                shown = text.split("(default ", 1)[1].split(")", 1)[0]
                try:
                    value = json.loads(shown)
                except ValueError:
                    value = shown.strip("'")
                expected = declared[where + key]
                assert (value, type(value)) == (expected, type(expected)), key
                checked.append(where + key)

    walk(schema["fields"], "")
    assert len(checked) == json.dumps(schema).count("(default ") == 17


def test_hyperparameters_take_their_default_type():
    doc = {"input": {"synth": {}}, "models": [
        {"algorithm": "RFC", "hyperparameters": {"n_trees": 5.0}},
        {"algorithm": "GBC", "hyperparameters": {"max_depth": None,
                                                 "learning_rate": 1}},
        {"algorithm": "DTC", "hyperparameters": {"max_depth": None}},
        {"algorithm": "KNN", "hyperparameters": {"k": 3}},
        {"algorithm": "LR", "hyperparameters": {"l2": 0.5, "max_iter": 20}},
    ]}
    models = config_from_dict(doc).to_json_dict()["models"]
    echoed = [m["hyperparameters"] for m in models]
    assert echoed == [{"n_trees": 5}, {"max_depth": None, "learning_rate": 1.0},
                      {"max_depth": None}, {"k": 3},
                      {"l2": 0.5, "max_iter": 20}]
    assert [type(echoed[0]["n_trees"]), type(echoed[1]["learning_rate"])] == [
        int, float]
    # values that already have their default's type echo the same bytes
    assert (json.dumps(echoed[2:])
            == json.dumps([m["hyperparameters"] for m in doc["models"][2:]]))


@pytest.mark.parametrize("stage", ["explain", "select", "compare", "run"])
def test_too_few_lime_samples_fail_before_the_evaluate_stage(tmp_path, capsys,
                                                             stage):
    out = tmp_path / "out"
    # 6 features need at least 8 samples
    path = write_config(tmp_path, small_config_doc(out, lime={"n_samples": 7}))
    assert main([stage, "--config", path]) == 1
    err = capsys.readouterr().err
    assert "n_samples=7 is too small for 6 features (need at least d + 2)" in err
    assert "Traceback" not in err
    assert not (out / "metrics_before.json").exists()
    assert main(["train", "--config", path]) == 0
    assert (out / "metrics_before.json").exists()


class TestCliStages:
    def test_synth_writes_csv(self, tmp_path, capsys):
        doc = small_config_doc(tmp_path / "out")
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "out" / "synthetic.csv").exists()

    def test_prep_writes_scaler(self, tmp_path):
        doc = small_config_doc(tmp_path / "out")
        assert main(["prep", "--config", write_config(tmp_path, doc)]) == 0
        out = tmp_path / "out"
        assert (out / "scaler.json").exists()
        assert not (out / "metrics_before.json").exists()

    def test_scaler_file_is_the_applied_scaler(self, tmp_path):
        # default mode scales the oversampled raw rows once: the file must
        # record that scaler, not one refitted on the scaled output
        from driverlens.pipeline import acquire_dataset
        from driverlens.preprocess import fit_scaler, random_oversample
        from driverlens.rng import stream

        doc = small_config_doc(tmp_path / "out")
        assert main(["prep", "--config", write_config(tmp_path, doc)]) == 0
        config = config_from_dict(doc)
        data, _ = acquire_dataset(config)
        balanced = random_oversample(data, stream(config.seed, "oversample"))
        assert balanced.n_rows > data.n_rows
        expected = fit_scaler(balanced.X, data.feature_names)
        written = (tmp_path / "out" / "scaler.json").read_text()
        assert written == json.dumps(expected.to_json_dict(), indent=2) + "\n"
        assert not np.allclose(expected.mean, 0.0)

    def test_leak_safe_scaler_file_holds_each_splits_scaler(self, tmp_path):
        # leak-safe mode scales every split with a scaler fitted on that
        # split's oversampled training rows: the file lists exactly those
        from driverlens.data import Dataset
        from driverlens.metrics import split_rows
        from driverlens.pipeline import acquire_dataset
        from driverlens.preprocess import (
            apply_scaler,
            fit_scaler,
            random_oversample,
            stratified_shuffle_splits,
        )
        from driverlens.rng import stream
        from driverlens.selection import _prepare

        doc = small_config_doc(tmp_path / "out", leak_safe=True,
                               splits={"repeats": 3, "test_frac": 0.12})
        assert main(["prep", "--config", write_config(tmp_path, doc)]) == 0
        written = json.loads((tmp_path / "out" / "scaler.json").read_text())
        config = config_from_dict(doc)
        data, _ = acquire_dataset(config)
        splits = stratified_shuffle_splits(data, 3, 0.12,
                                           stream(config.seed, "splits"))
        _, prepared_splits = _prepare(data, config)
        assert isinstance(written, list) and len(written) == len(splits)
        for i, split in enumerate(splits):
            X, y = data.X[split.train], data.y[split.train]
            balanced = random_oversample(
                Dataset(X=X, y=y, feature_names=data.feature_names,
                        classes=data.classes),
                stream(config.seed, "oversample", i),
            )
            assert balanced.n_rows > X.shape[0]
            expected = fit_scaler(balanced.X, data.feature_names)
            assert written[i] == expected.to_json_dict()
            X_tr, _, X_te, _ = split_rows(prepared_splits[i], data)
            assert np.array_equal(X_tr, apply_scaler(balanced.X, expected))
            assert np.array_equal(X_te, apply_scaler(data.X[split.test],
                                                     expected))
        assert written[0] != written[1]

    def test_train_writes_metrics(self, tmp_path):
        doc = small_config_doc(tmp_path / "out")
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 0
        records = json.loads((tmp_path / "out" / "metrics_before.json").read_text())
        assert [r["model"] for r in records] == ["LR", "GNB"]
        assert not (tmp_path / "out" / "report.json").exists()

    def test_explain_writes_explanations(self, tmp_path):
        doc = small_config_doc(tmp_path / "out")
        assert main(["explain", "--config", write_config(tmp_path, doc)]) == 0
        payload = json.loads((tmp_path / "out" / "explanations.json").read_text())
        assert len(payload["explanations"]) == 6
        assert payload["model"] in ("LR", "GNB")

    def test_select_writes_ranking_and_chart(self, tmp_path):
        doc = small_config_doc(tmp_path / "out")
        assert main(["select", "--config", write_config(tmp_path, doc)]) == 0
        out = tmp_path / "out"
        assert (out / "ranking.json").exists()
        assert (out / "importance.svg").exists()
        assert not (out / "report.json").exists()

    def test_compare_prints_tables(self, tmp_path, capsys):
        doc = small_config_doc(tmp_path / "out")
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("| Model Name | Accuracy |") == 2
        assert "Best model:" in printed

    def test_run_writes_all_artifacts(self, tmp_path):
        doc = small_config_doc(tmp_path / "out")
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        out = tmp_path / "out"
        for name in ("report.json", "report.md", "ranking.json", "importance.svg"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 7
        assert len(report["before"]) == 2


STAGE_ARTIFACTS = (
    ("prep", ("encoding.json", "scaler.json")),
    ("train", ("metrics_before.json",)),
    ("explain", ("explanations.json",)),
    ("select", ("ranking.json", "importance.svg")),
    ("run", ("report.json", "report.md")),
)


def cumulative_artifacts(stage):
    """Every file a CSV-input run writes when it stops after `stage`."""
    names = set()
    for name, files in STAGE_ARTIFACTS:
        names.update(files)
        if name == stage:
            return names
    raise KeyError(stage)


@pytest.fixture(scope="module")
def full_csv_runs(tmp_path_factory):
    """{leak_safe: (config path, artifacts of a full run)} on CSV input."""
    base = tmp_path_factory.mktemp("stages")
    csv_path = make_drivers_csv(base)
    runs = {}
    for leak_safe in (False, True):
        doc = small_config_doc(base / "out", leak_safe=leak_safe)
        doc["input"] = {"csv": csv_path, "target": "behavior"}
        path = write_config(base, doc, name=f"config_{leak_safe}.json")
        out = base / f"run_{leak_safe}"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        artifacts = read_artifacts(out)
        assert set(artifacts) == cumulative_artifacts("run")
        runs[leak_safe] = path, artifacts
    return runs


@pytest.mark.parametrize("leak_safe", [False, True], ids=["default", "leak-safe"])
@pytest.mark.parametrize("stage", ["prep", "train", "explain", "select"])
def test_stage_writes_its_artifacts_as_a_full_run_does(
    full_csv_runs, tmp_path, stage, leak_safe
):
    path, full = full_csv_runs[leak_safe]
    out = tmp_path / "out"
    assert main([stage, "--config", path, "--out", str(out)]) == 0
    written = read_artifacts(out)
    assert set(written) == cumulative_artifacts(stage)
    for name, data in written.items():
        assert data == full[name], name


def filled_by_a_full_run(tmp_path):
    """An output directory holding a full run of the synth config, beside a
    file of the user's."""
    out = tmp_path / "out"
    doc = small_config_doc(out)
    assert main(["run", "--config", write_config(tmp_path, doc, "full.json")]) == 0
    assert set(read_artifacts(out)) == cumulative_artifacts("run") - {
        "encoding.json"}
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    return out


def test_run_refused_at_train_leaves_only_its_prep_files(tmp_path, capsys):
    # GNB refuses the constant column at its first fit, after prep
    out = filled_by_a_full_run(tmp_path)
    doc = small_config_doc(out, models=[{"algorithm": "GNB", "hyperparameters":
                                         {"var_smoothing": 0}}], select_k=2)
    doc["input"] = {"csv": constant_column_csv(tmp_path), "target": "label"}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "GNB: feature 2 is constant" in capsys.readouterr().err
    clean = tmp_path / "clean"
    assert main(["prep", "--config", write_config(tmp_path, doc),
                 "--out", str(clean)]) == 0
    assert read_artifacts(out) == {**read_artifacts(clean),
                                   "notes.txt": b"kept\n"}


def test_refused_input_leaves_no_older_run_behind(tmp_path, capsys):
    out = filled_by_a_full_run(tmp_path)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,label\n1,2,x\n3,y\n", encoding="utf-8")
    doc = small_config_doc(out)
    doc["input"] = {"csv": str(ragged), "target": "label"}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "line 3" in capsys.readouterr().err
    assert read_artifacts(out) == {"notes.txt": b"kept\n"}


def test_train_into_a_full_run_leaves_no_later_artifact(full_csv_runs,
                                                        tmp_path):
    path, full = full_csv_runs[False]
    out = filled_by_a_full_run(tmp_path)
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    written = read_artifacts(out)
    assert not (out / "report.json").exists()
    assert set(written) == cumulative_artifacts("train") | {"notes.txt"}
    for name in cumulative_artifacts("train"):
        assert written[name] == full[name], name


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        doc = small_config_doc(tmp_path / "out")
        config_path = write_config(tmp_path, doc)
        assert main(["run", "--config", config_path]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["run", "--config", config_path]) == 0
        second = (tmp_path / "out" / "report.json").read_bytes()
        assert first == second

    def test_rerun_into_another_dir_byte_identical(self, tmp_path):
        doc = small_config_doc(tmp_path / "o1")
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "o1")]) == 0
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "o2")]) == 0
        assert read_artifacts(tmp_path / "o1") == read_artifacts(tmp_path / "o2")

    def test_seed_override_changes_results(self, tmp_path):
        doc = small_config_doc(tmp_path / "s1")
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "s1")]) == 0
        assert main(["run", "--config", path, "--seed", "123",
                     "--out", str(tmp_path / "s2")]) == 0
        r1 = json.loads((tmp_path / "s1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "s2" / "report.json").read_text())
        assert r1["config"]["seed"] != r2["config"]["seed"]


def test_separable_synth_rfc_reaches_high_accuracy(tmp_path):
    # well-separated Gaussians are easily classified: the forest must clear
    # 0.9 test accuracy before feature selection
    from driverlens.pipeline import run_stage

    config = config_from_dict({
        "seed": 7,
        "input": {"synth": {"n_rows": 2000, "separation": 3.0}},
        "splits": {"repeats": 2, "test_frac": 0.12},
        "models": ["RFC"],
        "lime": {"n_samples": 400},
        "n_explain": 10,
        "out_dir": str(tmp_path / "out"),
    })
    report = run_stage(config, "run")
    assert report.before[0].model == "RFC"
    assert report.before[0].accuracy >= 0.9


class TestCsvPipeline:
    def test_csv_input_end_to_end(self, tmp_path):
        csv_path = make_drivers_csv(tmp_path)
        out_dir = tmp_path / "out"
        doc = small_config_doc(out_dir, select_k=2)
        doc["input"] = {"csv": csv_path, "target": "behavior"}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        assert (out_dir / "encoding.json").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["selected_features"]) == 2
        md = (out_dir / "report.md").read_text()
        assert "| Model Name | Accuracy | F1 Score | EV | MSE | RMSE | R² | D² Score |" in md

    @pytest.mark.parametrize("leak_safe", [False, True],
                             ids=["default", "leak-safe"])
    def test_every_artifact_names_the_columns_as_the_dataset_does(
            self, tmp_path, leak_safe):
        # names that need escaping in SVG and quoting in CSV, and one string
        # column, whose kind only encoding.json records
        rng = np.random.default_rng(3)
        csv_path = tmp_path / "names.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a<b&c", "road", "speed, km/h", "behavior"])
            for i in range(120):
                c = i % 3
                writer.writerow([f"{rng.normal(c, 1):.3f}",
                                 ["dry", "icy", "wet"][int(rng.integers(0, 3))],
                                 f"{rng.normal(40 + 15 * c, 4):.3f}",
                                 ["calm", "normal", "reckless"][c]])
        out_dir = tmp_path / "out"
        doc = small_config_doc(out_dir, leak_safe=leak_safe, select_k=2)
        doc["input"] = {"csv": str(csv_path), "target": "behavior"}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        from driverlens.pipeline import acquire_dataset
        names = list(acquire_dataset(config_from_dict(doc))[0].feature_names)
        assert names == ["a<b&c", "road", "speed, km/h"]

        def read(name):
            return json.loads((out_dir / name).read_text(encoding="utf-8"))

        scaler = read("scaler.json")
        for split_scaler in scaler if leak_safe else [scaler]:
            assert list(split_scaler) == names
        ranking = read("ranking.json")["features"]
        by_index = sorted(ranking, key=lambda feature: feature["index"])
        assert [feature["name"] for feature in by_index] == names
        # each score is the mean |weight| the explanations give that name
        explanations = read("explanations.json")["explanations"]
        for feature in ranking:
            weights = [dict(e["weights"]).get(feature["name"], 0.0)
                       for e in explanations]
            assert feature["score"] == pytest.approx(np.abs(weights).mean(),
                                                     rel=1e-12, abs=0)
        report = read("report.json")
        assert report["selected_features"] == [
            names[j] for j in report["selected_indices"]]
        svg = (out_dir / "importance.svg").read_text(encoding="utf-8")
        labels = re.findall(r'text-anchor="end">(.*?)</text>', svg)
        assert [html.unescape(label) for label in labels] == [
            feature["name"] for feature in ranking]  # listed by rank
        assert "a&lt;b&amp;c" in labels
        assert read("encoding.json")["columns"] == {"road": ["dry", "icy", "wet"]}

    def test_leak_safe_flag(self, tmp_path):
        csv_path = make_drivers_csv(tmp_path)
        out_dir = tmp_path / "out"
        doc = small_config_doc(out_dir)
        doc["input"] = {"csv": csv_path, "target": "behavior"}
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path, "--leak-safe"]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["leak_safe"] is True

    def test_schema_overrides_decide_the_fill(self, tmp_path):
        csv_path = tmp_path / "zones.csv"
        csv_path.write_text("zone,speed,label\n10,1,x\n20,2,y\n,3,x\n"
                            "20,4,y\n10,5,x\n20,6,y\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        doc = small_config_doc(out_dir, schema_overrides={"zone": "categorical"},
                               splits={"repeats": 1, "test_frac": 0.5})
        doc["input"] = {"csv": str(csv_path), "target": "label"}
        assert main(["prep", "--config", write_config(tmp_path, doc)]) == 0
        encoding = json.loads((out_dir / "encoding.json").read_text())
        assert encoding["columns"] == {"zone": ["10", "20"]}

    @pytest.mark.parametrize("labels", [("0", "1", "2"), ("calm", "normal", "reckless")],
                             ids=["numeric", "string"])
    def test_missing_label_is_a_data_error_not_a_class(self, tmp_path, capsys,
                                                       labels):
        lines = [f"{i % 7}.5,{labels[i % 3]}" for i in range(60)]
        lines[4] = "2.5,NA"
        csv_path = tmp_path / "labels.csv"
        csv_path.write_text("speed,behavior\n" + "\n".join(lines) + "\n",
                            encoding="utf-8")
        out_dir = tmp_path / "out"
        doc = small_config_doc(out_dir)
        doc["input"] = {"csv": str(csv_path), "target": "behavior"}
        assert main(["prep", "--config", write_config(tmp_path, doc)]) == 2
        printed = capsys.readouterr()
        assert "target column 'behavior', row 4" in printed.err
        assert not out_dir.exists()
        doc["missing_policy"] = "drop_rows"
        assert main(["prep", "--config", write_config(tmp_path, doc)]) == 0
        encoding = json.loads((out_dir / "encoding.json").read_text())
        assert encoding["classes"] == list(labels)


def constant_column_csv(tmp_path):
    """30 rows of two classes whose column c holds one value."""
    rng = np.random.default_rng(1)
    lines = ["a,b,c,label"] + [
        f"{rng.normal(i % 2, 1):.4f},{rng.normal():.4f},5,{'xy'[i % 2]}"
        for i in range(30)]
    path = tmp_path / "constant.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("leak_safe", [False, True])
@pytest.mark.parametrize("model,message", [
    ({"algorithm": "LDA", "hyperparameters": {"ridge": 0}},
     "LDA: the pooled covariance is singular or not positive definite at ridge 0.0"),
    ({"algorithm": "QDA", "hyperparameters": {"ridge": 0}},
     "QDA: class 0's covariance is singular or not positive definite at ridge 0.0"),
    ({"algorithm": "GNB", "hyperparameters": {"var_smoothing": 0}},
     "GNB: feature 2 is constant in class 0 and var_smoothing 0.0"),
], ids=["LDA", "QDA", "GNB"])
def test_degenerate_fit_is_a_data_error(tmp_path, capsys, model, message,
                                        leak_safe):
    out = tmp_path / "out"
    doc = small_config_doc(out, models=[model], leak_safe=leak_safe, select_k=2)
    doc["input"] = {"csv": constant_column_csv(tmp_path), "target": "label"}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (out / "report.json").exists()
    assert not any("NaN" in p.read_text() for p in out.iterdir())


def test_gnb_default_smoothing_fits_a_constant_column(tmp_path):
    out = tmp_path / "out"
    doc = small_config_doc(out, models=["GNB"], select_k=2)
    doc["input"] = {"csv": constant_column_csv(tmp_path), "target": "label"}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    assert (out / "report.json").exists()
    assert not any("NaN" in p.read_text() for p in out.iterdir())
