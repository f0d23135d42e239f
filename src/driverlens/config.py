"""Pipeline configuration: parsing, validation, and the published schema.

Validation is all-at-once: every violation in a config document is collected
and reported in a single ConfigError rather than one at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .data import CATEGORICAL, MISSING_POLICIES, NUMERIC
from .errors import ConfigError
from .explain import LimeConfig
from .models import ALGORITHMS, ModelSpec, REGISTRY
from .rng import derive_seed
from .synth import SynthSpec

SCHEMA_VERSION = 1


@dataclass
class PipelineConfig:
    """Everything one pipeline run depends on, seeds included."""

    seed: int = 0
    csv_path: str | None = None
    target_column: str | None = None
    synth: SynthSpec | None = None
    missing_policy: str = "fill_mean"
    schema_overrides: dict = field(default_factory=dict)
    oversample: bool = True
    leak_safe: bool = False
    repeats: int = 20
    test_frac: float = 0.12
    models: list = field(default_factory=list)  # list[ModelSpec]
    lime: LimeConfig = field(default_factory=LimeConfig)
    select_k: int = 10
    n_explain: int = 100
    out_dir: str = "out"

    def __post_init__(self):
        if not self.models:
            self.models = default_model_specs(self.seed)
        self.validate()

    def validate(self):
        problems = []
        if self.csv_path is None and self.synth is None:
            problems.append("input required: set either a csv path or synth parameters")
        if self.csv_path is not None and self.synth is not None:
            problems.append("csv input and synth input are mutually exclusive")
        if self.csv_path is not None and not self.target_column:
            problems.append("csv input requires a target column name")
        if self.missing_policy not in MISSING_POLICIES:
            problems.append(
                f"missing_policy must be one of {MISSING_POLICIES}, "
                f"got {self.missing_policy!r}"
            )
        if self.repeats < 1:
            problems.append(f"split repeats must be >= 1, got {self.repeats}")
        if not 0.0 < self.test_frac < 1.0:
            problems.append(f"test_frac must be in (0, 1), got {self.test_frac}")
        if self.select_k < 1:
            problems.append(f"select_k must be >= 1, got {self.select_k}")
        if self.n_explain < 1:
            problems.append(f"n_explain must be >= 1, got {self.n_explain}")
        for name, kind in self.schema_overrides.items():
            if kind not in (CATEGORICAL, NUMERIC):
                problems.append(
                    f"schema override for {name!r} must be {CATEGORICAL!r} or "
                    f"{NUMERIC!r}, got {kind!r}"
                )
        if problems:
            raise ConfigError("invalid configuration: " + "; ".join(problems))

    def to_json_dict(self) -> dict:
        # out_dir is execution environment, not pipeline definition: results
        # are independent of it, and leaving it out keeps report.json
        # byte-identical across output directories
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "input": (
                {"csv": self.csv_path, "target": self.target_column}
                if self.csv_path is not None
                else {"synth": asdict(self.synth)}
            ),
            "missing_policy": self.missing_policy,
            "schema_overrides": dict(self.schema_overrides),
            "oversample": self.oversample,
            "leak_safe": self.leak_safe,
            "splits": {"repeats": self.repeats, "test_frac": self.test_frac},
            "models": [
                {
                    "algorithm": m.algorithm,
                    "hyperparameters": dict(m.hyperparameters),
                    "seed": m.seed,
                }
                for m in self.models
            ],
            "lime": asdict(self.lime),
            "select_k": self.select_k,
            "n_explain": self.n_explain,
        }


def default_model_specs(master_seed: int) -> list[ModelSpec]:
    """The full zoo, each model on its own named seed stream."""
    return [
        ModelSpec(alg, {}, derive_seed(master_seed, f"model:{alg}"))
        for alg in ALGORITHMS
    ]


_TOP_LEVEL_KEYS = {
    "schema_version", "seed", "input", "missing_policy", "schema_overrides",
    "oversample", "leak_safe", "splits", "models", "lime", "select_k",
    "n_explain", "out_dir",
}


def _object(doc: dict, key: str, problems: list, where: str = "") -> dict:
    """doc[key] ({} when absent); a value that is not an object is a problem."""
    value = doc.get(key, {})
    if isinstance(value, dict):
        return value
    problems.append(f"{where}{key} must be an object, got {value!r}")
    return {}


def _number(doc: dict, key: str, default, cast, problems: list, where: str = ""):
    """cast(doc[key]) (default when absent). A boolean, a string (which
    cast would parse), a value cast rejects, or a float that an integer key
    would truncate is a problem."""
    value = doc.get(key, default)
    truncated = cast is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, (bool, str)) or truncated):
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError):
            pass
    kind = "an integer" if cast is int else "a number"
    problems.append(f"{where}{key} must be {kind}, got {value!r}")
    return default


def _typed(doc: dict, key: str, default, kind, problems: list, where: str = ""):
    """doc[key] (default when absent); a value not of type kind is a problem."""
    value = doc.get(key, default)
    if value is default or isinstance(value, kind):
        return value
    name = "a string" if kind is str else "true or false"
    problems.append(f"{where}{key} must be {name}, got {value!r}")
    return default


# the number type of every key of the nested sections; each may be omitted
_SYNTH_KEYS = {"n_rows": int, "n_classes": int, "n_features": int,
               "n_informative": int, "separation": float, "noise_std": float,
               "seed": int}
_LIME_KEYS = {"n_samples": int, "kernel_width": float, "ridge_alpha": float,
              "k_features": int, "seed": int}


def _spec(doc: dict, key: str, cls, casts: dict, seed: int, problems: list,
          where: str = ""):
    """cls built from the object doc[key], every key checked like a
    top-level number by _number. Unknown keys are problems; null is allowed
    only where cls defaults to None; seed is used when the section sets none.
    Returns None when there is a problem."""
    section = _object(doc, key, problems, where)
    where += key
    before = len(problems)
    unknown = sorted(set(section) - set(casts))
    if unknown:
        problems.append(f"unknown {where} key(s): {', '.join(unknown)}")
    values = {"seed": seed}
    for name, cast in casts.items():
        if name in section and not (section[name] is None
                                    and getattr(cls, name) is None):
            values[name] = _number(section, name, None, cast, problems,
                                   where + ".")
    if len(problems) > before:
        return None
    try:
        return cls(**values)
    except ConfigError as exc:
        problems.append(f"{where}: {exc}")
        return None


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a validated PipelineConfig from a parsed JSON document."""
    problems = []
    unknown = sorted(set(doc) - _TOP_LEVEL_KEYS)
    if unknown:
        problems.append(f"unknown config key(s): {', '.join(unknown)}")
    seed = _number(doc, "seed", 0, int, problems)

    csv_path = target = None
    synth = None
    source = _object(doc, "input", problems)
    if "csv" in source:
        csv_path = _typed(source, "csv", None, str, problems, "input.")
        target = _typed(source, "target", None, str, problems, "input.")
    if "synth" in source:
        synth = _spec(source, "synth", SynthSpec, _SYNTH_KEYS,
                      derive_seed(seed, "synth"), problems, "input.")

    splits = _object(doc, "splits", problems)
    repeats = _number(splits, "repeats", 20, int, problems, "splits.")
    test_frac = _number(splits, "test_frac", 0.12, float, problems, "splits.")
    entries = doc.get("models", [])
    if not isinstance(entries, list):
        problems.append(f"models must be a list, got {entries!r}")
        entries = []
    models: list[ModelSpec] = []
    for position, entry in enumerate(entries):
        if isinstance(entry, str):
            entry = {"algorithm": entry}
        if not isinstance(entry, dict):
            problems.append(f"models[{position}] must be an algorithm name or "
                            f"an object, got {entry!r}")
            continue
        algorithm = entry.get("algorithm", "?")
        try:
            models.append(
                ModelSpec(
                    algorithm,
                    _object(entry, "hyperparameters", problems,
                            f"models[{position}]."),
                    _number(entry, "seed",
                            derive_seed(seed, f"model:{algorithm}", position),
                            int, problems, f"models[{position}]."),
                )
            )
        except ConfigError as exc:
            problems.append(str(exc))

    lime = _spec(doc, "lime", LimeConfig, _LIME_KEYS,
                 derive_seed(seed, "explain"), problems)

    schema_overrides = _object(doc, "schema_overrides", problems)
    select_k = _number(doc, "select_k", 10, int, problems)
    n_explain = _number(doc, "n_explain", 100, int, problems)
    out_dir = _typed(doc, "out_dir", "out", str, problems)
    oversample = _typed(doc, "oversample", True, bool, problems)
    leak_safe = _typed(doc, "leak_safe", False, bool, problems)
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))

    return PipelineConfig(
        seed=seed,
        csv_path=csv_path,
        target_column=target,
        synth=synth,
        missing_policy=doc.get("missing_policy", "fill_mean"),
        schema_overrides=dict(schema_overrides),
        oversample=oversample,
        leak_safe=leak_safe,
        repeats=repeats,
        test_frac=test_frac,
        models=models,
        lime=lime,
        select_k=select_k,
        n_explain=n_explain,
        out_dir=out_dir,
    )


def config_from_json(text: str) -> PipelineConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config JSON must be an object")
    return config_from_dict(doc)


def config_schema() -> dict:
    """Machine-readable description of the accepted config document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "fields": {
            "seed": "integer master seed; every random stream derives from it",
            "input": {
                "csv": "path to a CSV file (requires 'target')",
                "target": "name of the target column",
                "synth": {
                    "n_rows": "int >= 4*n_classes, and enough that every class "
                              "gets a row under the priors (default 2000)",
                    "n_classes": "int >= 2 (default 3)",
                    "n_features": "int >= 1 (default 18)",
                    "n_informative": "0..n_features (default 5)",
                    "separation": "class-mean separation in noise-std units (default 3.0)",
                    "noise_std": "float > 0 (default 1.0)",
                    "seed": "optional; derived from the master seed when absent",
                },
            },
            "missing_policy": f"one of {list(MISSING_POLICIES)} (default fill_mean)",
            "schema_overrides": "column name -> 'categorical' | 'numeric'",
            "oversample": "bool, duplicate minority rows to balance (default true)",
            "leak_safe": "bool, preprocess per split instead of up front (default false)",
            "splits": {"repeats": "int >= 1 (default 20)",
                       "test_frac": "0 < f < 1 (default 0.12)"},
            "models": [
                {
                    "algorithm": f"one of {list(ALGORITHMS)}",
                    "hyperparameters": {
                        alg: sorted(REGISTRY[alg].DEFAULTS) for alg in ALGORITHMS
                    },
                    "seed": "optional; derived from the master seed when absent",
                }
            ],
            "lime": {
                "n_samples": "int (default 5000)",
                "kernel_width": "float >= 1e-12 or null for 0.75*sqrt(d)",
                "ridge_alpha": "float >= 0 (default 1.0)",
                "k_features": "int >= 1 (default 10)",
                "seed": "optional; derived from the master seed when absent",
            },
            "select_k": "int >= 1, features kept after ranking (default 10)",
            "n_explain": "int >= 1, explanations aggregated (default 100)",
            "out_dir": "artifact directory (default 'out')",
        },
    }
