"""Pipeline configuration: parsing, validation, and the published schema.

One reader parses the whole document, all-at-once: every violation in it is
collected and reported in a single ConfigError rather than one at a time.
Each default is declared once, in its dataclass or a model's DEFAULTS.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass

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
        if not self.models:  # the full zoo, each model on its own seed stream
            self.models = [ModelSpec(alg, {}, derive_seed(self.seed, f"model:{alg}"))
                           for alg in ALGORITHMS]
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
        values = asdict(self)
        doc = {"schema_version": SCHEMA_VERSION}
        for path, name in _FIELDS.items():
            if name != "out_dir" and values[name] is not None:
                section = doc.setdefault(path[0], {}) if len(path) > 1 else doc
                section[path[-1]] = values[name]
        return doc


# Where each PipelineConfig field sits in the config document. The type a
# value must have is the field's annotation; schema_version is accepted and
# not read, as to_json_dict writes SCHEMA_VERSION.
_FIELDS = {
    ("seed",): "seed",
    ("input", "csv"): "csv_path",
    ("input", "target"): "target_column",
    ("input", "synth"): "synth",
    ("missing_policy",): "missing_policy",
    ("schema_overrides",): "schema_overrides",
    ("oversample",): "oversample",
    ("leak_safe",): "leak_safe",
    ("splits", "repeats"): "repeats",
    ("splits", "test_frac"): "test_frac",
    ("models",): "models",
    ("lime",): "lime",
    ("select_k",): "select_k",
    ("n_explain",): "n_explain",
    ("out_dir",): "out_dir",
}
_TOP_LEVEL_KEYS = {"schema_version", *(path[0] for path in _FIELDS)}

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", dict: "an object", list: "a list"}
_TYPES = {kind.__name__: kind for kind in (*_TYPE_NAMES, SynthSpec, LimeConfig)}
_INVALID = object()  # a value whose problem is already reported
_ANY = (object, False)  # the (type, nullable) that every value has


def _kinds(cls) -> dict:
    """{field: (type, nullable)} from cls's annotations, e.g. 'float | None'."""
    return {f.name: (_TYPES[f.type.split(" | ")[0]], f.type.endswith(" | None"))
            for f in fields(cls)}


def _check(value, kind, nullable: bool, where: str, problems: list):
    """value as kind, or _INVALID once a problem naming where is added. A
    number is no boolean or string (which int() and float() would parse), an
    integer no fractional float, and a dataclass kind a section; null passes
    only where nullable."""
    if is_dataclass(kind):
        return _section(value, _kinds(kind), where, problems)
    if value is None and nullable:
        return None
    if kind in (int, float):
        fraction = kind is int and isinstance(value, float) and not value.is_integer()
        if not (isinstance(value, (bool, str)) or fraction):
            try:
                return kind(value)
            except (TypeError, ValueError, OverflowError):
                pass
    elif isinstance(value, kind):
        return value
    problems.append(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return _INVALID


def _section(value, kinds: dict, where: str, problems: list):
    """The object value, or _INVALID, each key read by _check as kinds ({key:
    (type, nullable)}) types it; an unknown key is a problem."""
    value = _check(value, dict, False, where, problems)
    if value is _INVALID:
        return value
    unknown = sorted(set(value) - set(kinds))
    if unknown:
        problems.append(f"unknown {where} key(s): {', '.join(unknown)}")
    return {key: _check(item, *kinds[key], f"{where}.{key}", problems)
            for key, item in value.items() if key in kinds}


def _models(entries, problems: list):
    """Each models entry as a dict of ModelSpec fields, or _INVALID. An int
    DEFAULTS value types its hyperparameter as an integer, a float one as a
    number, and max_depth also takes null (no depth limit). ModelSpec names
    unknown hyperparameters."""
    parsed = []
    for position, entry in enumerate(entries):
        where, before = f"models[{position}]", len(problems)
        entry = {"algorithm": entry} if isinstance(entry, str) else entry
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an algorithm name or an object, "
                            f"got {entry!r}")
            entry = {}  # read as empty: the entry is already a problem
        spec = _section(entry, _kinds(ModelSpec), where, problems)
        if isinstance(spec.get("hyperparameters"), dict):
            defaults = getattr(REGISTRY.get(spec.get("algorithm")), "DEFAULTS", {})
            spec["hyperparameters"] = {
                key: value if key not in defaults else _check(
                    value, float if isinstance(defaults[key], float) else int,
                    key == "max_depth", f"{where}.hyperparameters.{key}", problems)
                for key, value in spec["hyperparameters"].items()}
        parsed.append(spec if len(problems) == before else _INVALID)
    return parsed


def _read(doc, problems: list) -> dict:
    """Every value the document sets, by PipelineConfig field, a section as
    a dict; _INVALID where a value, or the object holding it, is a problem."""
    kinds, values = _kinds(PipelineConfig), {}
    top = _section(doc, dict.fromkeys(_TOP_LEVEL_KEYS, _ANY), "config", problems)
    objects = {(): top}
    for path, name in _FIELDS.items():
        parent, key = path[:-1], path[-1]
        if parent not in objects:
            known = dict.fromkeys((p[-1] for p in _FIELDS if p[:-1] == parent),
                                  _ANY)
            objects[parent] = top if top is _INVALID else _section(
                top.get(parent[0], {}), known, parent[0], problems)
        section, (kind, nullable) = objects[parent], kinds[name]
        if section is _INVALID:
            values[name] = _INVALID
        elif key in section:
            value = _check(section[key], kind, nullable, ".".join(path), problems)
            if kind is list and value is not _INVALID:
                value = _models(value, problems)
            values[name] = value
    return values


def _build(cls, values: dict, seed: int, where: str, problems: list):
    """cls(**values), with seed where values sets none; _INVALID if values
    or one of them is _INVALID (already reported), or if the build fails,
    once its ConfigError joins problems, named by where."""
    if values is _INVALID or _INVALID in values.values():
        return _INVALID
    try:
        return cls(**{"seed": seed, **values})
    except ConfigError as exc:
        problems.append(f"{where}: {exc}")
        return _INVALID


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a validated PipelineConfig from a parsed JSON document: read
    every key, then build the sections, the models and the config from the
    values that parsed, and raise one ConfigError naming every problem."""
    problems = []
    values = _read(doc, problems)
    seed = values["seed"] if isinstance(values.get("seed"), int) else PipelineConfig.seed
    if "synth" in values:
        values["synth"] = _build(SynthSpec, values["synth"],
                                 derive_seed(seed, "synth"), "input.synth", problems)
    values["lime"] = _build(LimeConfig, values.get("lime", {}),  # its seed is derived
                            derive_seed(seed, "explain"), "lime", problems)
    if isinstance(values.get("models"), list):
        values["models"] = [  # an _INVALID entry leaves a problem to raise
            _build(ModelSpec, spec, derive_seed(
                seed, f"model:{spec.setdefault('algorithm', '?')}", position),
                f"models[{position}]", problems)
            for position, spec in enumerate(values["models"])
            if spec is not _INVALID]
    if any(values.get(name) is _INVALID
           for name in ("csv_path", "target_column", "synth")):
        # a stand-in, so that a malformed input is not also called missing
        values.update(csv_path=None, target_column=None, synth=SynthSpec())
    try:
        config = PipelineConfig(**{name: value for name, value in values.items()
                                   if value is not _INVALID})
    except ConfigError as exc:
        problems.append(str(exc).removeprefix("invalid configuration: "))
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))
    return config


def document_from_json(text: str) -> dict:
    """The config document in text: a JSON object, or a ConfigError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config JSON must be an object")
    return doc


def config_from_json(text: str) -> PipelineConfig:
    return config_from_dict(document_from_json(text))


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
