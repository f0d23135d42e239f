"""End-to-end orchestration: load, preprocess, evaluate, explain, select,
re-evaluate, report.

Artifacts land in config.out_dir via atomic writes, so a failed run never
leaves a partial report behind. All randomness flows from the master seed
through named streams; runs are byte-reproducible for any thread count.
"""

from __future__ import annotations

import json
import os

from .chart import emit_chart
from .config import PipelineConfig
from .data import Dataset, encode, handle_missing, load_csv
from .errors import ConfigError
from .ioutil import atomic_write_text
from .metrics import markdown_table
from .preprocess import fit_scaler
from .selection import ComparisonReport, StagedComparison
from .synth import dump_csv, synth_generate

STAGES = ("prep", "train", "explain", "select", "compare", "run")


def acquire_dataset(config: PipelineConfig) -> tuple[Dataset, dict | None]:
    """Load-and-encode the CSV input, or generate the synthetic stand-in."""
    if config.csv_path is not None:
        table = load_csv(config.csv_path, config.target_column)
        table = handle_missing(table, config.missing_policy)
        dataset, encoding = encode(table, kind_overrides=config.schema_overrides)
        return dataset, encoding.to_json_dict()
    return synth_generate(config.synth), None


def run_pipeline(config: PipelineConfig) -> ComparisonReport:
    """Execute every stage and write report.json, report.md, ranking.json
    and importance.svg under config.out_dir."""
    return run_stage(config, "run")


def run_stage(config: PipelineConfig, stage: str) -> ComparisonReport | None:
    """Run the pipeline through the named stage, writing that stage's
    artifacts (cumulative). Returns the report for compare/run, else None."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES}")
    out = config.out_dir
    data, encoding = acquire_dataset(config)
    runner = StagedComparison(config.models, data, config)

    prepared, _ = runner.prepare()
    os.makedirs(out, exist_ok=True)
    if encoding is not None:
        _write_json(os.path.join(out, "encoding.json"), encoding)
    scaler = runner.scaler
    if scaler is None:
        # leak-safe mode scales each split with its own scaler; the file
        # records one fitted on the unscaled rows, which no split applies
        scaler = fit_scaler(prepared.X, feature_names=prepared.feature_names())
    atomic_write_text(os.path.join(out, "scaler.json"), scaler.to_json() + "\n")
    if stage == "prep":
        return None

    before = runner.evaluate_before()
    _write_json(
        os.path.join(out, "metrics_before.json"),
        [r.to_json_dict() for r in before],
    )
    if stage == "train":
        return None

    explanations = runner.explain_best()
    _write_json(
        os.path.join(out, "explanations.json"),
        {
            "model": runner.best_spec.algorithm,
            "explanations": [
                e.to_json_dict(feature_names=prepared.feature_names())
                for e in explanations
            ],
        },
    )
    if stage == "explain":
        return None

    ranking, _ = runner.rank_and_select()
    _write_json(os.path.join(out, "ranking.json"), ranking.to_json_dict())
    emit_chart(ranking, os.path.join(out, "importance.svg"))
    if stage == "select":
        return None

    report = runner.report()
    report.config_echo = config.to_json_dict()
    _write_json(os.path.join(out, "report.json"), report.to_json_dict(),
                sort_keys=True)
    atomic_write_text(os.path.join(out, "report.md"), report.to_markdown())
    return report


def run_synth_stage(config: PipelineConfig) -> str:
    """Generate synthetic data and dump it as CSV; returns the file path."""
    if config.synth is None:
        raise ConfigError("the synth stage needs synth input parameters")
    data = synth_generate(config.synth)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "synthetic.csv")
    dump_csv(data, path)
    return path


def _write_json(path: str, doc, sort_keys: bool = False):
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")


def report_tables_text(report: ComparisonReport) -> str:
    """Plain-text before/after tables for the compare subcommand."""
    return "\n".join(
        [
            "Before feature selection:",
            markdown_table(report.before),
            "",
            "After feature selection:",
            markdown_table(report.after),
            "",
            f"Best model: {report.best_model}",
            "Selected features: " + ", ".join(report.selected_features),
        ]
    )
