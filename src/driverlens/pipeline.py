"""End-to-end orchestration: load, preprocess, evaluate, explain, select,
re-evaluate, report.

run_stage is the one driver: it calls the stages in order as plain functions
and stops after the requested one; every CLI stage subcommand and every
library caller goes through it. The preprocessing mode stays inside
selection: the splits it builds each carry the scaler they apply, so
run_stage reads the mode only to pick the layout of scaler.json. Artifacts
land in config.out_dir via atomic writes, so a failed run never leaves a
partial report behind. All randomness flows from the master seed through
named streams, so reruns are byte-reproducible.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .chart import emit_chart
from .config import PipelineConfig
from .data import Dataset, encode, handle_missing, load_csv
from .errors import ConfigError
from .ioutil import atomic_write_text
from .metrics import evaluate
from .selection import (
    ComparisonReport,
    _prepare,
    explain_best,
    pick_best,
    rank_and_select,
    reduce_splits,
)
from .synth import dump_csv, synth_generate

STAGES = ("prep", "train", "explain", "select", "compare", "run")


def _prime_heap() -> None:
    """Map one 4 MiB block and free it, so that glibc serves a run's
    temporaries from reused heap pages.

    glibc's malloc maps any request above its mmap threshold (128 KiB at
    start) as its own pages, and returns them to the kernel on free. When
    such a mapped block is freed, glibc raises the threshold to the
    block's size and its trim threshold to twice that, within a 32 MiB
    cap. The block is never written, so it costs no resident page. After
    it, temporaries up to 4 MiB come from the heap, and freed heap pages
    stay mapped for the next ones instead of being mapped, faulted in and
    returned each time. 4 MiB covers the largest temporaries the stages
    repeat: a (5000, 18) float64 perturbation set is 720 kB, and KNN's
    distance block is at most 512 KiB. Without it, the thresholds follow
    whichever mapped temporaries a run happens to free first; until the
    primer, a 4 MiB KNN buffer set them in runs that trained KNN, from
    its first predict on.

    Counted by ru_minflt of whole `driverlens run`s on a 2-vCPU Xeon
    (glibc 2.36), the benchmark's zoo workload at seed 1 took 27,400
    minor page faults with the old 4 MiB KNN buffer, 43,100 with an exact
    512 KiB one and no primer, and 6,700 with the primer. On another
    allocator the block is one short-lived empty array and nothing more.
    """
    block = np.empty(4 * 2**20, dtype=np.uint8)
    del block


def acquire_dataset(config: PipelineConfig) -> tuple[Dataset, dict | None]:
    """Load-and-encode the CSV input, or generate the synthetic stand-in."""
    if config.csv_path is not None:
        table = load_csv(config.csv_path, config.target_column)
        table = handle_missing(table, config.missing_policy,
                               kind_overrides=config.schema_overrides)
        dataset, encoding = encode(table, kind_overrides=config.schema_overrides)
        return dataset, encoding.to_json_dict()
    return synth_generate(config.synth), None


def run_stage(config: PipelineConfig, stage: str) -> ComparisonReport | None:
    """Run the pipeline through the named stage, writing the artifacts of
    every stage up to it. Returns the report for compare/run, else None.

    prep writes encoding.json (CSV input) and scaler.json, train adds
    metrics_before.json, explain adds explanations.json, select adds
    ranking.json and importance.svg, and compare/run add report.json and
    report.md.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES}")
    out = config.out_dir
    _prime_heap()
    data, encoding = acquire_dataset(config)
    if STAGES.index(stage) >= STAGES.index("explain"):  # fail before evaluating
        config.lime.check_samples(data.n_features)

    data, splits = _prepare(data, config)
    os.makedirs(out, exist_ok=True)
    if encoding is not None:
        _write_json(os.path.join(out, "encoding.json"), encoding)
    # the default mode applies one scaler to every row; leak-safe mode
    # records each split's own scaler, in split order
    scalers = [split.scaler.to_json_dict() for split in splits]
    _write_json(os.path.join(out, "scaler.json"),
                scalers if config.leak_safe else scalers[0])
    if stage == "prep":
        return None

    before = evaluate(config.models, splits, data, "before")
    _write_json(
        os.path.join(out, "metrics_before.json"),
        [r.to_json_dict() for r in before],
    )
    if stage == "train":
        return None

    best = config.models[pick_best(before)]
    explanations = explain_best(best, splits, data, config)
    _write_json(
        os.path.join(out, "explanations.json"),
        {
            "model": best.algorithm,
            "explanations": [e.to_json_dict(data.feature_names) for e in explanations],
        },
    )
    if stage == "explain":
        return None

    ranking, selected = rank_and_select(explanations, data, config)
    _write_json(os.path.join(out, "ranking.json"), ranking.to_json_dict())
    emit_chart(ranking, os.path.join(out, "importance.svg"))
    if stage == "select":
        return None

    reduced, reduced_splits = reduce_splits(data, splits, selected, config)
    after = evaluate(config.models, reduced_splits, reduced, "after")
    report = ComparisonReport(
        before=before,
        after=after,
        best_model=best.algorithm,
        selected_indices=selected,
        selected_features=[data.feature_names[j] for j in selected],
        ranking=ranking,
        n_explanations=len(explanations),
        config_echo=config.to_json_dict(),
    )
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

