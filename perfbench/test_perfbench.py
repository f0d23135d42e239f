"""Tests of the benchmark's own code: span arithmetic, input generation,
hook resolution and the traced run's metric coverage.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Installation, Span, Tracer, covered, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
# measured by run.py from the untraced and traced child processes
FROM_RUNS = {"pipeline.traced_run_s", "pipeline.trace_overhead_s",
             "pipeline.run_wall_s", "pipeline.cpu_s", "pipeline.cpu_util",
             "host.speed"}


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    a1 = tracer.open("a1")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    spans = tracer.spans
    assert [s.parent for s in spans] == [-1, root, a, root]
    assert [s.duration for s in spans] == [10, 3, 1, 4]
    assert self_times(spans) == [3, 2, 1, 4]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0), Span("c1", 1.0, 5.0, parent=0),
             Span("c2", 3.0, 7.0, parent=0), Span("c3", 9.0, 12.0, parent=0)]
    # union of children inside [0, 10] is [1, 7] + [9, 10] = 7
    assert covered([(1, 5), (3, 7), (9, 12)], 0.0, 10.0) == 7.0
    assert self_times(spans)[0] == 3.0


def test_csv_generator_is_deterministic_per_seed():
    first = workloads.csv_text(400, seed=7)
    assert first == workloads.csv_text(400, seed=7)
    assert first != workloads.csv_text(400, seed=8)
    lines = first.splitlines()
    header = lines[0].split(",")
    assert len(header) == 14 + 4 + 1 and header[-1] == workloads.CSV_TARGET
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 400 and all(len(r) == len(header) for r in rows)
    labels = [r[-1] for r in rows]
    assert [labels.count(name) for name, _ in workloads.CSV_CLASSES] == [200, 120, 80]
    cells = [c for r in rows for c in r[:-1]]
    assert 0.01 < cells.count("NA") / len(cells) < 0.03


def test_workload_configs_are_seeded_and_relative():
    for name in workloads.WORKLOADS:
        doc = workloads.workload_config(name, 5)
        assert doc["seed"] == 5 and doc["out_dir"] == "out"
        assert "threads" not in doc
        assert not os.path.isabs(doc["input"].get("csv", ""))


def test_every_hook_and_probe_resolves():
    import driverlens  # noqa: F401

    for hook in tracing.HOOKS:
        assert callable(tracing.resolve(hook.target)[2]), hook.name
    for name, target in tracing.PROBES.items():
        tracing.resolve(target)


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]]["why"]
    names = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    with open(os.path.join(HERE, "interactions.json"), encoding="utf-8") as fh:
        interactions = json.load(fh)
    for row in interactions["map"]:
        assert set(row["layer"]) <= names, row
        assert row["moves"] in names
        assert set(row["workloads"]) == set(workloads.WORKLOADS)


def _tiny_run(tmp_path, hooked):
    """A small leak-safe CSV run with every model, in this process."""
    from driverlens import cli

    (tmp_path / workloads.CSV_NAME).write_text(workloads.csv_text(90, seed=3))
    doc = workloads.workload_config("csv-leaksafe", 3)
    small = {"n_trees": 3}
    doc["models"] = [{"algorithm": alg,
                      "hyperparameters": small if alg in ("RFC", "ETC") else
                      {"n_rounds": 3} if alg in ("GBC", "ABC") else {}}
                     for alg in workloads.ALGORITHMS]
    doc["n_explain"] = 3
    doc["lime"] = {"n_samples": 200}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        if not hooked:
            assert cli.main(["run", "--config", "config.json"]) == 0
            return None
        return tracing.traced_run("config.json")
    finally:
        os.chdir(cwd)


def test_traced_run_emits_every_layer_metric_and_keeps_report_bytes(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    _tiny_run(plain, hooked=False)
    result = _tiny_run(traced, hooked=True)
    assert result["exit_code"] == 0
    assert result["missing_hooks"] == {} and result["broken_hooks"] == {}
    wanted = {m["name"] for m in BENCHMARK["per_layer"]} - FROM_RUNS
    assert result["absent"] == {}
    assert set(result["metrics"]) == wanted
    m = result["metrics"]
    # two evaluations of every model, plus one fit of the explained model
    fits = [m[f"models.{alg}.fits"] for alg in workloads.ALGORITHMS]
    assert sum(fits) == 2 * len(fits) + 1
    assert m["models.tree.trees"] > 0 and m["data.cells"] == 90 * 19
    assert m["explain.explanations"] == 3
    report = "out/report.json"
    assert (plain / report).read_bytes() == (traced / report).read_bytes()
    # hooks are removed again
    from driverlens.models.base import Classifier
    assert Classifier.fit.__qualname__ == "Classifier.fit"


def test_missing_hook_target_is_named_not_zero():
    import driverlens  # noqa: F401

    gone = tracing.Hook("data.load_csv", "driverlens.data:load_csv_renamed")
    hooks = Installation(Tracer(), hooks=(gone,), probes={})
    try:
        assert "data.load_csv" in hooks.missing
    finally:
        hooks.undo()
    values, absent = tracing.layer_metrics([], hooks.missing, {}, [])
    for name in ("data.load_csv_s", "data.cells"):
        assert name not in values and "load_csv_renamed" in absent[name]


def test_unobserved_model_work_is_absent_not_zero():
    values, absent = tracing.layer_metrics([], {}, {"knn.chunk": 256}, ["LR"])
    assert "models.LR.fit_s" in absent and "models.LR.fits" in absent
    assert values["models.RFC.fits"] == 0  # not configured: a true zero


def _sleeper(tmp_path, seconds, timeout):
    argv = [sys.executable, "-c", f"import time; time.sleep({seconds})"]
    return run.launch("sleep", argv, str(tmp_path), dict(os.environ),
                      str(tmp_path / "log"), timeout)


def test_launch_is_metered_and_reaped(tmp_path):
    result = _sleeper(tmp_path, 0.3, timeout=30)
    assert result.exit_code == 0 and result.wall_s >= 0.3
    assert 0.05 < result.speed < 5.0
    assert result.reference_s == result.wall_s * result.speed
    killed = _sleeper(tmp_path, 60, timeout=0.5)
    assert killed.exit_code == -9 and killed.wall_s < 10


def test_speed_meter_needs_both_kernels():
    meter = run.SpeedMeter()
    meter.sample(os.getpid(), stop=False)
    with pytest.raises(RuntimeError):
        meter.speed()
    meter.sample(os.getpid(), stop=False)
    assert meter.speed() > 0 and meter.paused_s == 0


@pytest.mark.parametrize("doc,problem", [
    ({"before": [], "after": []}, "no before rows"),
    ({"before": [{"model": "LR", "accuracy": 1.5}]}, "accuracy"),
])
def test_report_check_flags_bad_reports(doc, problem):
    config = {"select_k": 1, "n_explain": 1, "seed": 0}
    assert any(problem in p for p in run.check_report(doc, config))
