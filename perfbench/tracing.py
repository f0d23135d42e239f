"""Outside-in tracing of one pipeline run.

The package is not modified: hooks replace public callables from the
outside. A function hook rebinds every ``driverlens.*`` module attribute
that refers to the target function object, so names imported with
``from .x import y`` are caught as well; a method hook rebinds the method on
its class. Each call becomes a span (name, start, end, parent, attributes)
kept in memory, and the per-layer metrics are sums over those spans.

A hook whose target no longer exists is reported by name, and every metric
that depends on it is reported absent, never as zero.

Run as a script, this module traces ``driverlens run --config CONFIG`` in
this process (through the same ``cli.main`` the console script calls) and
writes the metrics as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py --config c.json --out t.json
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

from workloads import ALGORITHMS

TREE_MODELS = ("DTC", "RFC", "ETC", "GBC", "ABC")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the top
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


class Tracer:
    """In-memory span recorder for one thread of execution."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent,
                               attrs=attrs or {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index].end = self.clock()
        self._stack.pop()


# -- hooks ---------------------------------------------------------------------

def _bound(func, args, kwargs, name):
    """The argument `name` of a call, however it was passed."""
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _model_before(func, args, kwargs):
    return {"alg": args[0].algorithm}


def _model_fit_after(func, args, kwargs, result):
    model = args[0]
    if model.algorithm == "LR":
        return {"steps": len(model.loss_history_) - 1}
    if model.algorithm == "GBC":
        return {"rounds": len(model.trees_)}
    if model.algorithm == "ABC":
        return {"stumps": len(model.stumps_)}
    return {}


def _model_predict_after(func, args, kwargs, result):
    model = args[0]
    if model.algorithm != "KNN":
        return {}
    n_train, d = model.X_.shape
    return {"rows": int(result.shape[0]), "n_train": int(n_train), "d": int(d)}


def _tree_before(func, args, kwargs):
    return {"splitter": args[0].splitter}


def _tree_after(func, args, kwargs, result):
    tree = args[0]
    return {"nodes": int(tree.feature.size),
            "leaves": int((tree.feature < 0).sum())}


def _phase(func, args, kwargs):
    return {"phase": _bound(func, args, kwargs, "phase")}


def _cells(func, args, kwargs, result):
    return {"cells": result.n_rows * result.n_columns}


def _quality(func, args, kwargs, result):
    return {"fit_quality": float(result.fit_quality)}


def _perturb_rows(func, args, kwargs, result):
    return {"rows": int(result[0].shape[0])}


def _bytes(func, args, kwargs):
    return {"bytes": len(_bound(func, args, kwargs, "text").encode("utf-8"))}


@dataclass(frozen=True)
class Hook:
    """A span around one public callable.

    target is "module:attribute.path". before(func, args, kwargs) and
    after(func, args, kwargs, result) return span attributes.
    """

    name: str
    target: str
    before: object = None
    after: object = None


HOOKS = (
    Hook("pipeline.run_stage", "driverlens.pipeline:run_stage"),
    Hook("data.load_csv", "driverlens.data:load_csv", after=_cells),
    Hook("data.handle_missing", "driverlens.data:handle_missing"),
    Hook("data.encode", "driverlens.data:encode"),
    Hook("synth.generate", "driverlens.synth:synth_generate"),
    Hook("preprocess.oversample", "driverlens.preprocess:random_oversample"),
    # the leak-safe path oversamples each split through this helper
    Hook("preprocess.oversample_split", "driverlens.selection:_oversample_rows"),
    Hook("preprocess.fit_scaler", "driverlens.preprocess:fit_scaler"),
    Hook("preprocess.apply_scaler", "driverlens.preprocess:apply_scaler"),
    Hook("preprocess.split", "driverlens.preprocess:stratified_shuffle_splits"),
    Hook("metrics.evaluate", "driverlens.metrics:evaluate", before=_phase),
    Hook("metrics.classification", "driverlens.metrics:classification_metrics"),
    Hook("metrics.regression", "driverlens.metrics:regression_style_metrics"),
    Hook("models.fit", "driverlens.models.base:Classifier.fit",
         before=_model_before, after=_model_fit_after),
    Hook("models.predict", "driverlens.models.base:Classifier.predict_proba",
         before=_model_before, after=_model_predict_after),
    Hook("models.tree.classification_fit",
         "driverlens.models.tree:ClassificationTree.fit",
         before=_tree_before, after=_tree_after),
    Hook("models.tree.regression_fit",
         "driverlens.models.tree:RegressionTree.fit",
         before=_tree_before, after=_tree_after),
    Hook("explain.instance", "driverlens.explain:explain_instance",
         after=_quality),
    Hook("explain.perturb", "driverlens.explain:perturb", after=_perturb_rows),
    Hook("explain.kernel", "driverlens.explain:kernel_weights"),
    Hook("explain.surrogate", "driverlens.explain:fit_surrogate"),
    Hook("selection.aggregate", "driverlens.selection:aggregate_importance"),
    Hook("selection.select", "driverlens.selection:select_top_k"),
    Hook("chart.emit", "driverlens.chart:emit_chart"),
    Hook("ioutil.write", "driverlens.ioutil:atomic_write_text", before=_bytes),
)

# Values read, not wrapped: rows per KNN distance block.
PROBES = {"knn.chunk": "driverlens.models.neighbors:_CHUNK"}


def resolve(target: str):
    """(owner, attribute name, value) for "module:a.b.c"; AttributeError or
    ImportError when the target is gone."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Installation:
    """Hooks installed into the loaded driverlens modules; undo() restores."""

    def __init__(self, tracer: Tracer, hooks=HOOKS, probes=PROBES):
        self.tracer = tracer
        self.missing: dict[str, str] = {}  # hook or probe name -> reason
        self.broken: dict[str, str] = {}  # hook whose attribute reader failed
        self.probes: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []
        for name, target in probes.items():
            try:
                self.probes[name] = resolve(target)[2]
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{target}: {exc}"
        for hook in hooks:
            try:
                owner, attr, func = resolve(hook.target)
            except (ImportError, AttributeError) as exc:
                self.missing[hook.name] = f"{hook.target}: {exc}"
                continue
            wrapper = self._wrap(hook, func)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
            else:
                for module in _package_modules():
                    for key, value in list(vars(module).items()):
                        if value is func:
                            self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if attr in owner.__dict__ else None))
        setattr(owner, attr, wrapper)

    def _attrs(self, hook, reader, *args):
        try:
            return reader(*args) if reader is not None else {}
        except Exception as exc:  # noqa: BLE001 - a reader must not stop the run
            self.broken.setdefault(hook.name, f"{type(exc).__name__}: {exc}")
            return {}

    def _wrap(self, hook: Hook, func):
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.open(hook.name,
                                self._attrs(hook, hook.before, func, args, kwargs))
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.spans[index].attrs.update(
                self._attrs(hook, hook.after, func, args, kwargs, result))
            return result

        return wrapper

    def undo(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def _package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "driverlens" or name.startswith("driverlens."))]


# -- per-layer metrics ---------------------------------------------------------

class _Collector:
    """Metric values plus, for each metric that cannot be measured, why."""

    def __init__(self, unavailable: dict[str, str]):
        self.unavailable = unavailable
        self.values: dict[str, float] = {}
        self.absent: dict[str, str] = {}

    def put(self, name: str, needs: tuple[str, ...], compute):
        gone = [h for h in needs if h in self.unavailable]
        if gone:
            self.absent[name] = "; ".join(f"{h} ({self.unavailable[h]})"
                                          for h in gone)
            return
        try:
            self.values[name] = compute()
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            # a boundary span or a counted call never happened
            self.absent[name] = f"not observed: {exc}"

    def unobserved(self, names, reason: str):
        for name in names:
            if name in self.values:
                del self.values[name]
                self.absent[name] = reason


def layer_metrics(spans: list[Span], unavailable: dict[str, str],
                  probes: dict, algorithms) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run's spans.

    unavailable maps hook or probe names to the reason they could not be
    used; algorithms are the models the run was configured with. Returns
    (values, absent) where absent maps each unmeasurable metric to a reason.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def of(name, **match):
        return [i for i in by_name.get(name, ())
                if all(spans[i].attrs.get(k) == v for k, v in match.items())]

    def total(name, **match):
        return sum(spans[i].duration for i in of(name, **match))

    def self_total(name, **match):
        return sum(own[i] for i in of(name, **match))

    def attr_sum(name, key, **match):
        return sum(spans[i].attrs.get(key, 0) for i in of(name, **match))

    m = _Collector(unavailable)

    # stage boundaries from public calls
    run = lambda: of("pipeline.run_stage")[0]  # noqa: E731
    before = lambda: of("metrics.evaluate", phase="before")  # noqa: E731
    after = lambda: of("metrics.evaluate", phase="after")  # noqa: E731
    explained = lambda: of("explain.instance")  # noqa: E731
    charted = lambda: of("chart.emit")  # noqa: E731
    m.put("pipeline.prepare_s", ("pipeline.run_stage", "metrics.evaluate"),
          lambda: spans[before()[0]].start - spans[run()].start)
    m.put("pipeline.evaluate_before_s", ("metrics.evaluate",),
          lambda: spans[before()[-1]].end - spans[before()[0]].start)
    m.put("pipeline.explain_s", ("metrics.evaluate", "explain.instance"),
          lambda: spans[explained()[-1]].end - spans[before()[-1]].end)
    m.put("pipeline.select_s", ("explain.instance", "chart.emit"),
          lambda: spans[charted()[-1]].end - spans[explained()[-1]].end)
    m.put("pipeline.evaluate_after_s", ("chart.emit", "metrics.evaluate"),
          lambda: spans[after()[-1]].end - spans[charted()[-1]].end)

    m.put("data.load_csv_s", ("data.load_csv",), lambda: total("data.load_csv"))
    m.put("data.handle_missing_s", ("data.handle_missing",),
          lambda: total("data.handle_missing"))
    m.put("data.encode_s", ("data.encode",), lambda: total("data.encode"))
    m.put("data.cells", ("data.load_csv",),
          lambda: attr_sum("data.load_csv", "cells"))
    m.put("synth.generate_s", ("synth.generate",),
          lambda: total("synth.generate"))

    m.put("preprocess.oversample_s",
          ("preprocess.oversample", "preprocess.oversample_split"),
          lambda: total("preprocess.oversample")
          + total("preprocess.oversample_split"))
    m.put("preprocess.scale_s",
          ("preprocess.fit_scaler", "preprocess.apply_scaler"),
          lambda: total("preprocess.fit_scaler")
          + total("preprocess.apply_scaler"))
    m.put("preprocess.split_s", ("preprocess.split",),
          lambda: total("preprocess.split"))
    m.put("preprocess.scaler_fits", ("preprocess.fit_scaler",),
          lambda: len(of("preprocess.fit_scaler")))

    m.put("metrics.score_s", ("metrics.classification", "metrics.regression"),
          lambda: total("metrics.classification") + total("metrics.regression"))
    m.put("metrics.evaluate_self_s", ("metrics.evaluate",),
          lambda: self_total("metrics.evaluate"))

    fit, predict = ("models.fit",), ("models.predict",)
    for alg in ALGORITHMS:
        m.put(f"models.{alg}.fit_s", fit, lambda a=alg: total("models.fit", alg=a))
        m.put(f"models.{alg}.predict_s", predict,
              lambda a=alg: total("models.predict", alg=a))
        m.put(f"models.{alg}.fits", fit, lambda a=alg: len(of("models.fit", alg=a)))
    for alg in TREE_MODELS:
        m.put(f"models.{alg}.fit_self_s", fit,
              lambda a=alg: self_total("models.fit", alg=a))

    trees = ("models.tree.classification_fit", "models.tree.regression_fit")

    def tree_sum(key=None, **match):
        if key is None:
            return sum(total(name, **match) for name in trees)
        return sum(attr_sum(name, key, **match) for name in trees)

    m.put("models.tree.best_fit_s", trees, lambda: tree_sum(splitter="best"))
    m.put("models.tree.random_fit_s", trees, lambda: tree_sum(splitter="random"))
    m.put("models.tree.trees", trees,
          lambda: sum(len(of(name)) for name in trees))
    m.put("models.tree.nodes", trees, lambda: tree_sum("nodes"))
    m.put("models.tree.leaves", trees, lambda: tree_sum("leaves"))

    m.put("models.LR.steps", fit, lambda: attr_sum("models.fit", "steps", alg="LR"))
    m.put("models.GBC.rounds", fit,
          lambda: attr_sum("models.fit", "rounds", alg="GBC"))
    m.put("models.ABC.stumps", fit,
          lambda: attr_sum("models.fit", "stumps", alg="ABC"))
    knn = [spans[i].attrs for i in of("models.predict", alg="KNN")]
    m.put("models.KNN.distance_pairs", predict,
          lambda: sum(a["rows"] * a["n_train"] for a in knn))
    m.put("models.KNN.block_bytes", predict + ("knn.chunk",),
          lambda: max((min(a["rows"], probes["knn.chunk"]) * a["n_train"]
                       * a["d"] * 8 for a in knn), default=0))

    inst = ("explain.instance",)
    qualities = [spans[i].attrs["fit_quality"] for i in of("explain.instance")
                 if "fit_quality" in spans[i].attrs]
    explain_ids = set(of("explain.instance"))
    m.put("explain.explanations", inst, lambda: len(explain_ids))
    m.put("explain.self_s", inst, lambda: self_total("explain.instance"))
    m.put("explain.perturb_s", ("explain.perturb",),
          lambda: total("explain.perturb"))
    m.put("explain.perturb_rows", ("explain.perturb",),
          lambda: attr_sum("explain.perturb", "rows"))
    m.put("explain.kernel_s", ("explain.kernel",), lambda: total("explain.kernel"))
    m.put("explain.surrogate_s", ("explain.surrogate",),
          lambda: total("explain.surrogate"))
    m.put("explain.model_predict_s", inst + predict,
          lambda: sum(spans[i].duration for i in of("models.predict")
                      if spans[i].parent in explain_ids))
    m.put("explain.fit_quality_mean", inst,
          lambda: sum(qualities) / len(qualities))
    m.put("explain.fit_quality_min", inst, lambda: min(qualities))

    m.put("selection.rank_s", ("selection.aggregate", "selection.select"),
          lambda: total("selection.aggregate") + total("selection.select"))
    m.put("chart.emit_s", ("chart.emit",), lambda: total("chart.emit"))
    m.put("ioutil.write_s", ("ioutil.write",), lambda: total("ioutil.write"))
    m.put("ioutil.bytes", ("ioutil.write",),
          lambda: attr_sum("ioutil.write", "bytes"))

    # Work done where the hooks cannot see it (another process, a renamed
    # inner call) would read as zero: report it as unobserved instead.
    for alg in algorithms:
        if m.values.get(f"models.{alg}.fits") == 0:
            m.unobserved(
                [n for n in list(m.values) if n.startswith(f"models.{alg}.")],
                f"{alg} is configured but no fit was seen in the traced process")
    if any(alg in TREE_MODELS for alg in algorithms) and \
            m.values.get("models.tree.trees") == 0:
        m.unobserved([n for n in list(m.values) if n.startswith("models.tree.")],
                     "tree models are configured but no tree fit was seen")
    if m.values.get("explain.explanations") == 0:
        m.unobserved([n for n in list(m.values) if n.startswith("explain.")],
                     "no explain_instance call was seen in the traced process")
    return m.values, m.absent


def traced_run(config_path: str) -> dict:
    """Run `driverlens run --config config_path` under the hooks."""
    import driverlens  # noqa: F401 - loads every submodule the hooks patch
    from driverlens import cli
    from driverlens.config import config_from_json

    with open(config_path, encoding="utf-8") as fh:
        algorithms = [m.algorithm for m in config_from_json(fh.read()).models]
    tracer = Tracer()
    hooks = Installation(tracer)
    try:
        exit_code = cli.main(["run", "--config", config_path])
    finally:
        hooks.undo()
    unavailable = {**hooks.missing, **hooks.broken}
    values, absent = layer_metrics(tracer.spans, unavailable, hooks.probes,
                                   algorithms)
    return {"exit_code": exit_code, "metrics": values, "absent": absent,
            "missing_hooks": hooks.missing, "broken_hooks": hooks.broken,
            "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = traced_run(args.config)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
