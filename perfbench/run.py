"""driverlens benchmark: end-to-end runs of the CLI, or one traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 50 --trace 0

--trace 0 launches `driverlens schema` (set-up time) and `driverlens run` as
child processes, one at a time and alternately, until --seconds have passed;
it reports the end-to-end metrics named in BENCHMARK.json. Times are wall
times at the reference CPU speed: while a child runs, a speed meter samples
how fast the CPU it runs on is going (see SpeedMeter), and each wall time is
multiplied by that speed. The raw wall times are in the record. --trace 1 does one
run under perfbench/tracing.py, then untraced runs for the rest of the
window, and reports the per-layer metrics. Every launch is checked: exit
code 0, every artifact present, and report.json equal to the reference
digest recorded for this workload and seed (or, without one, equal across
all runs of the call).

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics. A record with the environment, the config and every run
is written to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from workloads import WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150.0
BUDGET_S = 170.0  # start no run that would have to end after this
BLAS_THREADS = "1"
WORK_DIR = ".perfbench_work"
REFERENCE_FILE = os.path.join(HERE, "reference.json")
# The speed meter: every METER_PERIOD_S while a child runs it times a fixed
# kernel for METER_SPIN_S on the CPU the child last ran on. The reference
# rates are the kernels' iterations per second on a quiet host (2-vCPU
# Xeon VM, Python 3.11, numpy 2.4); only the ratio of a reading to them
# matters, so they fix the unit and nothing else.
METER_PERIOD_S = 0.05
METER_SPIN_S = 0.002
REFERENCE_RATES = {"python": 2.4e7, "numpy": 4.0e4}
ARTIFACTS = ("report.json", "report.md", "ranking.json", "importance.svg",
             "metrics_before.json", "explanations.json", "scaler.json")


def _python_kernel(seconds: float) -> int:
    start, n = time.perf_counter(), 0
    while True:
        n += 1
        if n % 64 == 0 and time.perf_counter() - start >= seconds:
            return n


_VECTOR = np.random.default_rng(0).random(4096)


def _numpy_kernel(seconds: float) -> int:
    start, n = time.perf_counter(), 0
    while time.perf_counter() - start < seconds:
        np.sort(_VECTOR)
        float((_VECTOR * _VECTOR).sum())
        n += 1
    return n


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def last_cpu(pid: int) -> int | None:
    """The CPU a process last ran on (field 39 of /proc/PID/stat)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class SpeedMeter:
    """How fast the CPU a child runs on is going, sampled while it runs.

    The benchmark host is shared: other tenants slow a vCPU by up to half,
    for a fraction of a second or for minutes, and a child's wall time
    follows. Each sample stops the child's process group, moves this
    process onto the CPU the child last ran on, times one of two fixed
    kernels there (a pure-Python loop and a small numpy kernel, in turn)
    and lets the child go on. The kernel so meets the contention the child
    meets at that moment, without sharing the CPU with it, and the time
    the child spent stopped is kept in `paused_s`. speed() is the mean over
    both kernels of their rate relative to REFERENCE_RATES: 1.0 on a quiet
    host, 0.7 when that CPU runs at 70 % of it. A child's wall time times
    speed() estimates its wall time at the reference speed. The meter runs
    no code of the program, so a change to the program cannot move it.
    """

    def __init__(self):
        self.iterations = dict.fromkeys(KERNELS, 0)
        self.seconds = dict.fromkeys(KERNELS, 0.0)
        self.samples = 0
        self.paused_s = 0.0

    def sample(self, pid: int, stop: bool = True) -> None:
        """One reading on pid's CPU; with stop, pid's group is held still."""
        home = os.sched_getaffinity(0)
        stopped = time.perf_counter()
        try:
            if stop:
                os.killpg(pid, signal.SIGSTOP)
                # wait until it has stopped (or exited), without reaping it
                os.waitid(os.P_PID, pid,
                          os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            cpu = last_cpu(pid)
            if cpu is None:
                return
            kind = list(KERNELS)[self.samples % len(KERNELS)]
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            n = KERNELS[kind](METER_SPIN_S)
            self.seconds[kind] += time.perf_counter() - start
            self.iterations[kind] += n
            self.samples += 1
        except OSError:
            return
        finally:
            os.sched_setaffinity(0, home)
            if stop:
                os.killpg(pid, signal.SIGCONT)
                self.paused_s += time.perf_counter() - stopped

    def speed(self) -> float:
        if min(self.iterations.values()) == 0:
            raise RuntimeError("the speed meter took no sample of a kernel")
        return statistics.mean(self.iterations[k] / self.seconds[k]
                               / REFERENCE_RATES[k] for k in KERNELS)


@dataclass
class Launch:
    """One child process: what it cost and whether its output checked out."""

    kind: str
    wall_s: float
    speed: float  # SpeedMeter.speed() over the launch
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    log: str = ""
    digest: str | None = None
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems

    @property
    def reference_s(self) -> float:
        """The wall time at the reference CPU speed."""
        return self.wall_s * self.speed


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(kind, argv, cwd, env, log_path, timeout) -> Launch:
    """Run argv to completion under the speed meter; wall time (less the
    time the meter held it stopped), CPU time and peak RSS of the child.
    The child runs in a process group of its own, which is killed after
    `timeout` seconds and on any error here; the child is always reaped."""
    meter = SpeedMeter()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            # the pidfd turns readable when the child exits; it is reaped
            # only below, so its pid and group stay valid until then
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(METER_PERIOD_S * 1000):
                    if time.perf_counter() - start > timeout:
                        os.killpg(proc.pid, signal.SIGKILL)
                        poller.poll()
                        break
                    meter.sample(proc.pid)
                wall = time.perf_counter() - start - meter.paused_s
                for _ in KERNELS:  # a launch shorter than a period or two
                    if min(meter.iterations.values()) == 0:
                        meter.sample(proc.pid, stop=False)
            finally:
                os.close(pidfd)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(kind, wall, meter.speed(), usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode, log_path)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_report(doc: dict, config: dict) -> list[str]:
    """Structural checks of report.json against the config that produced it."""
    problems = []
    algorithms = [m if isinstance(m, str) else m["algorithm"]
                  for m in config.get("models", ())] or None
    for phase in ("before", "after"):
        rows = doc.get(phase, [])
        names = [r["model"] for r in rows]
        if algorithms is not None and names != algorithms:
            problems.append(f"{phase} rows {names} != configured {algorithms}")
        if not names:
            problems.append(f"no {phase} rows")
        for r in rows:
            if not 0.0 <= r["accuracy"] <= 1.0:
                problems.append(f"{phase} {r['model']} accuracy {r['accuracy']}")
    if doc.get("best_model") not in [r["model"] for r in doc.get("before", [])]:
        problems.append(f"best model {doc.get('best_model')!r} not evaluated")
    n_features = len(doc.get("ranking", {}).get("features", []))
    if len(doc.get("selected_features", [])) != min(config["select_k"], n_features):
        problems.append("selected feature count != min(select_k, features)")
    if not 1 <= doc.get("n_explanations", 0) <= config["n_explain"]:
        problems.append(f"n_explanations {doc.get('n_explanations')}")
    if doc.get("config", {}).get("seed") != config["seed"]:
        problems.append("report does not echo the config seed")
    return problems


def check_outputs(out_dir: str, config: dict) -> tuple[str | None, list[str]]:
    """(report.json sha256, problems) for one finished pipeline run."""
    expected = ARTIFACTS + (("encoding.json",) if "csv" in config["input"] else ())
    problems = [f"missing {name}" for name in expected
                if not os.path.isfile(os.path.join(out_dir, name))]
    report = os.path.join(out_dir, "report.json")
    if not os.path.isfile(report):
        return None, problems
    try:
        with open(report, encoding="utf-8") as fh:
            problems += check_report(json.load(fh), config)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"report.json unreadable: {exc!r}")
    return sha256_file(report), problems


def cpuinfo(field_name: str) -> str:
    """First value of a /proc/cpuinfo field, or "" where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(field_name):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def cpu_isa() -> str:
    """Coarse vector-ISA tag: float reductions may differ between kernels."""
    flags = cpuinfo("flags").split()
    return next((isa for isa in ("avx512f", "avx2") if isa in flags), "generic")


def reference_key() -> str:
    """Which stored digests apply: numpy version, machine and vector ISA."""
    return (f"numpy-{importlib.metadata.version('numpy')}/"
            f"{platform.machine()}/{cpu_isa()}")


def load_reference(workload: str, seed: int) -> str | None:
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(reference_key(), {}).get(workload, {}).get(str(seed))


def environment(root: str, workload: str, seed: int, config: dict) -> dict:
    def stdout_of(argv):
        try:
            return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                  timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    source = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    source.update(hashlib.sha256(fh.read()).digest())
    return {
        "commit": (stdout_of(["git", "rev-parse", "HEAD"])
                   if os.path.isdir(os.path.join(root, ".git")) else None),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo("model name") or None,
        "cpu_isa": cpu_isa(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        "config": config,
        "reference_key": reference_key(),
    }


class Session:
    """All child launches of one benchmark call, and their correctness gate."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.env = child_env(root)
        self.dir = os.path.join(root, WORK_DIR, f"{workload}-seed{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = write_inputs(workload, seed, self.dir)
        with open(os.path.join(self.dir, "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=1)
        self.reference = load_reference(workload, seed)
        self.launches: list[Launch] = []
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _launch(self, kind, args) -> Launch:
        log = os.path.join(self.dir, f"{len(self.launches):03d}-{kind}.log")
        timeout = max(1.0, min(CHILD_TIMEOUT_S, BUDGET_S - self.elapsed()))
        result = launch(kind, [sys.executable, *args], self.dir, self.env, log,
                        timeout)
        self.launches.append(result)
        return result

    def setup(self) -> Launch:
        result = self._launch("schema", ["-m", "driverlens.cli", "schema"])
        with open(result.log, encoding="utf-8") as fh:
            try:
                if "fields" not in json.load(fh):
                    result.problems = ("schema has no fields",)
            except ValueError:
                result.problems = ("schema output is not JSON",)
        return result

    def pipeline(self, traced: bool = False) -> Launch:
        """One `driverlens run`, plain or under the tracer, then its checks."""
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            args = [os.path.join(HERE, "tracing.py"), "--config", "config.json",
                    "--out", "trace.json"]
        else:
            args = ["-m", "driverlens.cli", "run", "--config", "config.json"]
        result = self._launch("traced" if traced else "run", args)
        if result.exit_code == 0:
            result.digest, problems = check_outputs(out, self.config)
            expected = self.reference or next(
                (r.digest for r in self.launches if r.digest), None)
            if result.digest is not None and result.digest != expected:
                problems.append(
                    "report.json differs from the "
                    + ("recorded reference" if self.reference else "first run"))
            result.problems = tuple(problems)
        return result

    def measure(self, seconds: float, setup: bool) -> tuple[list, list]:
        """Untraced runs, at least MIN_RUNS, then more while the next one is
        expected to end within `seconds` of the start of this call's runs.
        With setup, a `driverlens schema` launch precedes every run, so the
        set-up time is sampled across the whole window."""
        setups, runs = [], []
        while len(runs) < MIN_RUNS or (
                self.elapsed() + runs[-1].wall_s <= seconds
                and self.elapsed() + runs[-1].wall_s <= BUDGET_S):
            if setup:
                setups.append(self.setup())
            runs.append(self.pipeline())
        return setups, runs


def median_of(launches, field_name: str) -> float:
    good = [r for r in launches if r.ok] or launches
    return statistics.median(getattr(r, field_name) for r in good)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="driverlens benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so launch() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "driverlens", "cli.py")):
        print("error: run from a driverlens checkout (src/driverlens missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    session = Session(root, args.workload, args.seed)
    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}
    if args.trace == 0:
        setups, runs = session.measure(args.seconds, setup=True)
        checked = setups + runs
        metrics["run_s"] = median_of(runs, "reference_s")
        metrics["setup_s"] = median_of(setups, "reference_s")
        metrics["peak_rss_mb"] = median_of(runs, "peak_rss_mb")
        wanted = bench["end_to_end"]
    else:
        traced = session.pipeline(traced=True)
        _, runs = session.measure(args.seconds, setup=False)
        checked = [traced] + runs
        if traced.ok:
            with open(os.path.join(session.dir, "trace.json"),
                      encoding="utf-8") as fh:
                trace = json.load(fh)
            metrics.update(trace["metrics"])
            absent.update(trace["absent"])
        run_s = median_of(runs, "reference_s")
        metrics["pipeline.traced_run_s"] = traced.reference_s
        metrics["pipeline.trace_overhead_s"] = traced.reference_s - run_s
        metrics["pipeline.run_wall_s"] = median_of(runs, "wall_s")
        metrics["pipeline.cpu_s"] = median_of(runs, "cpu_s")
        metrics["pipeline.cpu_util"] = (metrics["pipeline.cpu_s"]
                                        / metrics["pipeline.run_wall_s"])
        metrics["host.speed"] = median_of(runs, "speed")
        wanted = bench["per_layer"]

    failed = sum(not r.ok for r in checked)
    if args.trace == 0:
        metrics["ok_ratio"] = 1.0 - failed / len(checked)
    units = {m["name"]: m["unit"] for m in wanted}
    for name in units:
        if name not in metrics:
            absent.setdefault(name, "not produced by the traced run")
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }

    record = {
        "environment": environment(root, args.workload, args.seed,
                                   session.config),
        "trace": args.trace,
        "reference_digest": session.reference,
        "launches": [asdict(r) for r in checked],
        "absent": absent,
        "result": result,
    }
    results_dir = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for r in checked:
        if not r.ok:
            print(f"FAILED {r.kind}: exit {r.exit_code}; "
                  + "; ".join(r.problems), file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(runs)} runs, "
          f"fail_ratio {failed}/{len(checked)} = {failed / len(checked):.3f}, "
          f"record {os.path.relpath(record_path, root)}")
    print(f"  run wall time {median_of(runs, 'wall_s'):.4g} s unscaled, "
          f"host speed {median_of(runs, 'speed'):.3f} of the reference")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, reason in sorted(absent.items()):
        print(f"  {name} ABSENT: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
