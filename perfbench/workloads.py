"""Benchmark workloads: the pipeline config (and CSV input) each one runs.

Every input is a pure function of the workload name and the benchmark seed.
The CSV generator uses only the standard library's ``random.random()``,
whose sequence Python guarantees across versions, so the same seed writes
the same bytes on any interpreter or numpy build.
"""

from __future__ import annotations

import math
import random

ALGORITHMS = ("LR", "DTC", "RFC", "ETC", "GBC", "ABC", "KNN", "GNB", "MNB",
              "LDA", "QDA")

# On the synthetic data every tree ensemble and the linear models tie at
# accuracy 1.0, and ties go to the first model listed. Listing RFC first
# keeps the explained model (and so the explain stage's cost) the same on
# every seed; the other ten keep the package's canonical order.
_RFC_FIRST = ("RFC",) + tuple(a for a in ALGORITHMS if a != "RFC")

CSV_NAME = "drivers.csv"
CSV_TARGET = "driving_style"
CSV_CLASSES = (("aggressive", 0.5), ("normal", 0.3), ("cautious", 0.2))
CSV_NUMERIC = (
    "speed_mean", "speed_std", "accel_mean", "accel_std", "brake_rate",
    "jerk_p95", "steer_std", "headway_s", "rpm_mean", "throttle_mean",
    "lane_changes", "idle_share", "trip_km", "night_share",
)
CSV_INFORMATIVE = 6  # the first six numeric columns carry the class signal
# Class mean gap, in noise standard deviations, on the first informative
# column. At this strength every model reaches accuracy 1.0 on every seed,
# so the first model listed (GNB) is the explained one and the explain
# stage costs the same on every seed; with a weak signal the winner varied
# between GNB, LR and QDA, and QDA's dearer predictions moved run_s by 45 %.
CSV_SIGNAL = 6.0
CSV_CATEGORICAL = (
    ("road_type", ("highway", "rural", "urban")),
    ("weather", ("clear", "fog", "rain", "snow")),
    ("vehicle", ("car", "truck", "van")),
    ("shift", ("day", "evening", "night")),
)
CSV_MISSING_RATE = 0.02

WORKLOADS = {
    "zoo": {
        "why": "README data and all 11 models as shipped, scaled down: exact "
               "best-split tree fitting (GBC, RFC) and RFC tree traversal in "
               "the explain stage dominate",
        "config": {
            "input": {"synth": {"n_rows": 300, "n_features": 18,
                                "n_informative": 5, "separation": 3.0}},
            "splits": {"repeats": 1, "test_frac": 0.12},
            "models": list(_RFC_FIRST),
            "select_k": 10,
            "n_explain": 10,
        },
    },
    "csv-leaksafe": {
        "why": "seeded CSV with NA cells and string categories, leak-safe "
               "per-split preprocessing, no tree models: ingest, KNN distance "
               "blocks, LR descent and LIME internals",
        "csv_rows": 3000,
        "config": {
            "input": {"csv": CSV_NAME, "target": CSV_TARGET},
            "leak_safe": True,
            "splits": {"repeats": 1, "test_frac": 0.12},
            "models": ["GNB", "LR", "KNN", "MNB", "LDA", "QDA"],
            "select_k": 10,
            "n_explain": 200,
        },
    },
}


def workload_config(name: str, seed: int) -> dict:
    """The config document a workload runs with the given seed.

    Paths in it are relative: the benchmark runs the pipeline from the
    workload's own directory, so report.json (which echoes the CSV path)
    does not depend on where the checkout lives.
    """
    doc = {"seed": int(seed)}
    doc.update(WORKLOADS[name]["config"])
    doc["out_dir"] = "out"
    return doc


def _apportion(n: int, shares) -> list[int]:
    """Largest-remainder split of n rows by the given shares."""
    quotas = [n * s for s in shares]
    counts = [math.floor(q) for q in quotas]
    order = sorted(range(len(shares)), key=lambda c: (counts[c] - quotas[c], c))
    for c in order[: n - sum(counts)]:
        counts[c] += 1
    return counts


def _normal(rng: random.Random) -> float:
    """Standard normal draw by Box-Muller from two random() calls."""
    u1 = 1.0 - rng.random()  # (0, 1], keeps log finite
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def csv_text(n_rows: int, seed: int) -> str:
    """A driver-telemetry CSV: 14 numeric and 4 categorical feature columns,
    about CSV_MISSING_RATE of feature cells written as NA, and a string
    target in the CSV_CLASSES proportions."""
    rng = random.Random(f"driverlens-bench-csv:{seed}")
    counts = _apportion(n_rows, [share for _, share in CSV_CLASSES])
    labels = [c for c, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(labels)
    header = list(CSV_NUMERIC) + [name for name, _ in CSV_CATEGORICAL]
    lines = [",".join(header + [CSV_TARGET])]
    for c in labels:
        cells = []
        for j in range(len(CSV_NUMERIC)):
            shift = (CSV_SIGNAL * c * (1.0 - 0.1 * j) if j < CSV_INFORMATIVE
                     else 0.0)
            cells.append(f"{10.0 + j + shift + _normal(rng):.4f}")
        for j, (_, levels) in enumerate(CSV_CATEGORICAL):
            # road type leans with the class; the other categories are noise
            if j == 0 and rng.random() < 0.4:
                cells.append(levels[c])
            else:
                cells.append(levels[int(rng.random() * len(levels))])
        cells = ["NA" if rng.random() < CSV_MISSING_RATE else v for v in cells]
        lines.append(",".join(cells + [CSV_CLASSES[c][0]]))
    return "\n".join(lines) + "\n"


def write_inputs(name: str, seed: int, directory: str) -> dict:
    """Write the workload's input files into directory; return its config."""
    spec = WORKLOADS[name]
    if "csv_rows" in spec:
        with open(f"{directory}/{CSV_NAME}", "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(csv_text(spec["csv_rows"], seed))
    return workload_config(name, seed)
