"""Golden artifacts: one small CSV config, run in each preprocessing mode
with select_k 4 and with select_k 1, must write every artifact with the
sha256 recorded in golden_digests.json.

The CSV has NA and empty cells, quoted categorical cells and three classes;
the config runs all eleven models over three repeats, with fewer trees and
rounds than the defaults so the runs take seconds. select_k 1 is the one
width where refitting a scaler on the kept column rounds differently from
cutting the full scaler down to it, so those cases pin which one each mode
does. Float results can
differ between numpy builds and vector kernels, so the digests are keyed by
numpy version, machine and vector ISA with the benchmark's reference_key;
where none are recorded for this key the test skips and names it.
Record them again only when a change alters artifacts on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile

import pytest

from driverlens.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from run import reference_key  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_digests.json")
# case name: (leak_safe, select_k)
CASES = {"default": (False, 4), "leak-safe": (True, 4),
         "default-k1": (False, 1), "leak-safe-k1": (True, 1)}
MODELS = [
    "LR", "DTC",
    {"algorithm": "RFC", "hyperparameters": {"n_trees": 10}},
    {"algorithm": "ETC", "hyperparameters": {"n_trees": 10}},
    {"algorithm": "GBC", "hyperparameters": {"n_rounds": 10}},
    {"algorithm": "ABC", "hyperparameters": {"n_rounds": 10}},
    "KNN", "GNB", "MNB", "LDA", "QDA",
]


def csv_text(n_rows: int = 800) -> str:
    """Three driving styles over six numeric and two categorical columns;
    only random.random() draws, whose sequence Python fixes across
    versions, so the bytes are the same on every interpreter."""
    rng = random.Random("driverlens-golden")

    def pick(items):
        return items[int(rng.random() * len(items))]

    def normal():
        u1 = 1.0 - rng.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * rng.random())

    styles = ("aggressive", "normal", "cautious")
    roads = ("highway", "rural", "urban")
    weather = ("clear", '"rain, heavy"', '"fog ""thick"""', "snow")
    lines = ["speed,accel,brake,jerk,headway,rpm,road,weather,style"]
    for _ in range(n_rows):
        c = pick((0, 0, 0, 1, 1, 2))
        cells = [f"{10 + j + (1.5 - 0.2 * j) * c + normal():.4f}" for j in range(6)]
        cells.append(roads[c] if rng.random() < 0.5 else pick(roads))
        cells.append(pick(weather))
        cells = [pick(("NA", "")) if rng.random() < 0.03 else v for v in cells]
        lines.append(",".join(cells + [styles[c]]))
    return "\n".join(lines) + "\n"


def run_digests(leak_safe: bool, select_k: int) -> dict[str, str]:
    """{artifact name: sha256} of one `driverlens run` of the golden config."""
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, "drivers.csv"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(csv_text())
        config = {
            "seed": 5,
            "input": {"csv": "drivers.csv", "target": "style"},
            "leak_safe": leak_safe,
            "splits": {"repeats": 3, "test_frac": 0.12},
            "models": MODELS,
            "lime": {"n_samples": 500},
            "select_k": select_k,
            "n_explain": 10,
            "out_dir": "out",
        }
        with open(os.path.join(directory, "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(config, fh)
        cwd = os.getcwd()
        os.chdir(directory)  # report.json echoes the relative CSV path
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--config", "config.json"])
        finally:
            os.chdir(cwd)
        assert code == 0
        digests = {}
        for name in sorted(os.listdir(os.path.join(directory, "out"))):
            with open(os.path.join(directory, "out", name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests


def recorded() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_recorded_digests(case):
    want = recorded().get(reference_key(), {}).get(case)
    if want is None:
        pytest.skip(f"no golden digests recorded for {reference_key()}")
    assert run_digests(*CASES[case]) == want


if __name__ == "__main__":
    table = recorded()
    table[reference_key()] = {case: run_digests(*args)
                              for case, args in CASES.items()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {reference_key()} in {DIGESTS}", file=sys.stderr)
