"""Record the report.json digests that the benchmark's correctness gate uses.

Runs `driverlens run` once per workload and seed and stores the sha256 of
report.json in perfbench/reference.json, under a key naming the numpy
version, machine and vector ISA (float results can differ between those).
Record again only when a change alters report.json on purpose:

    python3 perfbench/record_reference.py --seeds 0-20
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range such as 0-20")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="default: every workload")
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(run.REFERENCE_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    digests = table.setdefault(run.reference_key(), {})
    for workload in args.workload or list(WORKLOADS):
        for seed in args.seeds:
            session = run.Session(root, workload, seed)
            session.reference = None
            result = session.pipeline()
            if not result.ok:
                print(f"{workload} seed {seed}: FAILED {result.problems}",
                      file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = result.digest
            print(f"{workload} seed {seed}: {result.digest}")
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
