"""Command-line entry point.

Subcommands prep through run each call pipeline.run_stage, which runs the
pipeline through that stage and writes the artifacts of every stage so far:

    synth     generate a synthetic CSV
    prep      load, impute, encode, scale (writes encoding/scaler summaries)
    train     + evaluate every model on repeated splits
    explain   + explain the best model's test predictions
    select    + rank features, write ranking.json and importance.svg
    compare   full pipeline, print the before/after tables
    run       full pipeline, write every artifact
    schema    print the config document schema

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .config import config_from_dict, config_schema, document_from_json
from .errors import ConfigError, DataError
from .pipeline import STAGES, run_stage, run_synth_stage

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for data errors
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="driverlens", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", *STAGES):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, metavar="JSON",
                         help="path to the pipeline config document")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the master seed")
        cmd.add_argument("--leak-safe", action="store_true", default=None,
                         help="preprocess inside each split instead of up front")
        cmd.add_argument("--out", default=None, metavar="DIR",
                         help="override the artifact directory")
    sub.add_parser("schema")
    return parser


def _load_config(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = document_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if args.seed is not None:
        # --seed re-derives every stream, dropping seeds pinned in the file;
        # a malformed section is left as it is for config validation to name
        doc["seed"] = args.seed
        models, source = doc.get("models"), doc.get("input")
        for section in [*(models if isinstance(models, list) else []),
                        doc.get("lime"),
                        source.get("synth") if isinstance(source, dict) else None]:
            if isinstance(section, dict):
                section.pop("seed", None)
    if args.leak_safe:
        doc["leak_safe"] = True
    if args.out is not None:
        doc["out_dir"] = args.out
    return config_from_dict(doc)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "schema":
            print(json.dumps(config_schema(), indent=2))
            return EXIT_OK
        config = _load_config(args)
        if args.command == "synth":
            path = run_synth_stage(config)
            print(f"wrote {path}")
            return EXIT_OK
        report = run_stage(config, args.command)
        if args.command == "compare":
            print(report.to_text())
        elif report is not None:
            print(f"report written to {config.out_dir}")
        else:
            print(f"artifacts written to {config.out_dir}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
