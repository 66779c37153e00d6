"""Command-line entry point.

Subcommands: run, synth, report, validate-config, convert-dataset.
Exit codes: 0 success, 1 pipeline/data failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, parse_config, parse_config_text, read_config_text, validate_config
from .core_data import DatasetError, convert_dataset
from .pipeline import PipelineError, run_experiment
from .report import write_report
from .synth import generate_dataset, parse_profile

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handover-intent",
        description="Handover-intention detection experiments on multimodal recordings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured experiment")
    run.add_argument("--config", type=Path, required=True)
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for loading and featurizing trials (the "
        "manifest's trials cut into up to this many slices) and for "
        "evaluating (participant, view, CV split) tasks, each over every window",
    )
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", type=Path, default=None, help="override the output dir")

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--profile", type=Path, required=True)
    synth.add_argument("--out", type=Path, required=True)
    synth.add_argument("--seed", type=int, default=None, help="override the profile seed")

    report = sub.add_parser("report", help="emit figure-data CSVs from results")
    report.add_argument("--results", type=Path, required=True)
    report.add_argument("--out", type=Path, default=None)

    validate = sub.add_parser("validate-config", help="check a config file")
    validate.add_argument("--config", type=Path, required=True)

    convert = sub.add_parser(
        "convert-dataset", help="convert a published-archive layout into a manifest dataset"
    )
    convert.add_argument("--source", type=Path, required=True)
    convert.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_run(args) -> int:
    path = args.config
    try:
        text = read_config_text(path)  # parsed once, and recorded in the run's metadata
        cfg = parse_config_text(text, str(path), path.parent)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            cfg = replace(cfg, seed=args.seed)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_experiment(cfg, jobs=args.jobs, config_text=text)
    except (PipelineError, DatasetError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    print(f"wrote results to {result.out_dir}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        profile = parse_profile(args.profile)
        if args.seed is not None:
            if args.seed < 0:
                raise ValueError(f"--seed must be >= 0, got {args.seed}")
            profile = replace(profile, seed=args.seed)
    except (OSError, ValueError) as exc:
        print(f"profile error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest = generate_dataset(profile, args.out)
    except OSError as exc:
        print(f"synth error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    print(f"wrote synthetic dataset manifest {manifest}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        written = write_report(args.results, args.out)
    except (OSError, ValueError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        cfg = parse_config(args.config)
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.config}: OK")
    return EXIT_OK


def _cmd_convert(args) -> int:
    try:
        manifest = convert_dataset(args.source, args.out)
    except (DatasetError, OSError, ValueError) as exc:
        print(f"convert error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    print(f"wrote {manifest}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "synth": _cmd_synth,
        "report": _cmd_report,
        "validate-config": _cmd_validate,
        "convert-dataset": _cmd_convert,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
