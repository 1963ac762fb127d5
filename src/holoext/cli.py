"""Command line front end: run verification scenarios, list the catalog.

Reports are written as JSON next to a plain-text table on stdout; the process
exits 0 only when every assertion in the report passed.  A reader that closes
stdout early (``holoext list | head``) cuts the output short without changing
the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, DegenerateDomainError
from .scenarios import ScenarioConfig, catalog_text, run_scenario

ENV_OUT_DIR = "HOLOEXT_OUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoext",
        description="Verification scenarios for weighted L2-minimal holomorphic "
        "extensions and their bounds on model domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario from a JSON config file")
    run_p.add_argument("--config", required=True, help="path to the scenario config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--samples", type=int, default=None, help="override the sampling budget"
    )
    run_p.add_argument(
        "--out",
        default=None,
        help="path for the JSON report (default: <scenario>_report.json under "
        f"${ENV_OUT_DIR} or the working directory)",
    )
    run_p.add_argument("--format", choices=("json", "table"), default="table")
    sub.add_parser("list", help="print the scenario catalog with parameter ranges")
    return parser


def _load_config(path: str) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return ScenarioConfig.from_mapping(raw)


def _print_out(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # stdout is flushed again at exit; point it at devnull so that cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _print_out(catalog_text())
        return 0

    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.samples is not None:
            config.samples = args.samples
        report = run_scenario(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDomainError as exc:
        print(f"sampler did not resolve the domain: {exc}", file=sys.stderr)
        return 2

    if args.out is not None:
        out_path = Path(args.out)
    else:
        out_dir = Path(os.environ.get(ENV_OUT_DIR, "."))
        out_path = out_dir / f"{report.scenario}_report.json"
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report.to_json() + "\n")
    except OSError as exc:
        print(f"cannot write the report (--out or ${ENV_OUT_DIR}): {exc}", file=sys.stderr)
        return 2

    _print_out(report.to_json() if args.format == "json" else report.to_table())
    print(f"report written to {out_path}", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
