#!/usr/bin/env python3
"""Run the full verification battery and write one report per scenario.

Usage: python scripts/run_verification.py [--out DIR]

The exit code is 0 only if every assertion of every scenario passed.  A
config that is malformed or whose sampler does not resolve its domain gets
an ERROR line and no report, and the battery goes on to the next.  The
last line gives the verdict and the wall clock of the whole battery, which,
like each config's wall clock, stays outside the report bodies.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from holoext.cli import _load_config  # noqa: E402
from holoext.errors import ConfigError, DegenerateDomainError  # noqa: E402
from holoext.scenarios import run_scenario  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports", help="output directory")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_passed = True
    start = time.perf_counter()
    for config_path in sorted(CONFIG_DIR.glob("*.json")):
        try:
            report = run_scenario(_load_config(config_path))
        except (ConfigError, DegenerateDomainError) as exc:
            all_passed = False
            print(f"ERROR {config_path.stem:28s} {exc}")
            continue
        all_passed &= report.passed
        report_path = out_dir / f"{config_path.stem}_report.json"
        report_path.write_text(report.to_json() + "\n")
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}  {config_path.stem:28s} [{report.wall_clock_s:7.2f} s]  -> {report_path}")
        if not report.passed:
            for a in report.assertions:
                if not a.passed:
                    print(f"      failed: {a.name}  lhs={a.lhs!r} rhs={a.rhs!r} tol={a.tol!r}")

    wall = time.perf_counter() - start
    print()
    print("overall:", "PASS" if all_passed else "FAIL", f"[{wall:.2f} s]")
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
