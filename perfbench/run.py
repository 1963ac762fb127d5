#!/usr/bin/env python3
"""Benchmark of holoext: one workload per invocation, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc_scenarios,radial_grid,mc_gram}
                             --seed N --seconds S --trace {0,1}

Each workload runs in a process of its own (worker.py).  With ``--trace 0``
the run first starts the workload's process SETUP_REPEATS - 1 times up to the
start of its timed phase, then once in full, and prints the end-to-end
metrics; setup_s is the median of the SETUP_REPEATS set-up times.  With
``--trace 1`` it runs the workload once with spans around holoext's layer
calls and prints the per-layer metrics, each per round.  The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_scenarios", "radial_grid", "mc_gram")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# Per-layer self-time metrics and the spans whose self times each one sums.
SELF_TIME_METRICS = {
    "integrate.mc_self_s": ("integrate.mc", "bergman.gram_mc"),
    "integrate.quad_s": ("integrate.quad",),
    "geometry.contains_batch_s": ("geometry.contains_batch",),
    "weights.value_batch_s": ("weights.value_batch",),
    "weights.profile_value_s": ("weights.profile_value",),
    "weights.profile_inverse_s": ("weights.profile_inverse",),
    "green.green_batch_s": ("green.green_batch",),
    "bergman.gram_radial_s": ("bergman.gram_radial",),
    "bergman.gram_mc_s": ("bergman.gram_mc",),
    "bergman.monomial_values_s": ("bergman.monomial_values",),
    "bergman.solve_s": ("bergman.solve",),
    "bergman.kernel_diag_s": ("bergman.kernel_diag",),
    "bounds.lift_route_s": ("bounds.lift_route",),
    "scenarios.run_s": ("scenarios.run",),
}
COUNT_METRICS = (
    "integrate.mc_draws",
    "integrate.quad_calls",
    "integrate.quad_nodes",
    "geometry.points_tested",
    "weights.profile_value_calls",
    "weights.profile_inverse_calls",
    "green.green_points",
    "bergman.gram_entries",
    "bergman.solve_calls",
)


def spawn(args, extra=()):
    """Run worker.py and return its JSON result with setup_s added."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["timed_start"] - t0
    return result


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def op_times(result):
    """Wall time of each distinct operation, averaged over the rounds that
    repeated it."""
    by_label = defaultdict(list)
    for label, seconds in result["op_times"]:
        by_label[label].append(seconds)
    return [statistics.fmean(times) for times in by_label.values()]


def end_to_end(result, setups):
    ops = op_times(result)
    wall = statistics.fmean(result["round_walls"])
    # Workloads without Monte Carlo estimates take an error factor of 1.
    rel_hw2 = result["mc_rel_hw2_mean"]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "op_p50_s": metric(statistics.median(ops), "s"),
        "op_p90_s": metric(statistics.quantiles(ops, n=10)[-1], "s"),
        "mc_cost_s": metric(wall * (1.0 if rel_hw2 is None else rel_hw2), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(result):
    rounds = len(result["round_walls"])
    self_times, counters = result["self_times"], result["counters"]
    out = {
        name: metric(sum(self_times.get(s, 0.0) for s in spans) / rounds, "s")
        for name, spans in SELF_TIME_METRICS.items()
    }
    out.update({name: metric(counters.get(name, 0) / rounds, "count") for name in COUNT_METRICS})
    tested = counters.get("geometry.points_tested", 0)
    inside = counters.get("geometry.points_inside", 0)
    out["integrate.mc_accept_ratio"] = metric(inside / tested if tested else 0.0, "ratio")
    traced = statistics.fmean(result["round_walls"])
    untraced = result["untraced_round_wall"]
    layers = sum(t for name, t in self_times.items() if name != "bench.op") / rounds
    out["trace.wall_s"] = metric(traced, "s")
    out["trace.untraced_wall_s"] = metric(untraced, "s")
    out["trace.overhead_s"] = metric(traced - untraced, "s")
    out["trace.layer_share"] = metric(layers / traced, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "holoext" / "__init__.py").is_file():
        print(f"no holoext sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    if args.trace:
        result = spawn(args, ["--trace"])
        metrics = per_layer(result)
    else:
        setups = [spawn(args, ["--setup-only"])["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        result = spawn(args)
        setups.append(result["setup_s"])
        metrics = end_to_end(result, setups)
    print("environment: " + json.dumps(result["environment"]), file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == result["raised"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
