"""One workload in one process; started by run.py, prints one JSON line.

The process imports holoext from the checkout's ``src``, makes the workload's
inputs from the seed and warms up on inputs outside the timed set.  The
monotonic clock at the start of the timed phase is reported so that run.py
can measure set-up from before the process was started.  The timed phase runs
whole rounds, as many as fill ``--seconds`` at the workload's ROUND_SECONDS
and at least one.  The count does not depend on the measured speed, which
would bias the walls of the runs that a slow or fast first round decided.

With ``--trace`` the process first runs one round untraced, then installs the
layer spans and runs the rounds again from round 0, so the traced and
untraced walls cover the same inputs.  Spans and counters are written to
``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_REPORTED_FAILURES = 5


def blas_threads():
    """Thread count of each loaded OpenBLAS (numpy and scipy bundle one each)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no /proc: the count is not recorded
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def run_rounds(workload, rounds, tracer=None):
    """Run rounds 0 .. rounds-1; return the (label, seconds) of every op, the
    round walls and the op outcomes."""
    from workloads import Outcome

    op_times, round_walls, outcomes = [], [], []
    for r in range(rounds):
        t_round = time.perf_counter()
        for label, run, check in workload.round_ops(r):
            out = Outcome()
            t0 = time.perf_counter()
            try:
                result = tracer.call("bench.op", run) if tracer else run()
            except Exception:
                out.failures.append("raised:\n" + traceback.format_exc())
                result = None
            op_times.append((label, time.perf_counter() - t0))
            if result is not None:
                check(result, out)
            outcomes.append((label, out))
        round_walls.append(time.perf_counter() - t_round)
    return op_times, round_walls, outcomes


def summarize(op_times, round_walls, outcomes):
    failed = [(label, out) for label, out in outcomes if out.failures]
    for label, out in failed[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {label}: " + "; ".join(out.failures), file=sys.stderr)
    rel_hw2 = [x for _, out in outcomes for x in out.mc_rel_hw2]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "raised": sum(any(f.startswith("raised") for f in out.failures) for _, out in failed),
        "op_times": op_times,
        "round_walls": round_walls,
        "mc_rel_hw2_mean": sum(rel_hw2) / len(rel_hw2) if rel_hw2 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import holoext

    if Path(holoext.__file__).resolve().parent != ROOT / "src" / "holoext":
        print(f"holoext imported from {holoext.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    rounds = max(1, round(args.seconds / workload.ROUND_SECONDS))
    workload.warm_up()
    result = {"timed_start": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if not args.trace:
        result.update(summarize(*run_rounds(workload, rounds)))
    else:
        from tracer import Tracer, install_layer_spans

        _, untraced_walls, _ = run_rounds(workload, 1)
        tracer = Tracer()
        install_layer_spans(tracer)
        traced = run_rounds(workload, rounds, tracer)
        result.update(summarize(*traced))
        result["untraced_round_wall"] = untraced_walls[0]
        result["self_times"] = tracer.self_times()
        result["counters"] = dict(tracer.counters)
        out_dir = HERE / "runs"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(path)
        print(f"spans written to {path}", file=sys.stderr)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
