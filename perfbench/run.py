#!/usr/bin/env python3
"""Layered benchmark of qxopt, run against the `src/` of the checkout it sits in.

    python3 perfbench/run.py --workload random5 --seed 1 --seconds 20 --trace 0

Workloads: fixtures-cli, random5, limit8, noise-sim (see README.md). With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run, whose spans go to .perfbench_out/ at the checkout root.
The line before it records the interpreter, numpy and BLAS versions, the
BLAS thread setting and the processor count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# One BLAS/OpenMP thread, fixed before numpy is first imported, here and in
# every process the benchmark starts.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS
# One core for this process and every process it starts: the host's cores
# slow down independently, and the speed calibration (workloads.py) only
# describes the core it ran on.
CPU = min(os.sched_getaffinity(0))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fixtures-cli", "random5", "limit8", "noise-sim")


def _environment(run) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        # Without a bytecode cache every CLI process compiles qxopt anew.
        "writes_bytecode": not sys.dont_write_bytecode,
        "rounds": run.rounds,
        "problems": run.problems,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.sched_setaffinity(0, {CPU})

    if not (SRC / "qxopt" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'qxopt'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        # Fresh process: time the workload's set-up only.
        w = workloads.Workload(args.workload, args.seed, SRC)
        print(json.dumps({"setup_s": workloads.timed_setup(w)}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = workloads.Run(args.workload, args.seed, args.seconds, ROOT)
    try:
        if args.trace:
            # Layers a workload does not run read 0.
            measured = run.measure_traced()
            listed = spec["per_layer"]
            values = {m["name"]: measured.get(m["name"], 0.0) for m in listed}
        else:
            measured = run.measure()
            listed = spec["end_to_end"]
            values = {m["name"]: measured[m["name"]] for m in listed}
    finally:
        run.close()
    print(json.dumps({"env": _environment(run)}))
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
