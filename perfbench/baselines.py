#!/usr/bin/env python3
"""Re-measure the single-call reference figures quoted in README.md.

    python3 perfbench/baselines.py

Prints one line per figure: the best of a few calls for the cheap ones, one
call for the 8-qubit search over 40,320 placements (about half a minute),
which is why that case is not part of any workload. Inputs come from the
benchmark's generator with seed 1; one BLAS thread, as in run.py.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qxopt import placement, qasm, realization, simulator, topology  # noqa: E402

import gen  # noqa: E402

LINE8 = "qubits 8\n" + "".join(f"{q} {q + 1}\n" for q in range(7))


def best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def process(args: list[str], repeats: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return best(lambda: subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                                       capture_output=True), repeats)


def show(label: str, seconds: float) -> None:
    print(f"{label:<52} {seconds * 1000:10.1f} ms", flush=True)


def main() -> None:
    rng = random.Random(1)
    qx4 = topology.load(gen.DEVICES["qx4"], name="qx4")
    total = best(lambda: realization.build_table(qx4), 5)
    construct = best(lambda: realization.build_table(qx4, verify=False), 5)
    show("qx4 table build (construct + verify)", total)
    show("qx4 table construction only", construct)
    table = realization.build_table(qx4)
    for size in (20, 100, 400):
        c = qasm.parse(gen.random_qasm(rng, 5, size, size // 4))
        res = placement.optimize(c, table)
        show(f"optimize, 5 qubits, {size} gates, qx4", best(lambda: placement.optimize(c, table), 3))
        show(f"equivalent, 5 qubits, {size} gates",
             best(lambda: simulator.equivalent(c, res.mapped, list(res.placement)), 3))
    c10 = qasm.parse(gen.random_qasm(rng, 10, 60, 15))
    show("unitary_of, 10 qubits, 60 gates", best(lambda: simulator.unitary_of(c10), 1))
    show("run_ideal, 10 qubits, 60 gates", best(lambda: simulator.run_ideal(c10), 5))
    ghz = str(ROOT / "src" / "qxopt" / "data" / "ghz.qasm")
    show("qxopt optimize --arch qx4 ghz.qasm (process)",
         process(["-m", "qxopt", "optimize", "--arch", "qx4", "--in", ghz, "--report", "json"]))
    show("python -c pass (process)", process(["-c", "pass"]))
    show("python -c 'import numpy' (process)", process(["-c", "import numpy"]))
    show("python -c 'import qxopt.cli' (process)", process(["-c", "import qxopt.cli"]))
    line8 = topology.load(LINE8, name="line8")
    t0 = time.perf_counter()
    table8 = realization.build_table(line8)
    show("8-qubit line: table build (construct + verify)", time.perf_counter() - t0)
    c8 = qasm.parse(gen.random_qasm(rng, 8, 30, 7))
    t0 = time.perf_counter()
    placement.optimize(c8, table8)
    show("8-qubit line: optimize, 30 gates, 40,320 placements", time.perf_counter() - t0)


if __name__ == "__main__":
    main()
