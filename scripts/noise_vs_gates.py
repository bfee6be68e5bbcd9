#!/usr/bin/env python3
"""Gate count vs output fidelity under depolarizing noise.

Runs the bundled state-preparation pair (12-gate original vs 4-gate
optimized equivalent) through the density-matrix simulator at several
noise scales and prints the fidelity of each noisy output against the
shared ideal state. The shorter circuit should win at every scale; the
script exits 1 with a one-line message when it does not.
"""
import sys

import numpy as np

from qxopt import DensityMatrix, NoiseSpec, run_ideal, run_noisy, uhlmann_fidelity
from qxopt.fixtures import load_circuit


def main() -> int:
    unopt = load_circuit("mermin_xxy_unopt")
    opt = load_circuit("mermin_xxy_opt")
    psi = run_ideal(opt).amplitudes
    ideal = DensityMatrix(np.outer(psi, psi.conj()))

    losing = []
    print(f"{'scale':>6} {'p1':>8} {'p2':>8} {'F(12 gates)':>12} {'F(4 gates)':>11} {'gain':>8}")
    for scale in (0.5, 1.0, 2.0, 5.0, 10.0):
        noise = NoiseSpec(p1=0.001 * scale, p2=0.01 * scale)
        f_unopt = uhlmann_fidelity(run_noisy(unopt, noise), ideal)
        f_opt = uhlmann_fidelity(run_noisy(opt, noise), ideal)
        print(
            f"{scale:>6.1f} {noise.p1:>8.4f} {noise.p2:>8.4f} "
            f"{f_unopt:>12.4f} {f_opt:>11.4f} {f_opt - f_unopt:>8.4f}"
        )
        if not f_opt > f_unopt:
            losing.append(scale)
    if losing:
        scales = ", ".join(f"{scale:.1f}" for scale in losing)
        message = f"the 4-gate preparation does not beat the 12-gate one at scale {scales}"
        print(message, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
