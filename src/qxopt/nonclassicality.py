"""Three-qubit Mermin-polynomial analysis and state-overlap fidelity.

Expectation values come from computational-basis distributions measured
after basis-rotation circuits: an outcome's eigenvalue is +1 for even bit
parity and -1 for odd. That convention reproduces the shipped experiment
data end to end, which is the strongest evidence available for it.

The Mermin half sums plain dicts and needs no numpy, so `qxopt mermin` never
loads it; `sanitize` and `uhlmann_fidelity` import numpy where they run.
"""
from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from . import Record
from .states import DensityMatrix, ProbabilityDistribution

if TYPE_CHECKING:
    import numpy as np

CLASSICAL_BOUND = 2.0
QUANTUM_BOUND = 4.0


class MerminValue(Record):
    __slots__ = ("m3", "violation")
    m3: float
    violation: float

    def __init__(self, m3: float, violation: float) -> None:
        object.__setattr__(self, "m3", m3)
        object.__setattr__(self, "violation", violation)


def parity_expectation(dist: ProbabilityDistribution) -> float:
    """Sum of P_i * E_i with E_i = (-1)^(bit parity of outcome i)."""
    total = 0.0
    for bits, p in dist.probs.items():
        total += p if bits.count("1") % 2 == 0 else -p
    return total


def mermin3(xxy: ProbabilityDistribution, yyy: ProbabilityDistribution) -> MerminValue:
    """3<XXY> - <YYY> from the two rotated-basis distributions."""
    for name, dist in (("xxy", xxy), ("yyy", yyy)):
        if dist.num_qubits != 3:
            raise ValueError(f"{name} distribution has {dist.num_qubits} qubits, need 3")
    m3 = 3.0 * parity_expectation(xxy) - parity_expectation(yyy)
    return MerminValue(m3, m3 - CLASSICAL_BOUND)


def lhv_bound() -> float:
    """Classical ceiling of the polynomial by brute force: every deterministic
    local model assigns +-1 to X and Y per party; 64 cases total."""
    best = 0.0
    for x1, x2, x3, y1, y2, y3 in product((1, -1), repeat=6):
        value = abs(x1 * x2 * y3 + x1 * y2 * x3 + y1 * x2 * x3 - y1 * y2 * y3)
        if value > best:
            best = float(value)
    return best


def sanitize(raw_re: np.ndarray, raw_im: np.ndarray) -> DensityMatrix:
    """Repair a matrix transcribed from rounded published data.

    Hermitizes (which zeroes any spurious imaginary diagonal), drops
    numerically negligible negative eigenvalues, and rescales the trace
    to one. Genuinely indefinite input is kept indefinite: forcing it
    positive would silently change every overlap computed from it.
    """
    import numpy as np

    raw_re = np.asarray(raw_re, dtype=float)
    raw_im = np.asarray(raw_im, dtype=float)
    if raw_re.shape != raw_im.shape or raw_re.ndim != 2 or raw_re.shape[0] != raw_re.shape[1]:
        raise ValueError(f"parts must be equal square matrices, got {raw_re.shape} / {raw_im.shape}")
    if not (np.isfinite(raw_re).all() and np.isfinite(raw_im).all()):
        raise ValueError("parts must be finite")
    m = raw_re + 1j * raw_im
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    w = np.where((w < 0.0) & (w >= -1e-10), 0.0, w)
    m = (v * w) @ v.conj().T
    trace = float(np.trace(m).real)
    if trace <= 0.0:
        raise ValueError(f"matrix trace {trace} is not positive")
    return DensityMatrix(m / trace)


def uhlmann_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), clamped to [0, 1].

    Eigenvalues are clipped at zero before each square root; rounded input
    data routinely produces tiny negative ones.
    """
    import numpy as np

    a, b = rho1.matrix, rho2.matrix
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, v = np.linalg.eigh(a)
    sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_a @ b @ sqrt_a
    eigs = np.linalg.eigvalsh(inner)
    fid = float(np.sum(np.sqrt(np.clip(eigs, 0.0, None))))
    return min(max(fid, 0.0), 1.0)
