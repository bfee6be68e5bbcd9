"""Three-qubit Mermin-polynomial analysis and state-overlap fidelity.

Expectation values come from computational-basis distributions measured
after basis-rotation circuits: an outcome's eigenvalue is +1 for even bit
parity and -1 for odd. That convention reproduces the shipped experiment
data end to end, which is the strongest evidence available for it.

Fidelity is measured against an ideal state, which is pure: |psi><psi|. For
a pure argument, Uhlmann fidelity is exactly sqrt(<psi|rho|psi>) (Jozsa,
J. Mod. Opt. 41, 2315 (1994)), an O(d^2) sum in place of two d x d
eigendecompositions. `uhlmann_fidelity` takes that closed form whenever it
gives the value of the general formula, and runs the general formula
otherwise:
- A matrix m counts as rank one, u u^dagger, when no entry of m - u u^dagger
  exceeds RANK_ONE_TOL times m's largest diagonal entry d, where
  u = m[:, k] / sqrt(d) is m's column k through that entry. Passing this
  shows m Hermitian positive semidefinite as well.
- rho1 rank one: sqrt(rho1) = u u^dagger / |u|, so the inner matrix of the
  general formula is rank one with eigenvalue <u|rho2|u>, and the formula
  returns its square root, clipped at 0, for any Hermitian rho2, indefinite
  or not.
- rho2 rank one: the general formula clips rho1's negative eigenvalues
  before its square root, so it returns sqrt(<u|rho1+|u>), rho1+ being rho1
  without them. That is sqrt(<u|rho1|u>) only when rho1 has none, so the
  closed form waits for a certificate: a Cholesky factorization of
  rho1 + PSD_SHIFT I (`states.positive_semidefinite`), which exists only when rho1's smallest eigenvalue is
  above about -PSD_SHIFT. Indefinite data, such as the published
  tomography, fails it and keeps the general formula's value.
Both hold for Hermitian arguments, as every density matrix is. A
non-Hermitian matrix is none (`DensityMatrix.validate` refuses it), and on
one the general formula's value depends on which triangle LAPACK reads.

The Mermin half sums plain dicts and needs no numpy, so `qxopt mermin` never
loads it; `sanitize` and `uhlmann_fidelity` import numpy where they run.
"""
from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING

from . import Record
from .states import DensityMatrix, ProbabilityDistribution, positive_semidefinite

if TYPE_CHECKING:
    import numpy as np

CLASSICAL_BOUND = 2.0
QUANTUM_BOUND = 4.0
# Rank-one test of `uhlmann_fidelity`, relative to the largest diagonal entry.
RANK_ONE_TOL = 1e-12
# Diagonal shift of the Cholesky certificate that rho1 has no negative eigenvalue.
PSD_SHIFT = 1e-12


class MerminValue(Record):
    __slots__ = ("m3", "violation")
    m3: float
    violation: float


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


def _rank_one(m: np.ndarray) -> np.ndarray | None:
    """u with m = u u^dagger within RANK_ONE_TOL (module docstring), else None."""
    import numpy as np

    diag = m.diagonal().real
    k = int(np.argmax(diag))
    d = float(diag[k])
    if not d > 0.0:
        return None
    u = m[:, k] / math.sqrt(d)
    bound = RANK_ONE_TOL * d
    # The diagonal alone rejects a mixed state before u u^dagger is formed.
    if float(np.max(np.abs(diag - (u.real**2 + u.imag**2)))) > bound:
        return None
    if float(np.max(np.abs(m - np.outer(u, u.conj())))) > bound:
        return None
    return u


def uhlmann_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), clamped to [0, 1].

    When rho1 is rank one, u u^dagger, this is sqrt(<u|rho2|u>); when rho2
    is, and rho1 passes the Cholesky certificate, sqrt(<u|rho1|u>). Both
    are the general formula's value, which is computed otherwise (see the
    module docstring). The general formula clips eigenvalues at zero before
    each square root; rounded input data routinely produces tiny negative
    ones.
    """
    import numpy as np

    a, b = rho1.matrix, rho2.matrix
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    u, other = _rank_one(a), b
    if u is None:
        u, other = _rank_one(b), a
        if u is not None and not positive_semidefinite(a, PSD_SHIFT):
            u = None
    if u is not None:
        fid = math.sqrt(max(float(np.vdot(u, other @ u).real), 0.0))
    else:
        w, v = np.linalg.eigh(a)
        sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        inner = sqrt_a @ b @ sqrt_a
        eigs = np.linalg.eigvalsh(inner)
        fid = float(np.sum(np.sqrt(np.clip(eigs, 0.0, None))))
    return min(max(fid, 0.0), 1.0)
