"""Simulation and analysis payloads: state vectors, density matrices,
probability distributions, noise parameters, and their text formats.

Conventions: qubit 0 is the least-significant bit of a basis-state index;
bitstring labels are written most-significant-bit first, so label "011"
means qubit 1 and qubit 0 are set.

Each payload checks itself when it is built: vectors and matrices span
whole qubits, and a distribution checks each label and probability and its
sum (within `tolerance`). A density matrix checks physicality only in
`validate`, since `nonclassicality.sanitize` keeps indefinite published data
indefinite on purpose. A built distribution's `probs` dict can still be
mutated, and nothing checks it again.

Distributions are plain dicts and need no numpy, so `qxopt mermin` never
loads it; the vector and matrix code imports numpy where it runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

PUBLISHED_SUM_TOL = 0.005  # published tables are rounded to three decimals


def bitstring(index: int, num_qubits: int) -> str:
    return format(index, f"0{num_qubits}b")


def _num_qubits(size: int, what: str) -> int:
    """Qubits of a `size`-long state space; refuses a size that is not a
    power of two of at least 2."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"{what} {size} is not a power of two")
    return size.bit_length() - 1


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", amp)
        _num_qubits(amp.shape[0], "amplitude vector length")

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.shape[0]).bit_length() - 1


def basis_state(num_qubits: int) -> StateVector:
    import numpy as np

    amp = np.zeros(2**num_qubits, dtype=complex)
    amp[0] = 1.0
    return StateVector(amp)


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _num_qubits(m.shape[0], "dimension")

    def validate(self) -> None:
        import numpy as np

        herm_tol, eig_tol = 1e-10, 1e-8
        m = self.matrix
        if float(np.max(np.abs(m - m.conj().T))) > herm_tol:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(float(np.trace(m).real) - 1.0) > herm_tol:
            raise ValueError(f"trace = {np.trace(m).real}, not 1 within {herm_tol}")
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low < -eig_tol:
            raise ValueError(f"matrix has eigenvalue {low} < -{eig_tol}")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-gate symmetric depolarizing strengths: p1 after single-qubit
    gates, p2 per touched qubit after two-qubit gates."""

    p1: float = 0.001
    p2: float = 0.01

    def __post_init__(self) -> None:
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} = {p} outside [0, 1]")


def _check_probability(bits: str, p: float, where: str = "") -> None:
    if not -1e-12 <= p <= 1.0 + 1e-12:  # refuses nan too
        raise ValueError(f"{where}probability {p} for {bits} outside [0, 1]")


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Computational-basis outcome probabilities keyed by bitstring label."""

    num_qubits: int
    probs: dict[str, float]
    tolerance: float = field(default=PUBLISHED_SUM_TOL, compare=False)

    def __post_init__(self) -> None:
        for bits, p in self.probs.items():
            if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad outcome label {bits!r} for {self.num_qubits} qubits")
            _check_probability(bits, p)
        total = sum(self.probs.values())
        if abs(total - 1.0) > self.tolerance:
            raise ValueError(f"probabilities sum to {total}, not 1 within {self.tolerance}")


def distribution_from_vector(
    values: np.ndarray, tolerance: float = PUBLISHED_SUM_TOL
) -> ProbabilityDistribution:
    import numpy as np

    values = np.asarray(values, dtype=float).ravel()
    n = _num_qubits(values.shape[0], "probability vector length")
    probs = {bitstring(i, n): float(values[i]) for i in range(values.shape[0])}
    return ProbabilityDistribution(n, probs, tolerance)


# Text formats.
#   distribution: one "bitstring value" pair per line
#   density matrix: "dm N" header, then N*N "re im" pairs in row-major order


def parse_distribution(text: str) -> ProbabilityDistribution:
    probs: dict[str, float] = {}
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'bitstring value', got {raw!r}")
        bits, value = parts
        if set(bits) - {"0", "1"}:
            raise ValueError(f"line {lineno}: bad bitstring {bits!r}")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValueError(f"line {lineno}: inconsistent bitstring width")
        if bits in probs:
            raise ValueError(f"line {lineno}: duplicate outcome {bits!r}")
        try:
            probs[bits] = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: expected a probability, got {value!r}") from None
        _check_probability(bits, probs[bits], f"line {lineno}: ")
    if width is None:
        raise ValueError("empty distribution")
    return ProbabilityDistribution(width, probs)


def parse_density_matrix(text: str) -> np.ndarray:
    """Read the raw complex matrix; no sanitization is applied here."""
    import numpy as np

    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("dm"):
        raise ValueError("missing 'dm N' header")
    header = lines[0].split()
    try:
        dim = int(header[1]) if len(header) == 2 and header[0] == "dm" else 0
    except ValueError:
        dim = 0
    if dim < 1:
        raise ValueError(f"malformed 'dm N' header {lines[0]!r}")
    body = lines[1:]
    if len(body) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, found {len(body)}")
    out = np.zeros((dim, dim), dtype=complex)
    for k, ln in enumerate(body):
        try:
            re, im = (float(part) for part in ln.split())
        except ValueError:
            raise ValueError(f"entry {k}: expected 're im', got {ln!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"entry {k}: {ln!r} is not finite")
        out[k // dim, k % dim] = complex(re, im)
    return out
