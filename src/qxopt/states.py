"""Simulation and analysis payloads: state vectors, density matrices,
probability distributions, noise parameters, and their text formats.

Conventions: qubit 0 is the least-significant bit of a basis-state index;
bitstring labels are written most-significant-bit first, so label "011"
means qubit 1 and qubit 0 are set.

Each payload checks itself when it is built: vectors and matrices span whole
qubits and hold finite entries, and a distribution checks each label and
probability and its sum (within `tolerance`). A density matrix checks
physicality only in `validate`, since `nonclassicality.sanitize` keeps
indefinite published data indefinite on purpose; its eigenvalue bound is a
Cholesky certificate (`positive_semidefinite`), with the spectrum computed
only when that fails. A built distribution's
`probs` dict can still be mutated, and nothing checks it again.

Distributions are plain dicts and need no numpy, so `qxopt mermin` never
loads it; the vector and matrix code imports numpy where it runs.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import Record

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


def _same_entries(self: Record, other: object) -> bool:
    """`__eq__` of a record whose one field is an array: the same class,
    shape and entries. A class that defines `__eq__` has no hash."""
    import numpy as np

    if other.__class__ is not self.__class__:
        return NotImplemented
    return np.array_equal(self._key(self)[0], other._key(other)[0])


class StateVector(Record):
    __slots__ = ("amplitudes",)
    amplitudes: np.ndarray
    __eq__ = _same_entries

    def __init__(self, amplitudes: np.ndarray) -> None:
        import numpy as np

        amp = np.asarray(amplitudes, dtype=complex).ravel()
        _num_qubits(amp.shape[0], "amplitude vector length")
        if not np.isfinite(amp).all():
            raise ValueError("amplitude vector has a non-finite entry")
        super().__init__(amp)

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.shape[0]).bit_length() - 1


def basis_state(num_qubits: int) -> StateVector:
    import numpy as np

    amp = np.zeros(2**num_qubits, dtype=complex)
    amp[0] = 1.0
    return StateVector(amp)


def positive_semidefinite(m: np.ndarray, shift: float) -> bool:
    """Whether the Hermitian m + shift I has a Cholesky factor, which
    certifies that m has no eigenvalue below about -shift without computing
    its spectrum."""
    import numpy as np

    shifted = m.copy()
    shifted.ravel()[:: len(m) + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


class DensityMatrix(Record):
    __slots__ = ("matrix",)
    matrix: np.ndarray
    __eq__ = _same_entries

    def __init__(self, matrix: np.ndarray) -> None:
        import numpy as np

        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _num_qubits(m.shape[0], "dimension")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        super().__init__(m)

    def validate(self) -> None:
        import numpy as np

        herm_tol, eig_tol = 1e-10, 1e-8
        m = self.matrix
        if float(np.max(np.abs(m - m.conj().T))) > herm_tol:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(float(np.trace(m).real) - 1.0) > herm_tol:
            raise ValueError(f"trace = {np.trace(m).real}, not 1 within {herm_tol}")
        # The spectrum is computed only when the certificate fails, to
        # decide and report the lowest eigenvalue.
        if not positive_semidefinite(m, eig_tol):
            low = float(np.min(np.linalg.eigvalsh(m)))
            if low < -eig_tol:
                raise ValueError(f"matrix has eigenvalue {low} < -{eig_tol}")


class NoiseSpec(Record):
    """Per-gate symmetric depolarizing strengths: p1 after single-qubit
    gates, p2 per touched qubit after two-qubit gates."""

    __slots__ = ("p1", "p2")
    p1: float
    p2: float

    def __init__(self, p1: float = 0.001, p2: float = 0.01) -> None:
        for name, p in (("p1", p1), ("p2", p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} = {p} outside [0, 1]")
        super().__init__(p1, p2)


def _check_probability(bits: str, p: float, where: str = "") -> None:
    if not -1e-12 <= p <= 1.0 + 1e-12:  # refuses nan too
        raise ValueError(f"{where}probability {p} for {bits} outside [0, 1]")


class ProbabilityDistribution(Record, compared=("num_qubits", "probs")):
    """Computational-basis outcome probabilities keyed by bitstring label.
    The sum `tolerance` is not compared."""

    __slots__ = ("num_qubits", "probs", "tolerance")
    num_qubits: int
    probs: dict[str, float]
    tolerance: float

    def __init__(self, num_qubits: int, probs: dict[str, float], tolerance: float = PUBLISHED_SUM_TOL) -> None:
        for bits, p in probs.items():
            if len(bits) != num_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad outcome label {bits!r} for {num_qubits} qubits")
            _check_probability(bits, p)
        total = sum(probs.values())
        if abs(total - 1.0) > tolerance:
            raise ValueError(f"probabilities sum to {total}, not 1 within {tolerance}")
        super().__init__(num_qubits, probs, tolerance)


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
    """Read the raw complex matrix of a `dm N` file, N a power of two of at
    least 2; no sanitization is applied here."""
    import numpy as np

    stripped = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    numbers = [n for n, ln in enumerate(stripped, start=1) if ln]
    lines = [stripped[n - 1] for n in numbers]
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
    for k, (lineno, ln) in enumerate(zip(numbers[1:], body)):
        try:
            re, im = (float(part) for part in ln.split())
        except ValueError:
            raise ValueError(f"line {lineno}: entry {k}: expected 're im', got {ln!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"line {lineno}: entry {k}: {ln!r} is not finite")
        out[k // dim, k % dim] = complex(re, im)
    # Checked after the entries, so that a malformed entry is refused at its
    # own line whatever the header says.
    _num_qubits(dim, f"line {numbers[0]}: dimension")
    return out
