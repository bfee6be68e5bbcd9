"""Dense statevector / unitary / density-matrix engine.

Caps: 10 qubits for unitaries and state vectors, 6 for density matrices.
States, unitaries and density matrices are dense arrays, but a gate is never
a 2^n x 2^n matrix. Vectors, unitaries and density matrices go through one
kernel, `_evolve`. Every gate but H is monomial (one nonzero per matrix
row), so a run of them is one row permutation and one phase per row: the
kernel folds each such gate into a pending (source row, phase) pair of
length 2^n and touches the array only to apply that pair, in one
gather-and-scale pass, before each H and at the end. H is the one gate that
passes over the array by itself. Each monomial gate's own pair is built
once per width and read from a cache.

A density matrix rho evolves as U rho U^dagger = (U (U rho)^dagger)^dagger,
two `_evolve` calls, which holds for any square matrix, Hermitian or not.
`run_noisy` applies the depolarizing noise after each gate lazily. With
lam = 1 - 4p/3, p-depolarizing on qubit q is
D(rho) = lam rho + (1 - lam)/2 I_q (x) tr_q rho, and:
- D commutes with every 1-qubit unitary V on q: tr_q(V rho V^dagger) =
  tr_q rho, and V I_q V^dagger = I_q;
- D commutes with every gate that does not touch q;
- two such channels on q compose to one, whose lam is the product of theirs.
So a qubit's noise can wait until the next CNOT on that qubit, or the end of
the circuit, as one channel. `run_noisy` keeps one pending lam per qubit and
applies it (`_depolarize`) only before a CNOT on the qubit whose lam is not
1, and at the end; each run of gates between two such flushes goes through
`_evolve` at once. Without noise it applies none.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .circuit import Circuit, Gate, GateKind, check_placement, relabel
from .states import (
    DensityMatrix,
    NoiseSpec,
    ProbabilityDistribution,
    StateVector,
    basis_state,
    distribution_from_vector,
)

MAX_STATE_QUBITS = 10
MAX_DENSITY_QUBITS = 6

_S2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.H: np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


def _monomial(m: np.ndarray) -> tuple[int, np.ndarray]:
    """A monomial 2x2 matrix as (flip, phases): output bit b reads input bit
    b ^ flip, scaled by phases[b]."""
    flip = int(m[0, 0] == 0)
    return flip, m[[0, 1], [flip, 1 - flip]]


_MONOMIAL = {k: _monomial(m) for k, m in GATE_MATRICES.items() if k is not GateKind.H}


def _gather(rows: np.ndarray | None, src: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Row i of the result is phase[i] * rows[src[i]]; `rows=None` is the
    identity, whose result is one scatter into a zero matrix."""
    dim = len(src)
    if rows is None:
        out = np.zeros((dim, dim), dtype=complex)
        out[np.arange(dim), src] = phase
        return out
    out = rows[src]
    out *= phase.reshape((dim,) + (1,) * (rows.ndim - 1))
    return out


def _hadamard(rows: np.ndarray, q: int, num_qubits: int) -> np.ndarray:
    shaped = rows.reshape(2 ** (num_qubits - 1 - q), 2, -1)
    return (GATE_MATRICES[GateKind.H] @ shaped).reshape(rows.shape)


@functools.lru_cache(maxsize=256)
def _move(
    kind: GateKind, qubits: tuple[int, ...], num_qubits: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One monomial gate on 2^n rows as read-only (src, phase) arrays: row i
    of the result is phase[i] * row src[i]. None stands for the identity
    permutation (a diagonal gate) or all-one phases (a CNOT)."""
    idx = np.arange(2**num_qubits)
    if kind is GateKind.CNOT:
        control, target = qubits
        src, phase = idx ^ (((idx >> control) & 1) << target), None
    else:
        (q,) = qubits
        flip, phases = _MONOMIAL[kind]
        src = idx ^ (1 << q) if flip else None
        phase = phases[(idx >> q) & 1]
    for a in (src, phase):
        if a is not None:
            a.flags.writeable = False
    return src, phase


def _evolve(gates: tuple[Gate, ...], rows: np.ndarray | None, num_qubits: int) -> np.ndarray:
    """Left-multiply `rows` (a 2^n vector or a 2^n x k block; None is the
    2^n identity) by the gates in order, qubit 0 = least-significant bit.
    The one kernel through which gates act on vectors, unitaries and
    density matrices. Returns a new array.

    The monomial gates since the last array pass are held as a pending
    (src, phase) pair, applied by `_gather` before each H and at the end,
    so a circuit with k H gates passes over the array at most 2k + 1 times.
    """
    idx = np.arange(2**num_qubits)
    ones = np.ones(len(idx), dtype=complex)  # never written: every fold makes new arrays
    src, phase, pending = idx, ones, True
    for g in gates:
        if g.kind is GateKind.H:
            if pending:
                rows = _gather(rows, src, phase)
                src, phase, pending = idx, ones, False
            rows = _hadamard(rows, g.qubits[0], num_qubits)
            continue
        # Composing gate (g_src, g_phase) after the pending pair gives
        # src[g_src] and g_phase * phase[g_src].
        g_src, g_phase = _move(g.kind, g.qubits, num_qubits)
        if g_src is not None:
            src, phase = src[g_src], phase[g_src]
        if g_phase is not None:
            phase = phase * g_phase
        pending = True
    if pending:
        rows = _gather(rows, src, phase)
    return rows


def _check_width(num_qubits: int, cap: int) -> None:
    if num_qubits > cap:
        raise ValueError(f"{num_qubits} qubits exceeds the dense-simulation cap of {cap}")


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Product of the circuit's gate unitaries, in circuit order."""
    _check_width(circuit.num_qubits, MAX_STATE_QUBITS)
    return _evolve(circuit.gates, None, circuit.num_qubits)


def run_ideal(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit to `initial` (default |0...0>) without noise."""
    _check_width(circuit.num_qubits, MAX_STATE_QUBITS)
    if initial is None:
        initial = basis_state(circuit.num_qubits)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"initial state has {initial.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    return StateVector(_evolve(circuit.gates, initial.amplitudes, circuit.num_qubits))


def _conjugate(gates: tuple[Gate, ...], rho: np.ndarray, num_qubits: int) -> np.ndarray:
    """U rho U^dagger for the gates' product U, as (U (U rho)^dagger)^dagger."""
    half = _evolve(gates, rho, num_qubits).conj().T
    return _evolve(gates, half, num_qubits).conj().T


def _depolarize(rho: np.ndarray, q: int, lam: float, num_qubits: int) -> np.ndarray:
    """rho -> lam rho + (1 - lam)/2 I_q (x) tr_q rho, on the (a, 2, b, a, 2, b)
    view in which qubit q's row and column bits are axes 1 and 4. Returns a
    new C-contiguous array."""
    a, b = 2 ** (num_qubits - 1 - q), 2**q
    view = rho.reshape(a, 2, b, a, 2, b)
    mixed = (0.5 * (1.0 - lam)) * (view[:, 0, :, :, 0] + view[:, 1, :, :, 1])
    out = lam * view
    out[:, 0, :, :, 0] += mixed
    out[:, 1, :, :, 1] += mixed
    return out.reshape(rho.shape)


def run_noisy(circuit: Circuit, noise: NoiseSpec) -> DensityMatrix:
    """Evolve |0...0><0...0| through the circuit, applying a symmetric
    depolarizing channel to every qubit a gate touches, after the gate.

    Each qubit's channels wait, merged into one, until a CNOT on it or the
    end (see the module docstring)."""
    n = circuit.num_qubits
    _check_width(n, MAX_DENSITY_QUBITS)
    gates = circuit.gates
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    lam1, lam2 = 1.0 - 4.0 * noise.p1 / 3.0, 1.0 - 4.0 * noise.p2 / 3.0
    waiting = [1.0] * n  # each qubit's pending lam
    start = 0  # gates[start:] have not been applied yet
    for i, g in enumerate(gates):
        two = g.kind.arity == 2
        if two and any(waiting[q] != 1.0 for q in g.qubits):
            rho = _conjugate(gates[start:i], rho, n)
            start = i
            for q in g.qubits:
                if waiting[q] != 1.0:
                    rho = _depolarize(rho, q, waiting[q], n)
                    waiting[q] = 1.0
        lam = lam2 if two else lam1
        for q in g.qubits:
            waiting[q] *= lam
    rho = _conjugate(gates[start:], rho, n)
    for q, lam in enumerate(waiting):
        if lam != 1.0:
            rho = _depolarize(rho, q, lam, n)
    out = DensityMatrix(rho)
    out.validate()
    return out


def measure_probs(state: StateVector | DensityMatrix) -> ProbabilityDistribution:
    """Computational-basis outcome probabilities, strict sum tolerance."""
    if isinstance(state, StateVector):
        values = np.abs(state.amplitudes) ** 2
    else:
        values = np.clip(np.diag(state.matrix).real, 0.0, None)
    return distribution_from_vector(values, tolerance=1e-10)


def equivalent(
    c1: Circuit,
    c2: Circuit,
    perm: list[int] | tuple[int, ...] | None = None,
    tol: float = 1e-9,
) -> bool:
    """True when c2's unitary equals c1's up to qubit relabeling by `perm`
    and a global phase.

    c1 may be narrower than c2; its extra wires are padded with identity.
    `check_placement` refuses a placement that does not fit c2 (so a wider
    c1 too), and unitary_of a width past the dense cap. The phase is read
    off the first entry where the relabeled reference is nonzero, then the
    whole matrices must agree entrywise within `tol`. That entry lies in
    row 0: a unitary's row has norm 1, so row 0 holds an entry of magnitude
    at least 2^(-n/2), far above the 1e-9 threshold.
    """
    check_placement(perm, c2.num_qubits, c1.num_qubits)
    if perm is None:
        perm = tuple(range(c1.num_qubits))
    # Relabeling the circuit conjugates its unitary by the placement's
    # permutation and pads the unused wires with identity.
    reference = unitary_of(relabel(c1, perm, c2.num_qubits))
    u2 = unitary_of(c2)

    anchor = int(np.argmax(np.abs(reference[0]) > 1e-9))
    phase = u2[0, anchor] / reference[0, anchor]
    mag = abs(phase)
    if mag < 1e-12:
        return False
    phase /= mag
    # phase * reference - u2, in place: only np.abs allocates a 2^n x 2^n array.
    reference *= phase
    reference -= u2
    return float(np.max(np.abs(reference))) <= tol
