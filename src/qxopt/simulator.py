"""Dense statevector / unitary / density-matrix engine.

Caps: 10 qubits for unitaries and state vectors, 6 for density matrices.
States, unitaries and density matrices are dense arrays, but a gate is never
a 2^n x 2^n matrix. On vectors and unitaries one kernel, `_apply`, applies
its 2x2 matrix (or, for CNOT, a row permutation) to the 2^n rows of the
array. A density matrix is a (2,)*2n tensor instead, and each gate together
with its depolarizing noise is one superoperator, contracted with the row
and column axes of the qubits it touches.
"""
from __future__ import annotations

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


def _apply(gate: Gate, rows: np.ndarray, num_qubits: int) -> np.ndarray:
    """Left-multiply `rows` (a 2^n vector or a 2^n x k block) by one gate,
    qubit 0 = least-significant bit. The only place a gate acts on an array."""
    if gate.kind is GateKind.CNOT:
        control, target = gate.qubits
        idx = np.arange(rows.shape[0])
        return rows[idx ^ (((idx >> control) & 1) << target)]
    (q,) = gate.qubits
    shaped = rows.reshape(2 ** (num_qubits - 1 - q), 2, -1)
    return (GATE_MATRICES[gate.kind] @ shaped).reshape(rows.shape)


def _check_width(num_qubits: int, cap: int) -> None:
    if num_qubits > cap:
        raise ValueError(f"{num_qubits} qubits exceeds the dense-simulation cap of {cap}")


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Product of the circuit's gate unitaries, in circuit order."""
    _check_width(circuit.num_qubits, MAX_STATE_QUBITS)
    u = np.eye(2**circuit.num_qubits, dtype=complex)
    for g in circuit.gates:
        u = _apply(g, u, circuit.num_qubits)
    return u


def run_ideal(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit to `initial` (default |0...0>) without noise."""
    _check_width(circuit.num_qubits, MAX_STATE_QUBITS)
    if initial is None:
        initial = basis_state(circuit.num_qubits)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"initial state has {initial.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    amp = initial.amplitudes.copy()
    for g in circuit.gates:
        amp = _apply(g, amp, circuit.num_qubits)
    return StateVector(amp)


_CNOT_LOCAL = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # local index 2*control + target

# One qubit's depolarizing channel (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)
# equals (1 - 4p/3) rho + (2p/3) tr(rho) I, since the four Pauli conjugates
# of rho sum to 2 tr(rho) I. As 4x4 matrices on (row, column) index pairs:
_IDENTITY_MAP = np.eye(4)
_TRACE_MAP = np.outer(np.eye(2).ravel(), np.eye(2).ravel())


def _superoperator(kind: GateKind, p: float) -> np.ndarray:
    """The gate, then p-depolarizing on each qubit it touches, as a (2,)*4k
    tensor on k qubits. Its axes are the (row, column) pairs of the output,
    one per qubit in the gate's order, then those of the input."""
    k = kind.arity
    u = (_CNOT_LOCAL if kind is GateKind.CNOT else GATE_MATRICES[kind]).reshape((2,) * (2 * k))
    # U rho U^dagger: entry (a, b, c, d) is U[a, c] conj(U[b, d]). np.multiply.outer
    # lays its axes out as a, c, b, d; pair each qubit's a with b and c with d.
    paired = [ax for j in range(k) for ax in (j, 2 * k + j)]
    paired += [ax for j in range(k) for ax in (k + j, 3 * k + j)]
    conjugation = np.multiply.outer(u, u.conj()).transpose(paired).reshape(4**k, 4**k)
    depolarize = (1.0 - 4.0 * p / 3.0) * _IDENTITY_MAP + (2.0 * p / 3.0) * _TRACE_MAP
    channel = np.ones((1, 1))
    for _ in range(k):
        channel = np.multiply.outer(channel, depolarize).transpose(0, 2, 1, 3)
        channel = channel.reshape(4 * len(channel), -1)
    return (channel @ conjugation).reshape((2,) * (4 * k))


def run_noisy(circuit: Circuit, noise: NoiseSpec) -> DensityMatrix:
    """Evolve |0...0><0...0| through the circuit, applying a symmetric
    depolarizing channel to every qubit a gate touches, after the gate."""
    n = circuit.num_qubits
    _check_width(n, MAX_DENSITY_QUBITS)
    # Row axis n-1-q and column axis 2n-1-q belong to qubit q.
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    superops: dict[tuple[GateKind, float], np.ndarray] = {}
    for g in circuit.gates:
        p = noise.p2 if g.kind.arity == 2 else noise.p1
        op = superops.get((g.kind, p))
        if op is None:
            op = superops[(g.kind, p)] = _superoperator(g.kind, p)
        axes = [ax for q in g.qubits for ax in (n - 1 - q, 2 * n - 1 - q)]
        k = len(axes)
        rho = np.moveaxis(np.tensordot(op, rho, (range(k, 2 * k), axes)), range(k), axes)
    out = DensityMatrix(rho.reshape(2**n, 2**n))
    out.validate()
    return out


def measure_probs(state: StateVector | DensityMatrix) -> ProbabilityDistribution:
    """Computational-basis outcome probabilities, strict sum tolerance."""
    if isinstance(state, StateVector):
        values = np.abs(state.amplitudes) ** 2
    else:
        values = np.clip(np.diag(state.matrix).real, 0.0, None)
    dist = distribution_from_vector(values, tolerance=1e-10)
    dist.validate()
    return dist


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
    whole matrices must agree entrywise within `tol`.
    """
    check_placement(perm, c2.num_qubits, c1.num_qubits)
    if perm is None:
        perm = tuple(range(c1.num_qubits))
    # Relabeling the circuit conjugates its unitary by the placement's
    # permutation and pads the unused wires with identity.
    reference = unitary_of(relabel(c1, perm, c2.num_qubits))
    u2 = unitary_of(c2)

    flat_ref = reference.ravel()
    anchors = np.flatnonzero(np.abs(flat_ref) > 1e-9)
    if anchors.size == 0:
        return False
    anchor = anchors[0]
    phase = u2.ravel()[anchor] / flat_ref[anchor]
    mag = abs(phase)
    if mag < 1e-12:
        return False
    phase /= mag
    return float(np.max(np.abs(u2 - phase * reference))) <= tol
