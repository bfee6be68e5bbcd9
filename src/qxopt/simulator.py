"""Dense statevector / unitary / density-matrix engine.

Caps: 10 qubits for unitaries and state vectors, 6 for density matrices.
States, unitaries and density matrices are dense arrays, but a gate is never
a 2^n x 2^n matrix. Vectors and unitaries go through one kernel, `_evolve`.
Every gate but H is monomial (one nonzero per matrix row), so a run of them
is one row permutation and one phase per row: the kernel folds each such
gate into a pending (source row, phase) pair of length 2^n and touches the
array only to apply that pair, in one gather-and-scale pass, before each H
and at the end. H is the one gate that passes over the array by itself. A
density matrix is a (2,)*2n tensor instead, and each gate together with its
depolarizing noise is one superoperator, contracted with the row and column
axes of the qubits it touches.
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


def _evolve(gates: tuple[Gate, ...], rows: np.ndarray | None, num_qubits: int) -> np.ndarray:
    """Left-multiply `rows` (a 2^n vector or a 2^n x k block; None is the
    2^n identity) by the gates in order, qubit 0 = least-significant bit.
    The one kernel through which gates act on vectors and unitaries.
    Returns a new array.

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
        if g.kind is GateKind.CNOT:
            control, target = g.qubits
            g_src = idx ^ (((idx >> control) & 1) << target)
            src, phase = src[g_src], phase[g_src]
        else:
            (q,) = g.qubits
            flip, phases = _MONOMIAL[g.kind]
            if flip:
                g_src = idx ^ (1 << q)
                src, phase = src[g_src], phase[g_src]
            phase = phase * phases[(idx >> q) & 1]
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
