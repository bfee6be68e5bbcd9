"""Reference paths that `qxopt` no longer runs: the simulator's dense gate
paths, and the general fidelity formula.

`apply_gate` is the per-gate kernel that unitaries and state vectors went
through before the simulator gathered each run of monomial gates into one
row pass: one pass over the array per gate. `whole_matrix_equivalent` is
the check `simulator.equivalent` ran before it built its unitaries one
column block at a time: the shipped kernel's two whole 2^n x 2^n matrices,
then one comparison. `frameless_plan` is the plan `simulator._plan` made
before it held H gates back in a frame: every H is its own pass over the
array. `typed_move`, `typed_turn` and `typed_window_mask` are the plan's
gate algebra as typed rules, before `simulator._plan` derived each step
from its gate's matrix: each gate and its conjugates through H gates, and
the bit rules that tracked a window's images of Z. `miter_equivalent` is
the check `simulator.equivalent` ran before it removed the inverse pairs
at the miter's seam: every gate of both circuits in one `frameless_plan`.
`typed_cnot_gather` is `run_noisy`'s CNOT step on the Pauli coefficients
as index arithmetic typed by hand, before `simulator._cnot_gather` derived
it from the CNOT's transfer matrix through `simulator._embed`.
`eigen_uhlmann_fidelity` is the general formula that
`nonclassicality.uhlmann_fidelity` now runs only when neither argument
allows its closed form: two eigendecompositions on every call.
`superoperator_run_noisy` is the density-matrix kernel that `run_noisy`
ran before it deferred each qubit's noise: every gate together with its
noise as one superoperator, contracted with the row and column axes of the
qubits it touches. `deferred_run_noisy` is the one `run_noisy` ran after
that, before it evolved Pauli coefficients: rho itself, conjugated by two
runs of one dense plan per run of gates, with each qubit's noise deferred
to its next CNOT or the end and applied there as one merged channel.
Everything else builds each gate as a full 2^n x 2^n matrix from
Kronecker products (or a dense CNOT permutation), depolarizing noise as
the explicit sum of the three Pauli conjugations, and placements as dense
permutation matrices. Slow, but every step is plain linear algebra, so
the differential tests in `test_simulator.py` and `test_nonclassicality.py`
compare the shipped code against it.
"""
from __future__ import annotations

import functools
from typing import Iterable, Iterator

import numpy as np

from qxopt import simulator
from qxopt.circuit import Circuit, Gate, GateKind, check_placement, inverse_of, relabel
from qxopt.simulator import GATE_MATRICES, MAX_DENSITY_QUBITS, MAX_STATE_QUBITS
from qxopt.states import DensityMatrix, NoiseSpec


def eigen_uhlmann_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), clamped to [0, 1], through an
    eigendecomposition of rho1 and the eigenvalues of the inner matrix, each
    clipped at zero before its square root."""
    a, b = rho1.matrix, rho2.matrix
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, v = np.linalg.eigh(a)
    sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_a @ b @ sqrt_a
    eigs = np.linalg.eigvalsh(inner)
    fid = float(np.sum(np.sqrt(np.clip(eigs, 0.0, None))))
    return min(max(fid, 0.0), 1.0)


def embedded_gate(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, qubit 0 = least-significant bit."""
    dim = 2**num_qubits
    if gate.kind is GateKind.CNOT:
        control, target = gate.qubits
        idx = np.arange(dim)
        flipped = idx ^ (((idx >> control) & 1) << target)
        mat = np.zeros((dim, dim), dtype=complex)
        mat[flipped, idx] = 1.0
        return mat
    (q,) = gate.qubits
    return np.kron(
        np.kron(np.eye(2 ** (num_qubits - 1 - q)), GATE_MATRICES[gate.kind]),
        np.eye(2**q),
    )


def apply_gate(gate: Gate, rows: np.ndarray, num_qubits: int) -> np.ndarray:
    """Left-multiply `rows` (a 2^n vector or a 2^n x k block) by one gate,
    qubit 0 = least-significant bit, in one pass over the array."""
    if gate.kind is GateKind.CNOT:
        control, target = gate.qubits
        idx = np.arange(rows.shape[0])
        return rows[idx ^ (((idx >> control) & 1) << target)]
    (q,) = gate.qubits
    shaped = rows.reshape(2 ** (num_qubits - 1 - q), 2, -1)
    return (GATE_MATRICES[gate.kind] @ shaped).reshape(rows.shape)


def evolve_by_gate(circuit: Circuit, rows: np.ndarray) -> np.ndarray:
    """`rows` after the circuit's gates, applied one `apply_gate` at a time."""
    for g in circuit.gates:
        rows = apply_gate(g, rows, circuit.num_qubits)
    return rows


def _check_width(num_qubits: int, cap: int) -> None:
    if num_qubits > cap:
        raise ValueError(f"{num_qubits} qubits exceeds the dense-simulation cap of {cap}")


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Product of the circuit's embedded gate matrices, in circuit order."""
    _check_width(circuit.num_qubits, MAX_STATE_QUBITS)
    u = np.eye(2**circuit.num_qubits, dtype=complex)
    for g in circuit.gates:
        u = embedded_gate(g, circuit.num_qubits) @ u
    return u


_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)


def _depolarize(rho: np.ndarray, qubit: int, p: float, num_qubits: int) -> np.ndarray:
    if p == 0.0:
        return rho
    mix = np.zeros_like(rho)
    for kind in _PAULIS:
        pauli = embedded_gate(Gate(kind, (qubit,)), num_qubits)
        mix += pauli @ rho @ pauli
    return (1.0 - p) * rho + (p / 3.0) * mix


def run_noisy(circuit: Circuit, noise: NoiseSpec) -> DensityMatrix:
    """Evolve |0...0><0...0| through the circuit, applying a symmetric
    depolarizing channel to every qubit a gate touches, after the gate."""
    _check_width(circuit.num_qubits, MAX_DENSITY_QUBITS)
    dim = 2**circuit.num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for g in circuit.gates:
        u = embedded_gate(g, circuit.num_qubits)
        rho = u @ rho @ u.conj().T
        p = noise.p2 if g.kind.arity == 2 else noise.p1
        for q in g.qubits:
            rho = _depolarize(rho, q, p, circuit.num_qubits)
    out = DensityMatrix(rho)
    out.validate()
    return out


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


def superoperator_run_noisy(circuit: Circuit, noise: NoiseSpec) -> DensityMatrix:
    """`simulator.run_noisy` as one superoperator contraction per gate, each
    built once per call for every gate kind and noise strength."""
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


def _conjugate(gates: tuple[Gate, ...], rho: np.ndarray, num_qubits: int) -> np.ndarray:
    """U rho U^dagger for the gates' product U, as (U (U rho)^dagger)^dagger,
    both halves from one `simulator._plan`."""
    plan = list(simulator._plan(simulator._pairs(gates), num_qubits))
    half = simulator._run(plan, rho, num_qubits).conj().T
    return simulator._run(plan, half, num_qubits).conj().T


def _depolarize_in_place(rho: np.ndarray, q: int, lam: float, num_qubits: int) -> np.ndarray:
    """rho -> lam rho + (1 - lam)/2 I_q (x) tr_q rho, on the (a, 2, b, a, 2, b)
    view in which qubit q's row and column bits are axes 1 and 4. Writes into
    `rho` when it is C-contiguous, else into one C-contiguous copy, and
    returns the array written."""
    rho = np.ascontiguousarray(rho)
    a, b = 2 ** (num_qubits - 1 - q), 2**q
    view = rho.reshape(a, 2, b, a, 2, b)
    mixed = (0.5 * (1.0 - lam)) * (view[:, 0, :, :, 0] + view[:, 1, :, :, 1])
    view *= lam
    view[:, 0, :, :, 0] += mixed
    view[:, 1, :, :, 1] += mixed
    return rho


def deferred_run_noisy(circuit: Circuit, noise: NoiseSpec) -> DensityMatrix:
    """`simulator.run_noisy` on the 2^n x 2^n matrix: each run of gates
    between two flushes conjugates rho by two runs of one plan, and each
    qubit's depolarizing noise waits, merged into one channel of lam the
    product of its gates' lam = 1 - 4p/3, until a CNOT on it or the end,
    where `_depolarize_in_place` applies it. Every array that function is
    given is this call's own, so it writes in place."""
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
                    rho = _depolarize_in_place(rho, q, waiting[q], n)
                    waiting[q] = 1.0
        lam = lam2 if two else lam1
        for q in g.qubits:
            waiting[q] *= lam
    rho = _conjugate(gates[start:], rho, n)
    for q, lam in enumerate(waiting):
        if lam != 1.0:
            rho = _depolarize_in_place(rho, q, lam, n)
    out = DensityMatrix(rho)
    out.validate()
    return out


def _extend_placement(perm: list[int], num_physical: int) -> list[int]:
    """Extend an injection to a full permutation: leftover logical slots take
    the unused physical indices in increasing order."""
    used = set(perm)
    spare = [p for p in range(num_physical) if p not in used]
    return perm + spare


def _permutation_matrix(perm_full: list[int]) -> np.ndarray:
    n = len(perm_full)
    dim = 2**n
    src = np.arange(dim)
    dst = np.zeros(dim, dtype=np.int64)
    for j, pj in enumerate(perm_full):
        dst |= ((src >> j) & 1) << pj
    mat = np.zeros((dim, dim), dtype=complex)
    mat[dst, src] = 1.0
    return mat


def equivalent(
    c1: Circuit,
    c2: Circuit,
    perm: list[int] | tuple[int, ...] | None = None,
    tol: float = 1e-9,
) -> bool:
    """True when c2's unitary equals c1's up to qubit relabeling by `perm`
    and a global phase.

    c1 may be narrower than c2; its extra wires are padded with identity.
    The phase is read off the first entry where the relabeled reference is
    nonzero, then the whole matrices must agree entrywise within `tol`.
    """
    n1, n2 = c1.num_qubits, c2.num_qubits
    if n1 > n2:
        raise ValueError(f"first circuit is wider ({n1}) than second ({n2})")
    if perm is None:
        perm = list(range(n1))
    perm = list(perm)
    if len(perm) != n1 or len(set(perm)) != n1 or any(not 0 <= p < n2 for p in perm):
        raise ValueError(f"invalid placement {perm} for {n1} -> {n2} qubits")
    _check_width(n2, MAX_STATE_QUBITS)

    u1 = unitary_of(c1)
    if n2 > n1:
        u1 = np.kron(np.eye(2 ** (n2 - n1)), u1)
    pmat = _permutation_matrix(_extend_placement(perm, n2))
    reference = pmat @ u1 @ pmat.conj().T
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


def whole_matrix_equivalent(
    c1: Circuit,
    c2: Circuit,
    perm: list[int] | tuple[int, ...] | None = None,
    tol: float = 1e-9,
) -> bool:
    """The dense check on whole unitaries, without the miter: the relabeled
    reference and c2's unitary are built in full by `simulator.unitary_of`,
    the phase is read off the first nonzero entry of the reference's row 0,
    and every entry must agree within `tol`. So `tol` bounds entries of
    U2 - phi U1' here, where `simulator.equivalent` bounds those of its
    miter V - phi I; the tests compare the two only on pairs that are equal
    or far apart."""
    check_placement(perm, c2.num_qubits, c1.num_qubits)
    if perm is None:
        perm = tuple(range(c1.num_qubits))
    reference = simulator.unitary_of(relabel(c1, perm, c2.num_qubits))
    u2 = simulator.unitary_of(c2)

    anchor = int(np.argmax(np.abs(reference[0]) > 1e-9))
    phase = u2[0, anchor] / reference[0, anchor]
    mag = abs(phase)
    if mag < 1e-12:
        return False
    phase /= mag
    reference *= phase
    reference -= u2
    return float(np.max(np.abs(reference))) <= tol


def miter_equivalent(
    c1: Circuit,
    c2: Circuit,
    perm: list[int] | tuple[int, ...] | None = None,
    tol: float = 1e-9,
) -> bool:
    """`simulator.equivalent` without its seam cancellation and without the
    plan's Hadamard frame: one `frameless_plan` runs all of c1's gates,
    moved by the placement, then all of c2's in reverse, each inverted, and
    V - phi I is checked one column block at a time."""
    n = c2.num_qubits
    check_placement(perm, n, c1.num_qubits)
    _check_width(n, MAX_STATE_QUBITS)
    dim, width = 2**n, simulator._block_width(n)
    wire = range(n) if perm is None else perm
    miter = [(g.kind, tuple([wire[q] for q in g.qubits])) for g in c1.gates]
    miter += [(inverse_of(g.kind), g.qubits) for g in reversed(c2.gates)]
    plan = list(frameless_plan(miter, n, columns=True))
    for j in range(0, dim, width):
        v = simulator._run(plan, range(j, j + width), n)
        if j == 0:
            mag = abs(v[0, 0])
            if mag < 1e-12:
                return False
            phase = v[0, 0] / mag
        v.flat[j * width : (j + width) * width : width + 1] -= phase
        if not float(np.max(np.abs(v))) <= tol:
            return False
    return True


def frameless_plan(
    gates: Iterable[simulator.Pair], num_qubits: int, columns: bool = False
) -> Iterator[int | tuple[np.ndarray, np.ndarray]]:
    """`simulator._plan` without its Hadamard frame: every H is its own
    step, and each run of monomial gates between two H gates (or an end) is
    one gather. Its steps are `_run`'s."""
    identity = simulator._identity(num_qubits)
    src, phase = identity if columns else (None, None)
    for kind, qubits in gates:
        if kind is GateKind.H:
            if src is not None:
                yield src, phase
                src = None
            yield qubits[0]
            continue
        if src is None:
            src, phase = identity
        g_src, g_phase = typed_move(kind, qubits, num_qubits, 0)
        if g_src is not None:
            src, phase = src[g_src], phase[g_src]
        if g_phase is not None:
            phase = phase * g_phase
    if src is not None:
        yield src, phase


# The dense plan's gate algebra as it was typed by hand before `simulator`
# derived each step from its gate's matrix (`simulator._embed`).


def _typed_monomial(m: np.ndarray) -> tuple[int, np.ndarray]:
    """A monomial 2x2 matrix as (flip, phases): output bit b reads input bit
    b ^ flip, scaled by phases[b]."""
    flip = int(m[0, 0] == 0)
    return flip, m[[0, 1], [flip, 1 - flip]]


_TYPED = {k: _typed_monomial(m) for k, m in GATE_MATRICES.items() if k is not GateKind.H}
# H g H for the 1-qubit gates that it leaves monomial: H X H = Z, H Z H = X
# and H Y H = -Y. H S H and H T H mix two rows.
_TYPED_THROUGH_H = {
    GateKind.X: _TYPED[GateKind.Z],
    GateKind.Y: (1, -_TYPED[GateKind.Y][1]),
    GateKind.Z: _TYPED[GateKind.X],
}


@functools.lru_cache(maxsize=256)
def typed_move(
    kind: GateKind, qubits: tuple[int, ...], num_qubits: int, framed: int
) -> tuple[np.ndarray | None, np.ndarray | None] | None:
    """`simulator._move` as typed rules: one gate on 2^n rows, conjugated by
    H on its qubits in the bitmask `framed`, as read-only (src, phase)
    arrays, None for the identity permutation or all-one phases. On a
    framed target alone a CNOT is CZ, on both qubits the reversed CNOT; on
    a framed control alone, and S, SDG, T or TDG on a framed qubit, the
    conjugate is not monomial and the result is None."""
    idx = np.arange(2**num_qubits)
    framed &= sum(1 << q for q in qubits)
    if kind is GateKind.CNOT:
        control, target = qubits
        if framed == 1 << control:
            return None
        if framed == 1 << target:  # H_t CX H_t = CZ
            src, phase = None, 1 - 2 * ((idx >> control) & (idx >> target) & 1) + 0j
        else:
            if framed:  # (H (x) H) CX (H (x) H) is the reversed CX
                control, target = target, control
            src, phase = idx ^ (((idx >> control) & 1) << target), None
    else:
        if framed and kind not in _TYPED_THROUGH_H:
            return None
        (q,) = qubits
        flip, phases = (_TYPED_THROUGH_H if framed else _TYPED)[kind]
        src = idx ^ (1 << q) if flip else None
        phase = phases[(idx >> q) & 1]
    simulator._read_only(src, phase)
    return src, phase


def typed_turn(kind: GateKind, w: int, t: int, images: int) -> int:
    """The images U Z_0 U^dagger and U Z_1 U^dagger of a window's product U,
    up to sign, after one more Clifford gate on its wires w (and t, for a
    CNOT's target), 0 or 1 each, by the conjugation rules of Aaronson and
    Gottesman (quant-ph/0406196). An image is a 4-bit Pauli mask, bits 0 and
    1 its X part on the window's wires and bits 2 and 3 its Z part; Z_0's
    image is the low nibble of `images`. U starts as the identity, 0x84."""
    if kind is GateKind.H:  # X <-> Z
        x, z = images & 0x11 << w, images & 0x44 << w
        return images ^ x ^ z | x << 2 | z >> 2
    if kind is GateKind.CNOT:  # X_c -> X_c X_t, Z_t -> Z_c Z_t
        images ^= (images >> w & 0x11) << t
        return images ^ (images >> 2 + t & 0x11) << 2 + w
    if kind is GateKind.S or kind is GateKind.SDG:  # X -> +-Y
        return images ^ (images >> w & 0x11) << 2 + w
    return images  # a Pauli only changes signs


def typed_window_mask(images: int) -> int | None:
    """The 2-bit mask G of a window's wires for which H_G U is monomial, read
    off `typed_turn`'s images: H_G U is monomial exactly when it maps Z_0
    and Z_1 to products of Z, and G is the wires where U's images have an X
    part. None when no G makes it monomial."""
    both = (images | images >> 4) & 15
    return None if both & both >> 2 else both & 3


def typed_cnot_gather(control: int, target: int, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """`simulator._cnot_gather` as typed index arithmetic: a CNOT's PTM on
    the 4^n coefficients as a read-only (src, sign) pair, entry a of the
    result sign[a] * c[src[a]], each coefficient's two digits on the CNOT's
    qubits looked up in the 16x16 PTM."""
    idx = np.arange(4**num_qubits)
    dc, dt = idx >> 2 * control & 3, idx >> 2 * target & 3
    ptm = simulator._ptm(GateKind.CNOT)
    src16, sign16 = ptm.nonzero()[1], ptm[ptm != 0]  # one entry per row
    local = dc | dt << 2
    src = idx ^ dc << 2 * control ^ dt << 2 * target
    src |= (src16[local] & 3) << 2 * control | (src16[local] >> 2) << 2 * target
    sign = sign16[local]
    simulator._read_only(src, sign)
    return src, sign
