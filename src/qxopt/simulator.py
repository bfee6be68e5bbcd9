"""Dense statevector / unitary / density-matrix engine.

Caps: 10 qubits for unitaries and state vectors, 6 for density matrices.
States, unitaries and density matrices are dense arrays, but a gate is never
a 2^n x 2^n matrix. Vectors and unitaries go through one kernel in two
parts: a plan (`_plan`) made once per circuit, and a runner
(`_run`) that applies it. Every gate but H is monomial (one nonzero per
matrix row), so a run of them is one row permutation and one phase per row:
the plan folds each such gate into a pending (source row, phase) pair of
length 2^n, emitted as one gather-and-scale step. The plan holds H gates
back in a frame and folds a gate through them while its conjugate stays
monomial (see `_plan`), so a CNOT reversed by H gates, as a mapped circuit
writes it, is one more permutation. A CNOT whose control alone meets the
frame first opens a window on its two wires, which folds the gates on them
once their product is monomial up to H gates. Every step folded is a
matrix, the gate's own conjugated by the frame or a window's product,
embedded on 2^n rows by one function (`_embed`); no gate's action is
written down twice. An H passes over the array by itself only where an S,
SDG, T or TDG meets it, or such a CNOT whose window was given up, or at
the end. Each gate's pair is built once per width and read from a cache,
and so is each window's.
The runner takes an array, or a range of identity columns, which the
plan's first gather builds by one scatter.

`equivalent` checks the miter: one plan runs c1's gates, moved by the
placement, then c2's gates in reverse, each inverted, and so gives
V = U2^dagger U1', which is phi I exactly when the two circuits agree up to
the global phase phi. Before the plan is made, `_seam` removes the inverse
pairs that meet where c1's gates end and c2's inverted ones begin: walking
c2 from its last gate, a gate cancels against the c1 gate on top of all its
wires when that gate is on the same qubits and is its inverse. The gates
between them are on other wires and commute with both, so each pair is
g . g^dagger = I moved next to itself, and V is unchanged. A gate that does
not cancel blocks its wires, and the walk stops once every wire c1's gates
touch is blocked, since no gate can cancel on any other.
Column j of V is the plan run on e_j, so V is built and checked one block
of columns at a time, each block on its own. A block has BLOCK_ENTRIES
entries (512 KB), so up to 7 qubits it is the whole matrix and at the
10-qubit cap it is 32 columns.

`run_noisy` works on the density matrix's Pauli coefficients instead, the
real vector c with rho = 2^-n sum_P c_P P over the 4^n Pauli strings P. A
gate maps c by its Pauli transfer matrix (PTM), derived once from its
unitary (`_ptm`), which for a Clifford is a signed permutation: each Pauli
goes to +-a Pauli. With lam = 1 - 4p/3, p-depolarizing on qubit q scales
every P that is not I on q by lam: diag(1, lam, lam, lam) on q's Pauli,
which commutes with every 1-qubit PTM, and two such channels compose to
one, whose lam is the product of theirs. So each qubit keeps one pending
4x4 PTM, the product of its 1-qubit gates', and one pending lam. Before a
CNOT, the pending maps of its two qubits pass over the coefficients, one
4x4 product on that qubit's axis each, and then the CNOT, one cached signed
gather. At the end each qubit's pending map is folded into its factor of
rho, the 2x2 matrix that each of its Paulis stands for, and rho is built
from them. A circuit without CNOTs makes no pass before that, and each CNOT
at most three.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from typing import Iterable, Iterator

import numpy as np

from .circuit import Circuit, Gate, GateKind, check_placement, check_tolerance, inverse_of
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
# Entries per column block of `equivalent`: 512 KB of complex128.
BLOCK_ENTRIES = 2**15

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


_H = GATE_MATRICES[GateKind.H]


def _rounded(m: np.ndarray) -> np.ndarray:
    """m with each entry within 1e-12 of an integer, or of a Gaussian integer
    for a complex m, rounded to it, and -0.0 made 0.0: a Clifford's derived
    matrices come out exact."""
    r = np.round(m)
    return np.where(np.abs(m - r) < 1e-12, r, m) + 0.0


def _gather(rows: np.ndarray | range, src: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Row i of the result is phase[i] * rows[src[i]]. A range stands for
    those columns of the 2^n identity, whose result is one scatter into a
    zero block."""
    dim = len(src)
    if isinstance(rows, range):
        out = np.zeros((dim, len(rows)), dtype=complex)
        if len(rows) == dim:
            out[np.arange(dim), src] = phase
        else:
            hit = np.flatnonzero((src >= rows.start) & (src < rows.stop))
            out[hit, src[hit] - rows.start] = phase[hit]
        return out
    out = rows[src]
    out *= phase.reshape((dim,) + (1,) * (rows.ndim - 1))
    return out


def _hadamard(rows: np.ndarray, q: int, num_qubits: int) -> np.ndarray:
    shaped = rows.reshape(2 ** (num_qubits - 1 - q), 2, -1)
    return (_H @ shaped).reshape(rows.shape)


def _read_only(*arrays: np.ndarray | None) -> None:
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _identity(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The identity on 2^n rows as a read-only (src, phase) pair."""
    idx, ones = np.arange(2**num_qubits), np.ones(2**num_qubits, dtype=complex)
    _read_only(idx, ones)
    return idx, ones


# A gate as its kind and qubits, without the validation of a `Gate`.
Pair = tuple[GateKind, tuple[int, ...]]
# A monomial matrix on 2^n rows as `_embed` gives it, and a window's fold.
Step = tuple[np.ndarray | None, np.ndarray | None]
Fold = tuple[np.ndarray | None, np.ndarray | None, int]


def _embed(m: np.ndarray, wires: tuple[int, ...], num_qubits: int, bits: int = 1) -> Step | None:
    """A matrix m on k `wires` of `bits` bits each (1 for a qubit, 2 for a
    Pauli digit), wire j its j-th `bits`-wide field, as a read-only
    (src, phase) pair on 2^(bits n) rows when m is monomial, one nonzero
    entry per row: row i of the result is phase[i] * row src[i]. None stands
    for the identity permutation or all-one phases, and for the whole pair
    when m is not monomial."""
    if np.count_nonzero(m) != len(m):
        return None
    col, entry = m.nonzero()[1], m[m != 0]  # row by row
    mask = (1 << bits) - 1
    idx = np.arange(1 << bits * num_qubits)
    row = sum([(idx >> bits * w & mask) << bits * j for j, w in enumerate(wires)])  # each row's row of m
    src = phase = None
    moved = (col ^ range(len(m))).tolist()  # the bits of its row each row of m flips
    if any(moved):
        flips = np.array([sum((d >> bits * j & mask) << bits * w for j, w in enumerate(wires)) for d in moved])
        src = idx ^ flips[row]
    if (entry != 1).any():
        phase = entry[row]
    _read_only(src, phase)
    return src, phase


# A window (see `_plan`) holds gates on two wires, its first wire the low
# bit of a 4x4 matrix. Each gate as such a matrix, by kind and the places
# of its qubits in the window:
_IN_WINDOW = {
    **{(k, (0,)): np.kron(np.eye(2), m) for k, m in GATE_MATRICES.items()},
    **{(k, (1,)): np.kron(m, np.eye(2)) for k, m in GATE_MATRICES.items()},
    (GateKind.CNOT, (0, 1)): np.eye(4, dtype=complex)[[0, 3, 2, 1]],
    (GateKind.CNOT, (1, 0)): np.eye(4, dtype=complex)[[0, 1, 3, 2]],
}
# H_G for the four subsets G of two wires, G as a 2-bit mask.
_H_ON = np.stack([np.kron(*(_H if g & b else np.eye(2) for b in (2, 1))) for g in range(4)])
# Gates a window holds before it is given up.
_WINDOW_GATES = 8
# H_F g H_F for every kind g but H, by the set F of g's wires that H gates
# frame (see `_plan`), F a mask of their places in g: bit 0 a CNOT's control.
_CONJUGATES = {
    kind: [_rounded(h @ m @ h) for h in (_H_ON if len(m) == 4 else (np.eye(2), _H))]
    for kind, m in {**GATE_MATRICES, GateKind.CNOT: _IN_WINDOW[GateKind.CNOT, (0, 1)]}.items()
    if kind is not GateKind.H
}


@functools.lru_cache(maxsize=256)
def _move(kind: GateKind, qubits: tuple[int, ...], num_qubits: int, framed: int) -> Step | None:
    """The gate H_F g H_F, for F the qubits of g in the bitmask `framed`, as
    `_embed` gives it on 2^n rows: None when it is not monomial."""
    f = sum(1 << j for j, q in enumerate(qubits) if framed >> q & 1)
    return _embed(_CONJUGATES[kind][f], qubits, num_qubits)


@functools.lru_cache(maxsize=256)
def _window_move(held: tuple[Pair, ...], num_qubits: int) -> Fold | None:
    """A window's fold (see `_plan`): U is H on the control of the CNOT that
    `held` starts with, then the `held` gates, all on that CNOT's two wires;
    for the one 2-bit mask G of those wires that makes M = H_G U monomial,
    `_embed` of M and then G. None when no G does."""
    wires = held[0][1]
    u = _IN_WINDOW[GateKind.H, (0,)]
    for kind, qubits in held:
        u = _IN_WINDOW[kind, tuple(wires.index(q) for q in qubits)] @ u
    ms = _H_ON @ u
    # U is Clifford, so an entry of H_G U has magnitude 0, 1/2, 1/sqrt(2) or
    # 1, and a row with an entry of magnitude 1 has no other nonzero entry.
    fits = np.flatnonzero(np.abs(ms).max(axis=2).min(axis=1) > 0.9)
    if not len(fits):
        return None
    g = int(fits[0])
    return (*_embed(_rounded(ms[g]), wires, num_qubits), g)


def _plan(
    gates: Iterable[Pair], num_qubits: int, columns: bool = False
) -> Iterator[int | tuple[np.ndarray, np.ndarray]]:
    """The (kind, qubits) gates, qubit 0 = least-significant bit, as the
    steps `_run` takes: an int q is H on qubit q, a (src, phase) pair one
    `_gather`.

    What is read and not yet emitted is H_F P: first the pending pair P,
    then H on each qubit of the frame F. An H toggles its qubit in F, since
    H H = I. Any other gate g is folded into P as H_F g H_F, since
    g H_F = H_F (H_F g H_F): that conjugate of g's matrix, embedded on 2^n
    rows (`_move`), whenever it is monomial. Its phases carry every sign, so
    the global phase is exact. When it is not (S, SDG, T or TDG on a qubit
    of F, or a CNOT whose control alone is in F), P is emitted, then H on
    that one qubit, which leaves F, and g is then folded as it is. At the
    end P is emitted, then H on the rest of F in ascending order.

    A CNOT whose control alone is in F first opens a window on its two
    wires instead: U, the product of H on the control and the CNOT. Later
    gates on those wires alone join U; gates off them commute with U and
    are read as before. Once U = H_G M with M monomial and G a set of the
    two wires, M is folded into P and G joins F, since
    H_F U P = H_F H_G M P and M commutes with H_F (`_window_move`, cached by
    the gates the window held, since a mapped circuit repeats a few such
    runs). T or TDG on the two wires, a gate on one of them and a third, the
    end, or _WINDOW_GATES gates held give the window up: the CNOT then
    flushes as above, and the gates held after it are read again. A mapped
    circuit writes a CNOT against an edge's direction with H gates that the
    search may move or merge with a neighbour's, differently for each of the
    placements it ties on. One gate at a time the frame finds the
    permutation in only some of those forms; the window finds it in the
    others, so a check costs the same whichever placement won.

    An H step takes at least one H gate off F, and a gather comes only
    before an H step or at the end. A window's G has no more qubits than
    the H gates in U, since a row of U has at most 2^h nonzero entries for
    h of them, and one of H_G M has 2^|G|. So a plan with k H passes, k no
    more than its H gates, has at most 2k + 1 steps. The steps come lazily,
    so a plan run once holds one pair at a time; a `list` of them serves any
    number of runs, since no step's arrays are ever written. A plan for
    identity `columns` starts with the identity pending, so that its first
    step is a gather, the one scatter that builds the columns; a plan for
    an array starts with nothing pending, so a leading H does not copy the
    array first.
    """
    identity = _identity(num_qubits)
    # The pending pair; None while nothing is pending.
    src, phase = identity if columns else (None, None)
    frame = 0  # F as a bitmask
    window = None  # [its two wires, them as a bitmask, the gates it holds]
    gates = iter(gates)
    source = gates  # or an iterator over gates to read again, before the rest
    while True:
        for kind, qubits in source:
            on = 1 << qubits[0] | 1 << qubits[-1]
            if window is not None and on & window[1]:
                wires, held = window[0], window[2]
                held.append((kind, qubits))
                if on & ~window[1] or kind is GateKind.T or kind is GateKind.TDG:
                    break
                step = _window_move(tuple(held), num_qubits)
                if step is None:
                    if len(held) < _WINDOW_GATES:
                        continue
                    break
                frame |= (step[2] & 1) << wires[0] | (step[2] >> 1) << wires[1]
                window = None
            elif kind is GateKind.H:
                frame ^= on
                continue
            else:
                framed = frame & on
                step = _move(kind, qubits, num_qubits, framed)
                if step is None:
                    if kind is GateKind.CNOT and window is None:
                        window = [qubits, on, [(kind, qubits)]]
                        frame ^= framed
                        continue
                    if src is not None:
                        yield src, phase
                        src = None
                    yield qubits[0]
                    frame ^= framed
                    step = _move(kind, qubits, num_qubits, 0)
            if src is None:
                src, phase = identity
            # Composing (g_src, g_phase) after the pending pair gives
            # src[g_src] and g_phase * phase[g_src].
            if step[0] is not None:
                src, phase = src[step[0]], phase[step[0]]
            if step[1] is not None:
                phase = phase * step[1]
        else:
            if source is not gates:
                source = gates
                continue
            if window is None:
                break
        # The window is given up, by the gate just read or by the end: the
        # CNOT flushes, as it would have without the window, and the gates
        # held after it are read again, then the rest.
        wires, held = window[0], window[2]
        if src is not None:
            yield src, phase
        yield wires[0]
        src, phase = _move(GateKind.CNOT, wires, num_qubits, 0)[0], identity[1]
        window = None
        source = iter(held[1:] + ([] if source is gates else list(source)))
    if src is not None:
        yield src, phase
    if frame:
        yield from (q for q in range(num_qubits) if frame >> q & 1)


def _run(
    plan: Iterable[int | tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray | range,
    num_qubits: int,
) -> np.ndarray:
    """Left-multiply `rows`, a 2^n vector or a 2^n x k block, by a plan's
    gates in order; a range stands for those columns of the identity and
    takes a plan made for `columns`. The one kernel through which gates act
    on vectors and unitaries. Returns a new array."""
    out = rows
    for step in plan:
        if type(step) is tuple:
            out = _gather(out, step[0], step[1])
        else:
            out = _hadamard(out, step, num_qubits)
    return out.copy() if out is rows else out


def _pairs(gates: Iterable[Gate]) -> Iterator[Pair]:
    return ((g.kind, g.qubits) for g in gates)


def _check_width(num_qubits: int, cap: int) -> None:
    if num_qubits > cap:
        raise ValueError(f"{num_qubits} qubits exceeds the dense-simulation cap of {cap}")


def _block_width(num_qubits: int) -> int:
    """Columns per block of `equivalent`: BLOCK_ENTRIES entries, the whole
    matrix up to 7 qubits."""
    dim = 2**num_qubits
    return max(1, min(dim, BLOCK_ENTRIES // dim))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Product of the circuit's gate unitaries, in circuit order."""
    n = circuit.num_qubits
    _check_width(n, MAX_STATE_QUBITS)
    return _run(_plan(_pairs(circuit.gates), n, columns=True), range(2**n), n)


def run_ideal(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit to `initial` (default |0...0>) without noise."""
    _check_width(circuit.num_qubits, MAX_STATE_QUBITS)
    if initial is None:
        initial = basis_state(circuit.num_qubits)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"initial state has {initial.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    n = circuit.num_qubits
    return StateVector(_run(_plan(_pairs(circuit.gates), n), initial.amplitudes, n))


# Pauli transfer matrices (PTMs). A density matrix on n qubits is
# rho = 2^-n sum_a c_a P_a over the 4^n Pauli strings P_a, where digit a_q of
# a = sum_q a_q 4^q names qubit q's factor: 0, 1, 2, 3 for I, X, Y, Z. A gate
# U maps c to R c, R[a, b] = tr(P_a U P_b U^dagger) / 2^k on its k qubits.
_PAULIS = np.stack([np.eye(2)] + [GATE_MATRICES[k] for k in (GateKind.X, GateKind.Y, GateKind.Z)])
_read_only(_PAULIS)


@functools.lru_cache(maxsize=None)
def _ptm(kind: GateKind) -> np.ndarray:
    """The kind's PTM, 16x16 for a CNOT, as a read-only matrix derived from
    its unitary: `GATE_MATRICES`, or `_IN_WINDOW`'s CNOT, its control the
    low bit, digit a_0 of a = a_0 + 4 a_1. It is `_rounded`, so a
    Clifford's R is exactly a signed permutation."""
    p = _PAULIS
    if kind is GateKind.CNOT:
        u = _IN_WINDOW[kind, (0, 1)]
        p = np.stack([np.kron(p[a >> 2], p[a & 3]) for a in range(16)])
    else:
        u = GATE_MATRICES[kind]
    m = _rounded(np.einsum("aij,bji->ab", p, u @ p @ u.conj().T).real / len(u))
    _read_only(m)
    return m


@functools.lru_cache(maxsize=64)
def _cnot_gather(control: int, target: int, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """A CNOT's PTM on the 4^n coefficients as a read-only (src, sign) pair:
    entry a of the result is sign[a] * c[src[a]]."""
    return _embed(_ptm(GateKind.CNOT), (control, target), num_qubits, 2)


@functools.lru_cache(maxsize=16)
def _zero_state(num_qubits: int) -> np.ndarray:
    """|0...0><0...0| = (x)_q (I + Z)/2 as read-only coefficients."""
    coeffs = np.ones(1)
    for _ in range(num_qubits):
        coeffs = np.kron(coeffs, (1.0, 0.0, 0.0, 1.0))
    _read_only(coeffs)
    return coeffs


def _pass(
    coeffs: np.ndarray, op: np.ndarray | tuple[np.ndarray, np.ndarray], q: int | None
) -> np.ndarray:
    """One pass over the 4^n coefficients, into a new array: a 4x4 PTM on
    qubit q's digit, or, for q None, a (src, sign) gather of all of them.
    A signed permutation is applied as a 4x4 matrix too: its zero entries
    add exact zeros, and the product is faster than a gather on one axis."""
    if q is None:
        return coeffs[op[0]] * op[1]
    if q == 0:  # a batched product of 4x1 columns is slow; one 4-column product is not
        return (coeffs.reshape(-1, 4) @ op.T).reshape(-1)
    return (op @ coeffs.reshape(-1, 4, 4**q)).reshape(-1)


@functools.lru_cache(maxsize=None)
def _pauli_factors() -> np.ndarray:
    """Digit b's 2x2 factor P_b / 2 of rho, as a real 4x16 matrix: row b
    holds, for a real then for an imaginary coefficient, the factor's
    entries (r, c) in the order 00, 01, 10, 11, each as its real and
    imaginary part. Right-multiplied by it, complex data viewed as pairs of
    reals is multiplied as complex numbers."""
    halves = _PAULIS.reshape(4, 4) / 2
    m = np.stack((halves, 1j * halves), axis=1).view(float).reshape(4, 16)
    _read_only(m)
    return m


@functools.lru_cache(maxsize=16)
def _layout(num_qubits: int) -> np.ndarray:
    """Where `_density` leaves rho[r, c], flat: each qubit q's pair
    2 r_q + c_q is a base-4 digit, qubit n-1's lowest, then qubit 0's,
    qubit 1's and so on up to qubit n-2's."""
    r, c = np.arange(2**num_qubits)[:, None], np.arange(2**num_qubits)
    pair = [2 * (r >> q & 1) + (c >> q & 1) for q in range(num_qubits)]
    at = pair[-1] + sum(pair[q] << 2 * (q + 1) for q in range(num_qubits - 1))
    at = at.reshape(-1)
    _read_only(at)
    return at


def _density(coeffs: np.ndarray, ops: list[np.ndarray], num_qubits: int) -> np.ndarray:
    """rho = 2^-n sum_a (R c)_a P_a for R the product of the per-qubit PTMs
    `ops`: each qubit's digit b becomes its 2x2 factor sum_a R_q[a, b] P_a / 2,
    qubit 0's first. Each step multiplies the last axis, then moves its
    result to the front, so the next qubit's digit is last."""
    n = num_qubits
    # Row 2b + i of factors[q]: qubit q's factor for digit b, times i^i.
    factors = (np.stack(ops).transpose(0, 2, 1) @ _pauli_factors()).reshape(n, 8, 8)
    out = coeffs.reshape(-1, 4) @ factors[0, ::2]
    for q in range(1, n):
        out = np.ascontiguousarray(out.view(complex).T).view(float).reshape(-1, 8) @ factors[q]
    return out.view(complex).reshape(-1)[_layout(n)].reshape(2**n, 2**n)


_NO_MAP = np.eye(4)  # the identity PTM: a qubit's pending map before any 1-qubit gate
_read_only(_NO_MAP)


def _pending(op: np.ndarray, lam: float) -> np.ndarray:
    """A qubit's pending PTM R, a 4x4 array that is never written, with its
    noise: diag(1, lam, lam, lam) R, the merged depolarizing channel after R
    (it commutes with R). Row 0 of every `_ptm` is (1, 0, 0, 0) exactly, so
    is R's, and lam R with 1 at [0, 0] is that product."""
    if lam == 1.0:
        return op
    m = lam * op
    m[0, 0] = 1.0
    return m


def run_noisy(circuit: Circuit, noise: NoiseSpec) -> DensityMatrix:
    """Evolve |0...0><0...0| through the circuit, applying a symmetric
    depolarizing channel to every qubit a gate touches, after the gate.

    The state is its 4^n Pauli coefficients (see the module docstring). Each
    qubit keeps one pending map, the product of the PTMs of its 1-qubit
    gates since its last CNOT, each derived from the gate's unitary, and one
    pending lam. Before a CNOT its qubits' maps pass over the coefficients,
    then its gather does; at the end each map folds into its qubit's rho
    factor."""
    n = circuit.num_qubits
    _check_width(n, MAX_DENSITY_QUBITS)
    lam1, lam2 = 1.0 - 4.0 * noise.p1 / 3.0, 1.0 - 4.0 * noise.p2 / 3.0
    coeffs = _zero_state(n)
    ops, lams = [_NO_MAP] * n, [1.0] * n  # each qubit's pending PTM and lam
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            for q in g.qubits:
                # A product that came back to the identity (say H H) and no
                # noise: nothing to pass.
                if lams[q] != 1.0 or ops[q] is not _NO_MAP and not np.array_equal(ops[q], _NO_MAP):
                    coeffs = _pass(coeffs, _pending(ops[q], lams[q]), q)
                ops[q] = _NO_MAP
                lams[q] = lam2
            coeffs = _pass(coeffs, _cnot_gather(*g.qubits, n), None)
            continue
        q = g.qubits[0]
        ops[q] = _ptm(g.kind) if ops[q] is _NO_MAP else _ptm(g.kind) @ ops[q]
        lams[q] *= lam1
    out = DensityMatrix(_density(coeffs, [_pending(o, l) for o, l in zip(ops, lams)], n))
    out.validate()
    return out


def measure_probs(state: StateVector | DensityMatrix) -> ProbabilityDistribution:
    """Computational-basis outcome probabilities, strict sum tolerance."""
    if isinstance(state, StateVector):
        values = np.abs(state.amplitudes) ** 2
    else:
        values = np.clip(np.diag(state.matrix).real, 0.0, None)
    return distribution_from_vector(values, tolerance=1e-10)


def _seam(head: list[Pair], tail: Iterator[Pair], num_qubits: int) -> list[Pair]:
    """The miter `head` then `tail`, (kind, qubits) pairs in miter order,
    without the inverse pairs that meet at its seam (see the module
    docstring): the kept head, then the kept part of the tail read so far.
    The rest of `tail` stays unread in the iterator. The head is read from
    its end only as deep as the tail's entries on its wires reach, and no
    deeper than a wire's last head entry; a tail entry on a wire that no
    head entry touches cancels nothing, and the walk stops once every wire
    the head touches is blocked."""
    tops: list[deque[int]] = [deque() for _ in range(num_qubits)]  # head indices, top first
    unscanned = [0] * num_qubits  # head entries on each wire not yet in `tops`
    for _, qubits in head:
        for w in qubits:
            unscanned[w] += 1
    # The head's wires that no kept tail entry has blocked yet.
    live = {w for w, count in enumerate(unscanned) if count}
    gone: set[int] = set()
    kept: list[Pair] = []
    scan = len(head)  # head[scan:] is sorted into `tops`
    for kind, qubits in tail if live else ():
        if live.issuperset(qubits):
            q = qubits[0]
            while not tops[q] and unscanned[q]:
                scan -= 1
                for w in head[scan][1]:
                    tops[w].append(scan)
                    unscanned[w] -= 1
            # A head gate on the same qubits is read into each of their
            # tops, with every gate above it, so tops[w][0] settles each wire.
            if tops[q] and head[tops[q][0]] == (inverse_of(kind), qubits):
                top = tops[q][0]
                if all(tops[w][0] == top for w in qubits):
                    gone.add(top)
                    for w in qubits:
                        tops[w].popleft()
                    continue
        live.difference_update(qubits)
        kept.append((kind, qubits))
        if not live:
            break
    return head[:scan] + [head[i] for i in range(scan, len(head)) if i not in gone] + kept


def equivalent(
    c1: Circuit,
    c2: Circuit,
    perm: list[int] | tuple[int, ...] | None = None,
    tol: float = 1e-9,
) -> bool:
    """True when c2's unitary equals c1's up to qubit relabeling by `perm`
    and a global phase.

    c1 may be narrower than c2; its extra wires are padded with identity.
    A `tol` that is NaN, infinite or negative is refused first. Then
    `check_placement` refuses a placement that does not fit c2 (so a wider
    c1 too), and a width past the dense cap is refused before any plan is
    built. Moving c1's gates by the placement conjugates its unitary by the
    placement's permutation, so the miter's one plan (see the module
    docstring) gives V = U2^dagger U1'. The phase phi is V[0, 0] scaled to
    magnitude 1; a magnitude below 1e-12 is a difference. The circuits
    agree when no entry of V - phi I exceeds `tol`. V is unitary, so `tol`
    means the same at every width.

    Before the plan is made, `_seam` removes the inverse pairs where c1's
    gates meet c2's inverted ones, which leaves V as it was: a mapped
    circuit plans only the gates before the tail it shares with its input,
    and a pair whose miter cancels completely, V = I, builds no block.

    V is built one block of `_block_width(n)` columns at a time, in column
    order, and the first block off by more than `tol` ends the check. One
    block of V is built at a time: at the 10-qubit cap a block is 512 KB,
    where the whole matrix is 16 MB.
    """
    check_tolerance(tol)
    n = c2.num_qubits
    check_placement(perm, n, c1.num_qubits)
    _check_width(n, MAX_STATE_QUBITS)
    wire = range(n) if perm is None else perm
    tail = ((inverse_of(g.kind), g.qubits) for g in reversed(c2.gates))
    miter = _seam([(g.kind, tuple([wire[q] for q in g.qubits])) for g in c1.gates], tail, n)
    miter += tail
    if not miter:
        return True
    dim, width = 2**n, _block_width(n)
    # A plan runs once per block: only a plan for several keeps its steps.
    plan = (list if width < dim else iter)(_plan(miter, n, columns=True))
    for j in range(0, dim, width):
        v = _run(plan, range(j, j + width), n)
        if j == 0:
            mag = abs(v[0, 0])
            if mag < 1e-12:
                return False
            phase = v[0, 0] / mag
        # V - phi I, in place: the block's diagonal is v[j + k, k], every
        # (width + 1)-th entry of the flat block from entry j * width.
        v.flat[j * width : (j + width) * width : width + 1] -= phase
        if not float(np.max(np.abs(v))) <= tol:
            return False
    return True
