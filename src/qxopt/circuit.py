"""Circuit intermediate representation for the Clifford+T gate set.

The IR is deliberately small: nine gate kinds, immutable gates and circuits,
and two cost metrics (gate count and level count under ASAP scheduling).
Everything downstream (routing, placement, peephole rewriting, simulation)
works on these values.

The placement search and the realization-table build run on gates coded as
plain ints instead (`encode`/`decode`): the kind's index in `GateKind` in
the low 4 bits, then one `bits`-wide field per qubit, the first qubit
lowest. `field_bits` sizes the field from the circuit's or device's width;
Python ints are unbounded, so no qubit index can wrap into its neighbor.
`decode_all` turns a whole code list back into `Gate`s, decoding each
distinct code once and sharing its `Gate` among its repeats.
Kind index 9, `BLOCK_CODE`, is no gate: in a code list for
`peephole.rewrite_pending` it marks the start of a block (see
`peephole.mark_blocks`), with the block's index above the kind field.
"""
from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, Sequence

from . import Record


class GateKind(Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    CNOT = "cx"

    # Members are singletons and compare by identity, so identity hashing is
    # sound, and it skips Enum's Python-level __hash__ on every dict lookup.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return 2 if self is GateKind.CNOT else 1


# Inverse kinds, used by cancellation rewrites.
_INVERSE = {
    GateKind.H: GateKind.H,
    GateKind.X: GateKind.X,
    GateKind.Y: GateKind.Y,
    GateKind.Z: GateKind.Z,
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
    GateKind.CNOT: GateKind.CNOT,
}


def inverse_of(kind: GateKind) -> GateKind:
    """Gate kind whose unitary is the adjoint of `kind`'s."""
    return _INVERSE[kind]


# Diagonal gates as the phase, in units of pi/4, that each adds to a basis
# state with its wire set.
PHASE = {GateKind.Z: 4, GateKind.S: 2, GateKind.SDG: 6, GateKind.T: 1, GateKind.TDG: 7}


class Gate(Record):
    """One gate application. For CNOT, qubits = (control, target)."""

    __slots__ = ("kind", "qubits")
    kind: GateKind
    qubits: tuple[int, ...]

    def __init__(self, kind: GateKind, qubits: tuple[int, ...]) -> None:
        if len(qubits) != kind.arity:
            raise ValueError(f"{kind.name} takes {kind.arity} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in gate: {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index: {qubits}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", qubits)


# The slots' own setters: a call of one skips `object.__setattr__`'s lookup.
_SET_KIND = Gate.kind.__set__
_SET_QUBITS = Gate.qubits.__set__


def _gate(kind: GateKind, qubits: tuple[int, ...]) -> Gate:
    """A `Gate` made without `Gate.__init__`'s checks, for a caller whose own
    checks already cover them (`decode`, `qasm.parse_report`): a quarter of
    the time of a checked CNOT. Copy and pickle still rebuild through
    `Gate.__init__`."""
    gate = object.__new__(Gate)
    _SET_KIND(gate, kind)
    _SET_QUBITS(gate, qubits)
    return gate


# Kind of each gate-code index, and the index of each kind.
KINDS = tuple(GateKind)
KIND_CODE = {kind: i for i, kind in enumerate(KINDS)}
# CNOT's index, 8, is the only gate kind with bit 3 set: `code & 8` tests
# for it, in a list without block markers (kind 9).
CNOT_CODE = KIND_CODE[GateKind.CNOT]
BLOCK_CODE = 9


def field_bits(width: int) -> int:
    """Bits per qubit field in the codes of gates on wires 0..width-1."""
    return max(1, (width - 1).bit_length())


def gate1_code(kind: GateKind, qubit: int) -> int:
    return KIND_CODE[kind] | qubit << 4


def cnot_code(control: int, target: int, bits: int) -> int:
    return CNOT_CODE | control << 4 | target << 4 + bits


def encode(gates: Iterable[Gate], bits: int) -> list[int]:
    """One int per gate, laid out as by `gate1_code` and `cnot_code`; every
    qubit must fit in a `bits`-wide field."""
    shift = 4 + bits
    return [
        KIND_CODE[g.kind] | g.qubits[0] << 4 | (g.qubits[1] << shift if len(g.qubits) == 2 else 0)
        for g in gates
    ]


def decode(code: int, bits: int) -> Gate:
    """The gate coded as `code` by `encode` with `bits`-wide qubit fields.
    The kind fixes the number of qubits, and a code that is not negative
    has no negative field, so such a code skips `Gate`'s checks unless it
    is a CNOT with two equal fields; every other code goes through them and
    is refused there."""
    if code & 8:
        kind, qubits = GateKind.CNOT, (code >> 4 & (1 << bits) - 1, code >> 4 + bits)
        valid = code >= 0 and qubits[0] != qubits[1]
    else:
        kind, qubits = KINDS[code & 15], (code >> 4,)
        valid = code >= 0
    return _gate(kind, qubits) if valid else Gate(kind, qubits)


def decode_all(codes: Sequence[int], bits: int) -> tuple[Gate, ...]:
    """`decode` of each code in `codes`, decoding each distinct code once."""
    gates = {code: decode(code, bits) for code in set(codes)}
    return tuple(map(gates.__getitem__, codes))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def gate1(kind: GateKind, qubit: int) -> Gate:
    return Gate(kind, (qubit,))


class Circuit(Record):
    """Ordered gate sequence over `num_qubits` wires. Immutable value."""

    __slots__ = ("num_qubits", "gates")
    num_qubits: int
    gates: tuple[Gate, ...]

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = ()) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if not isinstance(gates, tuple):
            gates = tuple(gates)
        for g in gates:
            for q in g.qubits:
                if q >= num_qubits:
                    raise ValueError(f"gate {g} uses qubit {q} >= num_qubits {num_qubits}")
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "gates", gates)


class CostReport(Record):
    """Gate count and schedule depth of a circuit."""

    __slots__ = ("gates", "levels")
    gates: int
    levels: int

    def __init__(self, gates: int, levels: int) -> None:
        if gates < 0 or levels < 0:
            raise ValueError("costs must be non-negative")
        if levels > gates:
            raise ValueError("levels cannot exceed gates")
        if (levels == 0) != (gates == 0):
            raise ValueError("levels is zero exactly when gates is zero")
        super().__init__(gates, levels)


def gate_count(circuit: Circuit) -> int:
    return len(circuit.gates)


def level_count(circuit: Circuit) -> int:
    """Depth under as-soon-as-possible scheduling.

    A gate is placed at 1 + the highest level already occupied on any of its
    qubits; gates on disjoint qubits share a level.
    """
    return levels_of(circuit.gates)


def levels_of(gates: Iterable[Gate]) -> int:
    gates = list(gates)
    bits = field_bits(1 + max((q for g in gates for q in g.qubits), default=0))
    return code_levels(encode(gates, bits), bits)


def code_levels(codes: Iterable[int], bits: int) -> int:
    """Depth of the gates coded as `codes`, scheduled as `level_count` does."""
    shift = 4 + bits
    mask = (1 << bits) - 1
    busy_until: dict[int, int] = {}
    depth = 0
    for code in codes:
        if code & 8:
            q = code >> 4 & mask
            other = code >> shift
            level = 1 + max(busy_until.get(q, 0), busy_until.get(other, 0))
            busy_until[other] = level
        else:
            q = code >> 4
            level = 1 + busy_until.get(q, 0)
        busy_until[q] = level
        if level > depth:
            depth = level
    return depth


def cheapest(
    candidates: Iterable[tuple[list[int], int, tuple]], bits: int
) -> tuple[tuple, list[int]]:
    """Winning `(gates, levels, tiebreak)` key and code list among `(pending,
    dead, tiebreak)` triples: gate codes with `bits`-wide qubit fields among
    `dead` -1 tombstones, as `peephole.rewrite_pending` returns them. The
    rule: fewest gates, then fewest levels, then smallest tiebreak, the
    first of equal keys kept. Levels only break gate-count ties, so a
    candidate is filtered and its levels counted only when it has no more
    gates than the best so far."""
    best: tuple[tuple, list[int]] | None = None
    for pending, dead, tiebreak in candidates:
        count = len(pending) - dead
        if best is None or count <= best[0][0]:
            codes = [c for c in pending if c >= 0]
            key = (count, code_levels(codes, bits), tiebreak)
            if best is None or key < best[0]:
                best = key, codes
    if best is None:
        raise ValueError("no candidates to choose from")
    return best


def cost_report(circuit: Circuit) -> CostReport:
    return CostReport(gate_count(circuit), level_count(circuit))


def check_placement(perm: Sequence[int] | None, width: int, num_qubits: int) -> None:
    """Refuse `perm` unless it maps `num_qubits` wires to distinct targets in
    0..width-1. None is the identity, checked by the widths alone."""
    if perm is None:
        if num_qubits > width:
            raise ValueError(f"placement (identity on {num_qubits} qubits) outside 0..{width - 1}")
        return
    if len(perm) != num_qubits:
        raise ValueError(f"placement covers {len(perm)} qubits, circuit has {num_qubits}")
    if len(set(perm)) != len(perm):
        raise ValueError(f"placement is not injective: {tuple(perm)}")
    if any(not 0 <= p < width for p in perm):
        raise ValueError(f"placement {tuple(perm)} outside 0..{width - 1}")


# The one tolerance of every mapping check, the default wherever a check
# takes one. Only the dense check reads it.
VERIFY_TOL = 1e-8


def check_tolerance(tol: float) -> None:
    """Refuse an equivalence tolerance that is NaN, infinite or negative."""
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tolerance must be at least 0 and finite, got {tol!r}")


def relabel(circuit: Circuit, perm: Sequence[int], num_qubits: int | None = None) -> Circuit:
    """Rewrite every qubit index i to perm[i], keeping gate order.

    `perm` must assign a distinct target to every wire of the circuit. The
    result has `num_qubits` wires (default: just enough to hold the image).
    """
    width = max(perm, default=0) + 1 if num_qubits is None else num_qubits
    check_placement(perm, width, circuit.num_qubits)
    gates = tuple(Gate(g.kind, tuple(perm[q] for q in g.qubits)) for g in circuit.gates)
    return Circuit(width, gates)


def random_circuit(num_qubits: int, num_gates: int, rng: random.Random) -> Circuit:
    """Uniform random Clifford+T circuit, for property tests and self-checks."""
    kinds = tuple(GateKind) if num_qubits >= 2 else tuple(k for k in GateKind if k.arity == 1)
    gates = []
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        if kind.arity == 2:
            control, target = rng.sample(range(num_qubits), 2)
            gates.append(Gate(kind, (control, target)))
        else:
            gates.append(Gate(kind, (rng.randrange(num_qubits),)))
    return Circuit(num_qubits, tuple(gates))
