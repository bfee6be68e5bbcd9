"""Exact equivalence of H+CNOT circuits through their stabilizer tableaus.

A Clifford unitary U is fixed up to global phase by how it conjugates the
Pauli generators: the images U X_q U^dagger and U Z_q U^dagger, each a
signed Pauli string (Aaronson and Gottesman, quant-ph/0406196). Two circuits
are equivalent exactly when their tableaus are equal, so the check needs no
floating point, no tolerance and no width cap. It takes the gates a table
entry is built from, H and CNOT, and refuses any other kind.

The tableau is stored by column as Python ints used as bit sets over the 2n
generator rows (row q is the image of X_q, row n + q that of Z_q): per qubit
one mask of the rows with an X or Y on it and one of the rows with a Z or Y,
plus one mask of the rows whose sign is -1. Each gate updates every row at
once with a few bitwise operations.
"""
from __future__ import annotations

from .circuit import Circuit, GateKind


def _tableau(circuit: Circuit) -> tuple[list[int], list[int], int]:
    n = circuit.num_qubits
    xs = [1 << q for q in range(n)]
    zs = [1 << (n + q) for q in range(n)]
    sign = 0
    for g in circuit.gates:
        kind = g.kind
        if kind is GateKind.CNOT:
            a, b = g.qubits
            xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
            # r ^= x_a z_b (x_b ^ z_a ^ 1); masking by xa bounds the `~`.
            sign ^= xa & zb & ~(xb ^ za)
            xs[b] = xb ^ xa
            zs[a] = za ^ zb
        elif kind is GateKind.H:
            (q,) = g.qubits
            sign ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        else:
            raise ValueError(f"{kind.name} is neither H nor CNOT")
    return xs, zs, sign


def equivalent(c1: Circuit, c2: Circuit) -> bool:
    """True when the two H+CNOT circuits have equal unitaries up to global
    phase. Raises `ValueError` for unequal widths or any other gate kind."""
    if c1.num_qubits != c2.num_qubits:
        raise ValueError(f"circuits differ in width: {c1.num_qubits} and {c2.num_qubits}")
    return _tableau(c1) == _tableau(c2)
