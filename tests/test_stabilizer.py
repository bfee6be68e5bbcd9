import random

import pytest
from hypothesis import given, settings, strategies as st

from qxopt import realization, stabilizer
from qxopt.circuit import Circuit, Gate, GateKind, cnot, gate1, inverse_of, relabel
from qxopt.realization import RealizationError, build_table, dump_text
from qxopt.simulator import equivalent as dense_equivalent
from qxopt.topology import builtin, load

# The kinds a realization-table entry is built from, the only ones the
# tableau takes.
_TABLE_KINDS = (GateKind.H, GateKind.CNOT)


def _random_gate(n: int, rng: random.Random) -> Gate:
    kinds = _TABLE_KINDS if n >= 2 else _TABLE_KINDS[:1]
    kind = rng.choice(kinds)
    if kind is GateKind.CNOT:
        return cnot(*rng.sample(range(n), 2))
    return gate1(kind, rng.randrange(n))


def _random_h_cnot(n: int, size: int, rng: random.Random) -> Circuit:
    return Circuit(n, tuple(_random_gate(n, rng) for _ in range(size)))


def _inverse(c: Circuit) -> Circuit:
    return Circuit(c.num_qubits, tuple(Gate(inverse_of(g.kind), g.qubits) for g in reversed(c.gates)))


def _rewritten(c: Circuit) -> Circuit:
    """Each gate as a different sequence with the same unitary: a CNOT
    reversed between H pairs, an H as three."""
    out: list[Gate] = []
    for g in c.gates:
        if g.kind is GateKind.CNOT:
            a, b = g.qubits
            hh = [gate1(GateKind.H, a), gate1(GateKind.H, b)]
            out += hh + [cnot(b, a)] + hh
        else:
            out += [g, g, g]
    return Circuit(c.num_qubits, tuple(out))


def _swap_moved(c: Circuit, a: int, b: int) -> tuple[Circuit, Circuit]:
    """c then SWAP(a, b), and SWAP(a, b) then c with a and b exchanged."""
    swap = (cnot(a, b), cnot(b, a), cnot(a, b))
    perm = list(range(c.num_qubits))
    perm[a], perm[b] = b, a
    moved = relabel(c, perm, c.num_qubits)
    return Circuit(c.num_qubits, c.gates + swap), Circuit(c.num_qubits, swap + moved.gates)


def _pairs(seed: int) -> list[tuple[Circuit, Circuit]]:
    """Equal pairs (c against c d d^-1, gate-by-gate rewrites, a SWAP moved
    through the circuit), relabeled copies, and single-gate mutations, most
    of which change the unitary."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    c = _random_h_cnot(n, rng.randint(0, 25), rng)
    d = _random_h_cnot(n, rng.randint(1, 10), rng)
    padded = Circuit(n, c.gates + d.gates + _inverse(d).gates)
    perm = rng.sample(range(n), n)
    pairs = [(c, padded), (c, relabel(c, perm, n)), (padded, relabel(padded, perm, n))]
    pairs += [(c, _rewritten(c)), (relabel(c, perm, n), _rewritten(c))]
    if n >= 2:
        pairs.append(_swap_moved(c, *rng.sample(range(n), 2)))
    for base in (c, padded):
        gates = list(base.gates)
        if not gates:
            continue
        i = rng.randrange(len(gates))
        mutations = [
            gates[:i] + gates[i + 1 :],  # deleted
            gates[:i] + [_random_gate(n, rng)] + gates[i + 1 :],  # replaced
            gates[:i] + [_random_gate(n, rng)] + gates[i:],  # inserted
        ]
        pairs += [(base, Circuit(n, tuple(m))) for m in mutations]
    return pairs


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 100_000))
def test_verdicts_match_dense_simulator(seed):
    for c1, c2 in _pairs(seed):
        want = dense_equivalent(c1, c2, tol=1e-9)
        assert stabilizer.equivalent(c1, c2) == want, (c1, c2)
        assert stabilizer.equivalent(c2, c1) == want, (c1, c2)


def test_signs_and_phases_distinguish_single_gates():
    h0, h1, empty = Circuit(2, (gate1(GateKind.H, 0),)), Circuit(2, (gate1(GateKind.H, 1),)), Circuit(2)
    cases = [h0, h1, empty, Circuit(2, (cnot(0, 1),)), Circuit(2, (cnot(1, 0),))]
    for a in cases:
        for b in cases:
            assert stabilizer.equivalent(a, b) == (a is b), (a, b)
    # (H q0; CX q0,q1) four times is X on q1: the identity's X and Z images,
    # but not its signs. A breadth-first walk of the 1,152 two-qubit H+CNOT
    # tableaus meets no such element in fewer gates.
    x1 = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1)) * 4)
    assert stabilizer._tableau(x1)[:2] == stabilizer._tableau(empty)[:2]
    assert not stabilizer.equivalent(x1, empty)
    assert not dense_equivalent(x1, empty, tol=1e-9)
    # Global phase is ignored: X then H X H, twice, is (Z X)^2 = -I on q1.
    zx = x1.gates + h1.gates + x1.gates + h1.gates
    minus_identity = Circuit(2, zx * 2)
    assert stabilizer.equivalent(minus_identity, empty)
    assert dense_equivalent(minus_identity, empty, tol=1e-9)


@pytest.mark.parametrize("kind", [k for k in GateKind if k not in _TABLE_KINDS])
def test_non_clifford_gate_raises(kind):
    # The tableau takes only the kinds a table entry holds, so it refuses
    # the other Clifford kinds as it refuses T and TDG.
    c = Circuit(2, (cnot(0, 1), gate1(kind, 1)))
    with pytest.raises(ValueError, match=f"^{kind.name} is neither H nor CNOT$"):
        stabilizer.equivalent(c, c)
    with pytest.raises(ValueError, match="neither H nor CNOT"):
        stabilizer.equivalent(Circuit(2), c)


def test_unequal_widths_raise():
    with pytest.raises(ValueError, match="differ in width"):
        stabilizer.equivalent(Circuit(2), Circuit(3))


def test_realization_binds_the_tableau_check():
    # Table verification is reached through this module-level name.
    assert realization.equivalent is stabilizer.equivalent


def _line(n: int):
    return load(f"qubits {n}\n" + "".join(f"{q} {q + 1}\n" for q in range(n - 1)), name=f"line{n}")


@pytest.mark.parametrize(
    "make_graph,pair",
    [(lambda: builtin("qx4"), (0, 3)), (lambda: _line(12), (0, 11))],
    ids=["qx4", "line12"],
)
def test_corrupted_entry_is_rejected(make_graph, pair, monkeypatch):
    graph = make_graph()
    original = realization._candidates

    def drop_last_gate(g, control, target):
        out = original(g, control, target)
        return [c[:-1] for c in out] if (control, target) == pair else out

    monkeypatch.setattr(realization, "_candidates", drop_last_gate)
    assert build_table(graph, verify=False).entries  # construction alone succeeds
    with pytest.raises(RealizationError, match=rf"entry \({pair[0]},{pair[1]}\) does not implement"):
        build_table(graph)


def test_wide_device_table_is_verified_and_unchanged():
    # Twelve qubits is past the dense cap; the tableau check covers it.
    graph = _line(12)
    assert dump_text(build_table(graph)) == dump_text(build_table(graph, verify=False))
