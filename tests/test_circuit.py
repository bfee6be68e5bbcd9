import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qxopt import pathsum
from qxopt.circuit import (
    Circuit,
    CostReport,
    Gate,
    GateKind,
    cnot,
    cnot_code,
    decode,
    decode_all,
    encode,
    field_bits,
    gate1,
    gate_count,
    inverse_of,
    level_count,
    random_circuit,
    relabel,
)
from qxopt.fixtures import load_circuit
from qxopt.pathsum import proves_equal
from qxopt.placement import cost_of
from qxopt.simulator import equivalent, unitary_of


def test_gate_arity_enforced():
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (2,))


def test_gate_rejects_duplicate_qubits():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (1, 1))


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(ValueError):
        Circuit(2, (gate1(GateKind.H, 2),))


def test_empty_circuit_is_valid_identity():
    c = Circuit(1)
    assert gate_count(c) == 0
    assert level_count(c) == 0


def test_gate_count_of_simple_list():
    c = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1), gate1(GateKind.T, 1)))
    assert gate_count(c) == 3


def test_gate_count_mermin_fixture_is_twelve():
    assert gate_count(load_circuit("mermin_xxy_unopt")) == 12


def test_level_count_disjoint_gates_share_a_level():
    assert level_count(Circuit(2, (gate1(GateKind.H, 0), gate1(GateKind.H, 1)))) == 1


def test_level_count_same_qubit_serializes():
    assert level_count(Circuit(1, (gate1(GateKind.H, 0), gate1(GateKind.H, 0)))) == 2


def test_level_count_chain_through_cnot():
    # ASAP by hand: H0 at level 1, the CNOT waits for q0 (level 2),
    # H1 waits for the CNOT (level 3).
    c = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1), gate1(GateKind.H, 1)))
    assert level_count(c) == 3


def _oracle_levels(c: Circuit) -> int:
    # Independent ASAP schedule: simulate per-qubit clocks directly.
    clock = [0] * c.num_qubits
    depth = 0
    for g in c.gates:
        t = max(clock[q] for q in g.qubits) + 1
        for q in g.qubits:
            clock[q] = t
        depth = max(depth, t)
    return depth


@given(st.integers(0, 400))
def test_level_count_matches_oracle_on_random_circuits(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 5), rng.randint(0, 30), rng)
    assert level_count(c) == _oracle_levels(c)
    assert level_count(c) <= gate_count(c)


@given(st.integers(0, 400), st.sampled_from([(0, 1, 2, 3), (0, 1, 255, 256), (5, 65_535, 65_536, 70_000)]))
def test_gate_codes_round_trip_and_count_levels_on_wide_wires(seed, wires):
    rng = random.Random(seed)
    c = relabel(random_circuit(4, rng.randint(0, 30), rng), wires, 70_001)
    bits = field_bits(c.num_qubits)
    assert bits == 17
    assert [decode(code, bits) for code in encode(c.gates, bits)] == list(c.gates)
    assert level_count(c) == _oracle_levels(c)


def test_field_bits_cover_every_wire():
    assert field_bits(1) == 1
    for width in (2, 3, 4, 5, 8, 9, 256, 257, 70_000, 2**40 + 1):
        bits = field_bits(width)
        assert 1 << bits - 1 < width <= 1 << bits
        gates = [cnot(width - 1, 0), gate1(GateKind.TDG, width - 1)]
        assert [decode(code, bits) for code in encode(gates, bits)] == gates


@given(st.integers(1, 4), st.integers(0, 10_000))
def test_decode_all_decodes_each_distinct_code_once(bits, seed):
    # A small pool of codes drawn with repeats, so that most codes recur.
    rng = random.Random(seed)
    pool = encode(random_circuit(1 << bits, rng.randint(1, 6), rng).gates, bits)
    codes = [rng.choice(pool) for _ in range(rng.randint(0, 40))]
    gates = decode_all(codes, bits)
    assert gates == tuple(decode(c, bits) for c in codes)
    assert len({id(g) for g in gates}) == len(set(codes))


def _count_gate_checks(monkeypatch):
    """The argument tuples of every `Gate.__init__` call from now on."""
    calls = []
    init = Gate.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Gate, "__init__", counting)
    return calls


def test_decode_checks_only_the_codes_of_no_valid_gate(monkeypatch):
    bits = 3
    rng = random.Random(5)
    codes = encode(random_circuit(8, 60, rng).gates, bits)
    calls = _count_gate_checks(monkeypatch)
    # Every code `encode` makes decodes without `Gate`'s checks ...
    gates = decode_all(codes, bits)
    assert calls == [] and encode(gates, bits) == codes
    # ... and copy and pickle still rebuild through them.
    assert copy.copy(gates[0]) == pickle.loads(pickle.dumps(gates[0])) == gates[0]
    assert len(calls) == 2
    # A CNOT on one qubit twice and a negative code are refused by them.
    with pytest.raises(ValueError, match="duplicate qubit"):
        decode(cnot_code(2, 2, bits), bits)
    for code in (-15, -8):
        with pytest.raises(ValueError, match="negative qubit"):
            decode(code, bits)
    assert len(calls) == 5


@given(st.integers(0, 200), st.integers(0, 200))
def test_level_count_subadditive_under_concat(seed_a, seed_b):
    rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
    a = random_circuit(4, rng_a.randint(0, 15), rng_a)
    b = random_circuit(4, rng_b.randint(0, 15), rng_b)
    assert level_count(Circuit(4, a.gates + b.gates)) <= level_count(a) + level_count(b)


def test_inverse_of_covers_whole_gate_set():
    assert inverse_of(GateKind.H) is GateKind.H
    assert inverse_of(GateKind.X) is GateKind.X
    assert inverse_of(GateKind.Y) is GateKind.Y
    assert inverse_of(GateKind.Z) is GateKind.Z
    assert inverse_of(GateKind.S) is GateKind.SDG
    assert inverse_of(GateKind.SDG) is GateKind.S
    assert inverse_of(GateKind.T) is GateKind.TDG
    assert inverse_of(GateKind.TDG) is GateKind.T
    assert inverse_of(GateKind.CNOT) is GateKind.CNOT


def test_relabel_identity_returns_identical_circuit():
    c = Circuit(2, (cnot(0, 1), gate1(GateKind.T, 0)))
    assert relabel(c, [0, 1]) == c


def test_relabel_worked_example():
    c = Circuit(2, (cnot(0, 1),))
    mapped = relabel(c, [0, 1], num_qubits=5)
    assert mapped.gates == (cnot(0, 1),)
    assert mapped.num_qubits == 5


def test_relabel_rejects_non_injective_and_out_of_range():
    c = Circuit(2, (cnot(0, 1),))
    with pytest.raises(ValueError):
        relabel(c, [0, 0])
    with pytest.raises(ValueError):
        relabel(c, [0, 7], num_qubits=5)


@pytest.mark.parametrize(
    "perm,message",
    [
        ((0,), "placement covers 1 qubits, circuit has 2"),
        ((1, 1), r"placement is not injective: \(1, 1\)"),
        ((-1, 2), r"placement \(-1, 2\) outside 0..4"),
        ((0, 5), r"placement \(0, 5\) outside 0..4"),
        (None, r"placement \(identity on 100000 qubits\) outside 0..4"),
    ],
)
def test_every_placement_caller_refuses_with_one_message(perm, message, qx2_table):
    # With no placement, a circuit far wider than the device: the refusal
    # must come before the identity placement is spelled out.
    c = Circuit(2, (cnot(0, 1),)) if perm is not None else Circuit(100000)
    callers = (
        lambda: relabel(c, perm, 5),
        lambda: cost_of(c, perm, qx2_table),
        lambda: equivalent(c, Circuit(5), perm),
        lambda: proves_equal(c, Circuit(5), perm),
        lambda: pathsum.equivalent(c, Circuit(5), perm),
    )
    texts = set()
    for call in callers:
        with pytest.raises(ValueError, match=message) as info:
            call()
        texts.add(str(info.value))
    assert len(texts) == 1
    assert len(texts.pop().encode()) < 200


@given(st.integers(0, 200))
def test_relabel_roundtrip_and_cost_preservation(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    c = random_circuit(n, rng.randint(0, 20), rng)
    perm = list(range(n))
    rng.shuffle(perm)
    mapped = relabel(c, perm)
    assert gate_count(mapped) == gate_count(c)
    assert level_count(mapped) == level_count(c)
    inverse = [0] * n
    for logical, physical in enumerate(perm):
        inverse[physical] = logical
    assert relabel(mapped, inverse) == c


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabel_conjugates_unitary_by_permutation(seed):
    rng = random.Random(seed)
    n = 3
    c = random_circuit(n, 10, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    # Permutation-matrix oracle built from its action on basis states.
    dim = 2**n
    p = np.zeros((dim, dim))
    for x in range(dim):
        y = 0
        for j in range(n):
            y |= ((x >> j) & 1) << perm[j]
        p[y, x] = 1.0
    left = unitary_of(relabel(c, perm))
    right = p @ unitary_of(c) @ p.T
    assert np.max(np.abs(left - right)) < 1e-10


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Gate(GateKind.H, (-1,)), "negative qubit index: (-1,)"),
        (lambda: Circuit(0), "num_qubits must be positive"),
        (
            lambda: Circuit(2, (gate1(GateKind.H, 3),)),
            "gate Gate(kind=<GateKind.H: 'h'>, qubits=(3,)) uses qubit 3 >= num_qubits 2",
        ),
        (lambda: CostReport(gates=-1, levels=0), "costs must be non-negative"),
    ],
    ids=["negative-qubit", "no-qubits", "qubit-out-of-range", "negative-cost"],
)
def test_constructors_pin_each_refusal(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_cost_report_invariants():
    with pytest.raises(ValueError):
        CostReport(gates=2, levels=3)
    with pytest.raises(ValueError):
        CostReport(gates=0, levels=1)
    with pytest.raises(ValueError):
        CostReport(gates=1, levels=0)
