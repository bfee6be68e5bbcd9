import hashlib
from itertools import permutations

import numpy as np
import pytest

import qxopt.circuit
import qxopt.realization
import realization_oracle
from qxopt.circuit import BLOCK_CODE, Circuit, GateKind, cnot, cnot_code, code_levels, decode
from qxopt.circuit import field_bits, gate1, gate1_code, gate_count
from qxopt.peephole import rewrite
from qxopt.placement import _index
from qxopt.realization import RealizationError, _candidates, _gate_ranks, _swap, build_table
from qxopt.realization import dump_text, lookup
from qxopt.simulator import equivalent, unitary_of
from qxopt.topology import allows, bfs, builtin, load
from test_placement import HEX_TEXT, K4_TEXT, LINE6_TEXT, STAR5_TEXT


def test_direct_edge_is_single_gate(qx2_table):
    assert lookup(qx2_table, 0, 1).total_gates == 1


def test_reversed_edge_is_hadamard_conjugation(qx2_table):
    entry = lookup(qx2_table, 1, 0)
    assert entry.total_gates == 5
    kinds = [g.kind for g in entry.sequence.gates]
    assert kinds == [GateKind.H, GateKind.H, GateKind.CNOT, GateKind.H, GateKind.H]
    # Dense oracle: the sequence must equal CNOT(1,0) on the full device.
    want = unitary_of(Circuit(5, (cnot(1, 0),)))
    got = unitary_of(entry.sequence)
    assert np.max(np.abs(want - got)) < 1e-12


def _h(q):
    return gate1(GateKind.H, q)


@pytest.mark.parametrize(
    "edges,a,b,expected",
    [
        ("0 1\n1 0\n", 0, 1, [cnot(0, 1), cnot(1, 0), cnot(0, 1)]),
        ("0 1\n1 0\n", 1, 0, [cnot(1, 0), cnot(0, 1), cnot(1, 0)]),
        ("0 1\n", 0, 1, [cnot(0, 1), _h(1), _h(0), cnot(0, 1), _h(1), _h(0), cnot(0, 1)]),
        ("0 1\n", 1, 0, [cnot(0, 1), _h(1), _h(0), cnot(0, 1), _h(1), _h(0), cnot(0, 1)]),
        ("1 0\n", 0, 1, [cnot(1, 0), _h(0), _h(1), cnot(1, 0), _h(0), _h(1), cnot(1, 0)]),
        ("1 0\n", 1, 0, [cnot(1, 0), _h(0), _h(1), cnot(1, 0), _h(0), _h(1), cnot(1, 0)]),
    ],
    ids=["two-way", "two-way-reversed", "forward", "forward-reversed", "reverse", "reverse-reversed"],
)
def test_swap_gates_are_pinned(edges, a, b, expected):
    bits = field_bits(2)
    assert [decode(c, bits) for c in _swap(load("qubits 2\n" + edges), a, b, bits)] == expected


def test_swap_of_non_adjacent_pair_raises():
    with pytest.raises(RealizationError, match="not adjacent"):
        _swap(load("qubits 3\n0 1\n1 2\n"), 0, 2, field_bits(3))


def test_qx2_distant_pair_within_paper_bound(qx2_table):
    assert lookup(qx2_table, 1, 4).total_gates <= 10


def test_qx4_entries(qx4_table):
    assert lookup(qx4_table, 2, 0).total_gates == 1
    assert lookup(qx4_table, 0, 2).total_gates == 5


def test_lookup_errors(qx2_table):
    with pytest.raises(ValueError):
        lookup(qx2_table, 0, 0)
    with pytest.raises(ValueError):
        lookup(qx2_table, 0, 9)


@pytest.mark.parametrize("arch", ["qx2", "qx4"])
def test_all_twenty_entries_sound_and_legal(arch, qx2_table, qx4_table):
    table = qx2_table if arch == "qx2" else qx4_table
    graph = table.graph
    assert len(table.entries) == 20
    for (control, target), entry in table.entries.items():
        plain = Circuit(5, (cnot(control, target),))
        assert equivalent(plain, entry.sequence, tol=1e-9), (control, target)
        for g in entry.sequence.gates:
            if g.kind is GateKind.CNOT:
                assert allows(graph, *g.qubits), (control, target, g)
        assert entry.total_gates == gate_count(entry.sequence)


@pytest.mark.parametrize("arch", ["qx2", "qx4"])
def test_cost_floors_and_distance_trend(arch, qx2_table, qx4_table):
    table = qx2_table if arch == "qx2" else qx4_table
    graph = table.graph
    by_distance: dict[int, list[int]] = {}
    for (control, target), entry in table.entries.items():
        d = bfs(graph, control)[target]
        by_distance.setdefault(d, []).append(entry.total_gates)
        if allows(graph, control, target):
            assert entry.total_gates == 1
        elif allows(graph, target, control):
            assert entry.total_gates <= 5
    # The cheapest realization cannot get cheaper with distance.
    ds = sorted(by_distance)
    for lo, hi in zip(ds, ds[1:]):
        assert min(by_distance[lo]) <= min(by_distance[hi])


def test_build_is_deterministic():
    a = build_table(builtin("qx2"), verify=False)
    b = build_table(builtin("qx2"), verify=False)
    assert a.entries == b.entries


def test_build_rejects_disconnected_by_construction():
    # Disconnected graphs cannot even be constructed.
    with pytest.raises(ValueError, match="not connected"):
        load("qubits 4\n0 1\n2 3\n")


def test_build_refuses_an_entry_with_an_illegal_cnot(monkeypatch):
    # The plain CNOT is the cheapest candidate and implements its CNOT
    # exactly, so only the legality check can refuse it.
    monkeypatch.setattr(
        qxopt.realization,
        "_candidates",
        lambda graph, control, target: [[cnot_code(control, target, field_bits(graph.num_physical))]],
    )
    with pytest.raises(RealizationError) as info:
        build_table(builtin("qx2"))
    assert str(info.value) == "entry (0,3) uses illegal CNOT(0, 3)"


def test_line_graph_long_distance_entry_sound():
    # One-directional 4-qubit line; the (0,3) pair needs swaps plus a ladder.
    graph = load("qubits 4\n0 1\n1 2\n2 3\n")
    table = build_table(graph)
    entry = lookup(table, 0, 3)
    assert equivalent(Circuit(4, (cnot(0, 3),)), entry.sequence, tol=1e-9)
    assert entry.total_gates >= lookup(table, 0, 2).total_gates


def test_dump_text_lists_every_pair_with_cost(qx2_table):
    text = dump_text(qx2_table)
    assert "cnot q[1],q[4]: gates=" in text
    assert text.count("cnot q[") == 20
    assert "cx q[0],q[1];" in text


def test_build_counts_levels_only_for_gate_count_ties(monkeypatch):
    counted = []

    def counting_code_levels(codes, bits):
        counted.append(len(codes))
        return code_levels(codes, bits)

    monkeypatch.setattr(qxopt.circuit, "code_levels", counting_code_levels)
    graph = builtin("qx2")
    build_table(graph)
    candidates = sum(len(_candidates(graph, c, t)) for c in range(5) for t in range(5) if c != t)
    assert 0 < len(counted) < candidates


def _ring(n: int, chords: str = "", reversed_edges: frozenset = frozenset()) -> str:
    edges = [(q, (q + 1) % n) for q in range(n)]
    edges = [(b, a) if i in reversed_edges else (a, b) for i, (a, b) in enumerate(edges)]
    return f"qubits {n}\n" + "".join(f"{a} {b}\n" for a, b in edges) + chords


DIFFERENTIAL_DEVICES = {
    "qx2": lambda: builtin("qx2"),
    "qx4": lambda: builtin("qx4"),
    "line8": lambda: load("qubits 8\n" + "".join(f"{q} {q + 1}\n" for q in range(7)), name="line8"),
    "ring6-chord": lambda: load(_ring(6, "0 3\n"), name="ring6"),
    "ring7-mixed": lambda: load(_ring(7, reversed_edges=frozenset({1, 3, 4})), name="ring7"),
    "grid3x3": lambda: load(
        "qubits 9\n"
        + "".join(f"{q} {q + 1}\n" for q in range(9) if q % 3 != 2)
        + "".join(f"{q} {q + 3}\n" for q in range(6)),
        name="grid3x3",
    ),
    # The 2x4 ladder the benchmark maps onto: rails and rungs alternate direction.
    "ladder8": lambda: load(
        "qubits 8\n# rails\n0 1\n2 1\n2 3\n4 5\n6 5\n6 7\n# rungs\n0 4\n5 1\n2 6\n7 3\n",
        name="ladder8",
    ),
}


@pytest.mark.parametrize("device", sorted(DIFFERENTIAL_DEVICES))
def test_build_table_matches_hand_written_generator(device):
    graph = DIFFERENTIAL_DEVICES[device]()
    table = build_table(graph)
    got = [
        (pair, entry.sequence.gates, entry.total_gates, entry.levels)
        for pair, entry in table.entries.items()
    ]
    assert got == realization_oracle.build_entries(graph)


@pytest.mark.parametrize(
    "device,digest",
    [
        ("qx2", "6049de64dc08507dbc9327d9b32a3b57d95d7a3fb6de7d7caccaf6f6bffd547a"),
        ("qx4", "fd13ba1e87822cac467d5b1a8b277915cf7835743e303672d41c675960622f60"),
        ("ladder8", "bc159f8449a8c4f8fafc40b064c213e842708f2eb87a5f894dfa4d3f7677be60"),
    ],
)
def test_dump_text_is_pinned(device, digest):
    text = dump_text(build_table(DIFFERENTIAL_DEVICES[device]()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("device", ["qx2", "qx4", "ladder8"])
def test_rank_lookup_gives_the_per_candidate_tiebreak(device):
    # One lookup per build replaced a key computed per candidate: both give
    # the same key for every candidate, raw and rewritten.
    graph = DIFFERENTIAL_DEVICES[device]()
    n = graph.num_physical
    bits = field_bits(n)
    rank = _gate_ranks(n, bits)
    for control, target in permutations(range(n), 2):
        for codes in _candidates(graph, control, target):
            for run in (codes, rewrite(codes, bits)):
                assert tuple(map(rank.__getitem__, run)) == realization_oracle.tiebreak(run, bits)


@pytest.mark.parametrize("device,distinct", [("qx2", 44), ("qx4", 44), ("ladder8", 412)])
def test_candidates_are_each_tried_once(device, distinct):
    # The constructions give these many code lists, and no two of one pair
    # are alike.
    graph = DIFFERENTIAL_DEVICES[device]()
    total = 0
    for control, target in permutations(range(graph.num_physical), 2):
        runs = list(map(tuple, _candidates(graph, control, target)))
        assert len(set(runs)) == len(runs)
        total += len(runs)
    assert total == distinct


@pytest.mark.parametrize("device,built", [("qx2", 44), ("qx4", 44), ("ladder8", 412)])
def test_candidate_lists_are_built_once(device, built, monkeypatch):
    # The reverse walk builds no construction without a SWAP, which would
    # repeat the forward walk's.
    calls = []
    conjugated = qxopt.realization._conjugated

    def counting(*args):
        calls.append(args)
        return conjugated(*args)

    monkeypatch.setattr(qxopt.realization, "_conjugated", counting)
    build_table(DIFFERENTIAL_DEVICES[device](), verify=False)
    assert len(calls) == built


FORM_DEVICES = {
    **DIFFERENTIAL_DEVICES,
    "line6": lambda: load(LINE6_TEXT, name="line6"),
    "hex": lambda: load(HEX_TEXT, name="hex"),
}


@pytest.mark.parametrize("device", sorted(FORM_DEVICES))
def test_table_carries_its_entries_as_codes_and_blocks(device):
    # The search's index of the table, `[control][target]`: the entry's
    # gate codes, the same codes led by a block marker when the entry has
    # two or more gates, and the bit mask of the qubits the entry acts on;
    # blocks are numbered in row order.
    table = build_table(FORM_DEVICES[device](), verify=False)
    n = table.graph.num_physical
    bits = field_bits(n)
    entry_codes, entry_rows, entry_blocks, _, entry_touches = _index(table)
    blocks = 0
    for control in range(n):
        for target in range(n):
            codes = entry_codes[control][target]
            marked = entry_rows[control][target]
            if control == target:
                assert codes == marked == []
                assert entry_touches[control][target] == 0
                continue
            gates = table.entries[(control, target)].sequence.gates
            assert tuple(decode(c, bits) for c in codes) == gates
            assert entry_touches[control][target] == sum({1 << q for g in gates for q in g.qubits})
            if len(codes) >= 2:
                assert marked == [BLOCK_CODE | blocks << 4] + codes
                blocks += 1
            else:
                assert marked == codes
    assert len(entry_blocks) == blocks


def _relabeled(codes, sigma, bits):
    gates = [decode(c, bits) for c in codes]
    return [
        cnot_code(sigma[g.qubits[0]], sigma[g.qubits[1]], bits)
        if g.kind is GateKind.CNOT
        else gate1_code(g.kind, sigma[g.qubits[0]])
        for g in gates
    ]


def _moved_entries(table, sigma):
    """How many entries, each qubit q relabeled sigma[q], differ from the
    entry of their image pair."""
    n = table.graph.num_physical
    bits = field_bits(n)
    codes = _index(table)[0]
    return sum(
        _relabeled(codes[c][t], sigma, bits) != codes[sigma[c]][sigma[t]]
        for c, t in permutations(range(n), 2)
    )


SYMMETRY_DEVICES = {
    "qx2": lambda: builtin("qx2"),
    "qx4": lambda: builtin("qx4"),
    "ladder8": DIFFERENTIAL_DEVICES["ladder8"],
    # Its three rotations keep every edge, but each maps two entries onto a
    # different tie-break.
    "ring4": lambda: load(_ring(4), name="ring4"),
    # Its reflection keeps every edge, but moves 12 entries.
    "line5-both": lambda: load(
        "qubits 5\n" + "".join(f"{q} {q + 1}\n{q + 1} {q}\n" for q in range(4)), name="line5"
    ),
    "star5": lambda: load(STAR5_TEXT, name="star5"),
    "k4": lambda: load(K4_TEXT, name="k4"),
}


@pytest.mark.parametrize(
    "device,symmetries",
    [
        ("qx2", ((4, 3, 2, 1, 0),)),
        ("qx4", ()),
        ("ladder8", ()),
        ("ring4", ()),
        ("line5-both", ()),
    ],
)
def test_symmetries_are_pinned(device, symmetries):
    assert _index(build_table(SYMMETRY_DEVICES[device]()))[3] == symmetries


@pytest.mark.parametrize("device,moved", [("ring4", 2), ("line5-both", 12)])
def test_graph_automorphisms_that_move_entries_are_no_symmetries(device, moved):
    table = build_table(SYMMETRY_DEVICES[device]())
    n = table.graph.num_physical
    edges = table.graph.edges
    automorphisms = [
        sigma
        for sigma in permutations(range(n))
        if sigma != tuple(range(n)) and {(sigma[a], sigma[b]) for a, b in edges} == edges
    ]
    assert automorphisms
    assert [_moved_entries(table, sigma) for sigma in automorphisms] == [moved] * len(automorphisms)


# Every device above of at most 6 qubits, with its number of symmetries.
_SMALL_DEVICES = {
    "qx2": 1,
    "qx4": 0,
    "ring4": 0,
    "line5-both": 0,
    "star5": 23,
    "k4": 23,
    "ring6-chord": 0,
    "line6": 0,
    "hex": 0,
}


@pytest.mark.parametrize("device,count", sorted(_SMALL_DEVICES.items()), ids=sorted(_SMALL_DEVICES))
def test_kept_symmetries_are_the_first_of_each_prefix_and_image(device, count):
    # Of the symmetries that a brute force over all n! permutations finds,
    # one per qubit i and image j > i is kept: the smallest that fixes
    # qubits 0..i-1 and sends i to j.
    table = build_table({**FORM_DEVICES, **SYMMETRY_DEVICES}[device]())
    n = table.graph.num_physical
    every = [
        sigma
        for sigma in permutations(range(n))
        if sigma != tuple(range(n)) and _moved_entries(table, sigma) == 0
    ]
    assert len(every) == count
    first = {}
    for sigma in every:
        i = next(q for q in range(n) if sigma[q] != q)
        first.setdefault((i, sigma[i]), sigma)
    kept = _index(table)[3]
    assert len(kept) <= n * (n - 1) // 2
    assert sorted(kept) == sorted(first.values())
    for sigma in kept:
        i = next(q for q in range(n) if sigma[q] != q)
        assert sigma[:i] == tuple(range(i)) and sigma[i] > i
        assert _moved_entries(table, sigma) == 0
