import copy
import pickle
import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import qxopt.circuit
import qxopt.peephole
import qxopt.placement
import search_oracle
from qxopt.circuit import Circuit, CostReport, GateKind, cnot, code_levels, encode
from qxopt.circuit import field_bits, gate1, random_circuit
from qxopt.fixtures import CIRCUITS, load_circuit
from qxopt.peephole import rewrite_pending
from qxopt.placement import _mapper, _placements, check_search_limit
from qxopt.placement import cost_of, optimize, percent_reduction
from qxopt.realization import RealizationEntry, RealizationTable, build_table
from qxopt.simulator import equivalent
from qxopt.topology import CouplingGraph, allows, builtin, load

TWO_CNOTS = Circuit(3, (cnot(0, 1), cnot(1, 2)))  # CNOT(a,b); CNOT(b,c)


def test_worked_example_qx2(qx2_table):
    result = optimize(TWO_CNOTS, qx2_table)
    assert result.final_cost.gates == 2
    assert result.placement == (0, 1, 2)
    assert cost_of(TWO_CNOTS, (0, 1, 2), qx2_table).gates == 2


def test_worked_example_qx4(qx4_table):
    result = optimize(TWO_CNOTS, qx4_table)
    assert result.final_cost.gates == 2
    # The published mapping {a->Q3, b->Q2, c->Q0} is among the optima.
    assert cost_of(TWO_CNOTS, (3, 2, 0), qx4_table).gates == 2
    assert cost_of(TWO_CNOTS, result.placement, qx4_table).gates == 2


def test_single_gate_circuit_needs_no_routing(qx2_table):
    result = optimize(Circuit(1, (gate1(GateKind.H, 0),)), qx2_table)
    assert result.final_cost == CostReport(1, 1)
    assert result.reduction_pct == (0, 0)


def test_empty_circuit_cost(qx2_table):
    assert cost_of(Circuit(2), (0, 1), qx2_table) == CostReport(0, 0)


def test_adversarial_placement_is_expensive(qx2_table):
    assert cost_of(TWO_CNOTS, (1, 4, 0), qx2_table).gates >= 11


def test_optimize_result_never_beaten_by_any_placement(qx4_table):
    rng = random.Random(3)
    circuit = random_circuit(3, 12, rng)
    best = optimize(circuit, qx4_table)
    best_key = (best.final_cost.gates, best.final_cost.levels)
    for placement in permutations(range(5), 3):
        cost = cost_of(circuit, placement, qx4_table)
        assert best_key <= (cost.gates, cost.levels)


def test_mapped_circuit_is_legal_and_equivalent(qx2_table):
    rng = random.Random(17)
    for _ in range(10):
        circuit = random_circuit(rng.randint(2, 5), rng.randint(1, 20), rng)
        result = optimize(circuit, qx2_table)
        assert equivalent(circuit, result.mapped, list(result.placement), tol=1e-8)
        for g in result.mapped.gates:
            if g.kind is GateKind.CNOT:
                assert allows(qx2_table.graph, *g.qubits)


def test_optimize_is_deterministic(qx4_table):
    rng = random.Random(23)
    circuit = random_circuit(4, 15, rng)
    first = optimize(circuit, qx4_table)
    second = optimize(circuit, qx4_table)
    assert first == second


def test_circuit_wider_than_device_rejected(qx2_table):
    with pytest.raises(ValueError, match="device"):
        optimize(Circuit(6), qx2_table)


def test_search_limit_enforced_and_named():
    line9 = load("qubits 9\n" + "".join(f"{q} {q + 1}\n" for q in range(8)), name="line9")
    with pytest.raises(ValueError, match="exhaustive search is limited to 8"):
        optimize(Circuit(2), build_table(line9, verify=False))


def test_search_limit_checked_on_the_graph_alone():
    check_search_limit(builtin("qx2"))
    grid = load("qubits 9\n" + "\n".join(f"{q} {q + 1}" for q in range(8)))
    with pytest.raises(ValueError, match="exhaustive search is limited to 8"):
        check_search_limit(grid)


def test_cost_of_validates_placement(qx2_table):
    with pytest.raises(ValueError):
        cost_of(TWO_CNOTS, (0, 0, 1), qx2_table)
    with pytest.raises(ValueError):
        cost_of(TWO_CNOTS, (0, 1), qx2_table)
    with pytest.raises(ValueError):
        cost_of(TWO_CNOTS, (0, 1, 7), qx2_table)


def test_percent_reduction_rounds_half_up_and_allows_negative():
    assert percent_reduction(CostReport(3, 2), CostReport(1, 1)) == (67, 50)
    assert percent_reduction(CostReport(12, 7), CostReport(4, 3)) == (67, 57)
    # Growth comes out negative, mirroring published tables.
    assert percent_reduction(CostReport(20, 7), CostReport(26, 8)) == (-30, -14)


def test_reduction_percentages_in_result(qx2_table):
    result = optimize(Circuit(3, (cnot(0, 1), cnot(0, 1))), qx2_table)
    # The pair cancels entirely under some placement.
    assert result.final_cost.gates == 0
    assert result.reduction_pct == (100, 100)


# A 6-qubit ring with one chord: one pair coupled in both directions, the
# rest in one direction, and pairs up to three apart.
HEX_TEXT = """qubits 6
0 1
1 0
1 2
3 2
3 4
4 5
5 0
1 4
"""


@pytest.fixture(scope="module")
def hex_table():
    return build_table(load(HEX_TEXT, name="hex"))


@pytest.fixture(scope="module")
def tables(qx2_table, qx4_table, hex_table):
    return {"qx2": qx2_table, "qx4": qx4_table, "hex": hex_table}


def _circuit(num_qubits, ops):
    """ops: (kind, qubit, qubit) triples, qubits taken modulo the width;
    a CNOT whose two qubits coincide is skipped."""
    gates = []
    for kind, a, b in ops:
        a, b = a % num_qubits, b % num_qubits
        if kind is GateKind.CNOT:
            if a != b:
                gates.append(cnot(a, b))
        else:
            gates.append(gate1(kind, a))
    return Circuit(num_qubits, tuple(gates))


_ONE_QUBIT_KINDS = [k for k in GateKind if k is not GateKind.CNOT]
_OP = st.tuples(st.sampled_from(list(GateKind)), st.integers(0, 3), st.integers(0, 3))
_ONE_QUBIT_OP = st.tuples(st.sampled_from(_ONE_QUBIT_KINDS), st.integers(0, 3), st.just(0))


def _assert_matches_eager_oracle(circuit, table):
    assert optimize(circuit, table) == search_oracle.optimize(circuit, table)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["qx2", "qx4", "hex"]), st.integers(1, 4), st.lists(_OP, max_size=14))
def test_optimize_matches_eager_oracle(tables, arch, width, ops):
    _assert_matches_eager_oracle(_circuit(width, ops), tables[arch])


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["qx2", "qx4", "hex"]),
    st.integers(1, 4),
    st.lists(_ONE_QUBIT_OP, max_size=10),
)
def test_optimize_matches_eager_oracle_on_one_qubit_circuits(tables, arch, width, ops):
    # Every placement ties on gates and levels; the placement order decides.
    circuit = _circuit(width, ops)
    result = optimize(circuit, tables[arch])
    assert result == search_oracle.optimize(circuit, tables[arch])
    assert result.placement == tuple(range(width))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["qx2", "qx4", "hex"]),
    st.integers(2, 4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3),
    st.lists(_ONE_QUBIT_OP, max_size=6),
)
def test_optimize_matches_eager_oracle_on_gate_count_ties(tables, arch, width, pairs, ops):
    # Each CNOT appears twice in a row and cancels under every placement
    # that puts its qubits on neighbours, so many placements tie at the
    # fewest gates; levels and the placement order decide.
    doubled = [(GateKind.CNOT, a, b) for a, b in pairs for _ in range(2)]
    _assert_matches_eager_oracle(_circuit(width, ops + doubled + ops), tables[arch])


# Several placements reach the fewest gates (7); the first of them in
# placement order needs 6 levels, a later one only 5.
LEVELS_DECIDE = Circuit(
    3,
    (
        gate1(GateKind.H, 1),
        cnot(1, 2),
        gate1(GateKind.H, 2),
        gate1(GateKind.S, 2),
        cnot(0, 2),
        gate1(GateKind.SDG, 2),
        gate1(GateKind.SDG, 1),
    ),
)


@pytest.mark.parametrize("arch,placement", [("qx2", (0, 2, 1)), ("qx4", (2, 0, 1))])
def test_levels_break_gate_count_tie_found_late(tables, arch, placement):
    result = optimize(LEVELS_DECIDE, tables[arch])
    assert (result.final_cost, result.placement) == (CostReport(7, 5), placement)
    assert result == search_oracle.optimize(LEVELS_DECIDE, tables[arch])


def test_levels_counted_only_for_gate_count_ties(qx2_table, monkeypatch):
    counted = []

    def counting_code_levels(codes, bits):
        counted.append(len(codes))
        return code_levels(codes, bits)

    monkeypatch.setattr(qxopt.circuit, "code_levels", counting_code_levels)
    result = optimize(TWO_CNOTS, qx2_table)
    # The initial cost is counted once; every other count is the search's.
    assert 1 < len(counted) < len(list(permutations(range(5), 3)))
    assert min(counted) == result.final_cost.gates


# The 2x4 ladder of the limit8 benchmark workload: top row 0-3, bottom row
# 4-7, rails and rungs alternating in direction.
LADDER8_TEXT = """qubits 8
0 1
2 1
2 3
4 5
6 5
6 7
0 4
5 1
2 6
7 3
"""

LINE6_TEXT = "qubits 6\n0 1\n1 2\n2 3\n3 4\n4 5\n"


@pytest.fixture(scope="module")
def sparse_tables(qx2_table, qx4_table):
    return {
        "qx2": qx2_table,
        "qx4": qx4_table,
        "ladder8": build_table(load(LADDER8_TEXT, name="ladder8")),
        "line6": build_table(load(LINE6_TEXT, name="line6")),
    }


# Widest circuit drawn per device; ladder8 stays at 4 so that each call of
# the full enumeration (1,680 placements) stays short.
_SPARSE_WIDTH = {"qx2": 5, "qx4": 5, "ladder8": 4, "line6": 6}


@st.composite
def _sparse_circuits(draw):
    """(device name, circuit with at most 3 CNOTs): most wires carry no
    CNOT, and some carry no gate at all."""
    arch = draw(st.sampled_from(sorted(_SPARSE_WIDTH)))
    width = draw(st.integers(1, _SPARSE_WIDTH[arch]))
    wire = st.integers(0, 7)
    cnots = draw(st.lists(st.tuples(st.just(GateKind.CNOT), wire, wire), max_size=3))
    kind = st.sampled_from(_ONE_QUBIT_KINDS)
    ones = draw(st.lists(st.tuples(kind, wire, st.just(0)), max_size=10))
    return arch, _circuit(width, draw(st.permutations(cnots + ones)))


@settings(deadline=None, max_examples=80)
@given(_sparse_circuits())
def test_optimize_matches_full_enumeration_on_sparse_circuits(sparse_tables, case):
    arch, circuit = case
    table = sparse_tables[arch]
    assert optimize(circuit, table) == search_oracle.optimize(circuit, table)


class _SkeletonCodes(list):
    """A skeleton's mapped codes, tagged so that the counting rewrite can
    tell them from a full mapped circuit's."""


class _SearchCounts:
    """What one search covered and rewrote: the placements `_placements`
    yielded, those whose full mapped codes were built, the lengths of the
    code lists passed to `rewrite_pending`, full and skeleton apart, and the
    number of mappers made."""

    def __init__(self):
        self.covered = []
        self.scored = []
        self.full = []
        self.skeleton = []
        self.mappers = 0

    def pruned(self):
        return sorted(set(self.covered) - set(self.scored))


def _count_rewrites(monkeypatch):
    counts = _SearchCounts()
    rewrite_pending = qxopt.placement.rewrite_pending
    mapper = qxopt.placement._mapper
    placements = qxopt.placement._placements

    def counting_rewrite(codes, bits, blocks=()):
        (counts.skeleton if isinstance(codes, _SkeletonCodes) else counts.full).append(len(codes))
        return rewrite_pending(codes, bits, blocks)

    def tagging_mapper(codes, bits, entries):
        # A search makes the full circuit's mapper first and its skeleton's
        # second. For a circuit of H and CNOT gates alone the two code lists
        # are equal, so only the order tells them apart.
        assert counts.mappers < 2, "a search makes at most two mappers"
        skeleton = counts.mappers == 1
        counts.mappers += 1
        mapped = mapper(codes, bits, entries)

        def tagged(placement):
            if skeleton:
                return _SkeletonCodes(mapped(placement))
            counts.scored.append(tuple(placement))
            return mapped(placement)

        return tagged

    def recording_placements(circuit, entries, bits):
        for placement in placements(circuit, entries, bits):
            counts.covered.append(placement)
            yield placement

    monkeypatch.setattr(qxopt.placement, "rewrite_pending", counting_rewrite)
    monkeypatch.setattr(qxopt.placement, "_mapper", tagging_mapper)
    monkeypatch.setattr(qxopt.placement, "_placements", recording_placements)
    return counts


def test_cnot_free_circuit_scores_one_placement(qx2_table, monkeypatch):
    counts = _count_rewrites(monkeypatch)
    circuit = Circuit(4, (gate1(GateKind.H, 0), gate1(GateKind.T, 2), gate1(GateKind.T, 2)))
    result = optimize(circuit, qx2_table)
    assert len(counts.full) == 1
    assert counts.skeleton == []
    assert result.placement == (0, 1, 2, 3)
    assert result == search_oracle.optimize(circuit, qx2_table)


def test_circuit_with_a_cnot_on_every_wire_scores_every_injection(qx2_table, monkeypatch):
    # A circuit of CNOTs alone is its own skeleton, so nothing is pruned:
    # scored plus pruned is every injection, each once.
    counts = _count_rewrites(monkeypatch)
    optimize(TWO_CNOTS, qx2_table)
    injections = list(permutations(range(5), 3))
    assert sorted(counts.covered) == injections
    assert len(counts.scored) == len(counts.full) == len(injections)
    assert counts.pruned() == [] and counts.skeleton == []


def _skeleton_heavy(rng, width, num_gates, idle_wires=0):
    """A random circuit of mostly H and CNOT gates, with some T, S, X and Z;
    its last `idle_wires` wires carry neither H nor CNOT."""
    active = width - idle_wires
    gates = []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.35 and active >= 2:
            gates.append(cnot(*rng.sample(range(active), 2)))
        elif roll < 0.65:
            gates.append(gate1(GateKind.H, rng.randrange(active)))
        else:
            kind = rng.choice((GateKind.T, GateKind.S, GateKind.X, GateKind.Z))
            gates.append(gate1(kind, rng.randrange(width)))
    return Circuit(width, tuple(gates))


# (width, wires with neither H nor CNOT, gates, seed) of ladder8 circuits.
# With such a wire, placements share skeletons and the search prunes; with
# none, it scores every placement.
_LADDER8_CASES = [(5, 0, 14, 1), (5, 1, 16, 3), (5, 2, 20, 2), (6, 3, 12, 4), (6, 1, 10, 5)]


@pytest.mark.parametrize("width,idle,num_gates,seed", _LADDER8_CASES)
def test_pruned_search_matches_unpruned_oracle_on_ladder8(
    sparse_tables, monkeypatch, width, idle, num_gates, seed
):
    table = sparse_tables["ladder8"]
    circuit = _skeleton_heavy(random.Random(seed), width, num_gates, idle)
    counts = _count_rewrites(monkeypatch)
    result = optimize(circuit, table)
    monkeypatch.undo()
    # Placement, costs and mapped gates, all as the unpruned search has them.
    assert result == search_oracle.optimize(circuit, table)
    assert len(counts.covered) == len(set(counts.covered))
    assert len(counts.full) == len(counts.scored)
    pruned = counts.pruned()
    if not idle:
        assert pruned == [] and counts.skeleton == []
        return
    # Pruning fires, and every pruned placement costs more than the winner.
    assert pruned and len(counts.full) < len(counts.covered)
    for placement in pruned[:: max(1, len(pruned) // 50)]:
        assert cost_of(circuit, placement, table).gates > result.final_cost.gates


@pytest.mark.parametrize("width,idle,num_gates,seed", [c for c in _LADDER8_CASES if c[1]])
def test_skeleton_rewrites_never_exceed_skeleton_wire_assignments(
    sparse_tables, monkeypatch, width, idle, num_gates, seed
):
    # Placements that agree on the H and CNOT wires share one memoized bound.
    circuit = _skeleton_heavy(random.Random(seed), width, num_gates, idle)
    counts = _count_rewrites(monkeypatch)
    optimize(circuit, sparse_tables["ladder8"])
    wires = sorted(
        {q for g in circuit.gates if g.kind in (GateKind.H, GateKind.CNOT) for q in g.qubits}
    )
    assignments = {tuple(p[w] for w in wires) for p in counts.covered}
    assert len(wires) < width
    assert 0 < len(counts.skeleton) <= len(assignments) < len(counts.covered)


def _mapper_of(circuit, entries, skeleton=False):
    """The search's mapper over `entries` for the circuit's gates, encoded
    for its own wires; with `skeleton`, for its H and CNOT gates alone."""
    gates = circuit.gates
    if skeleton:
        gates = [g for g in gates if g.kind in (GateKind.H, GateKind.CNOT)]
    bits = field_bits(circuit.num_qubits)
    return _mapper(encode(gates, bits), bits, entries)


def _block_scorer(circuit, table, bits, skeleton=False):
    """The table's entry codes, and the search's function from a placement to
    `rewrite_pending`'s `(pending, dead)`, each multi-gate entry a block;
    with `skeleton`, for the H and CNOT gates alone."""
    mapped = _mapper_of(circuit, table._marked, skeleton)
    return table._codes, lambda placement: rewrite_pending(mapped(placement), bits, table._blocks)


def _count(pending_dead):
    pending, dead = pending_dead
    return len(pending) - dead


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(_SPARSE_WIDTH)), st.integers(0, 10_000))
def test_skeleton_count_bounds_the_full_count_on_every_placement(sparse_tables, arch, seed):
    rng = random.Random(seed)
    table = sparse_tables[arch]
    n = table.graph.num_physical
    width = rng.randint(1, min(4, _SPARSE_WIDTH[arch]))
    circuit = _skeleton_heavy(rng, width, rng.randint(0, 16), rng.randint(0, width - 1))
    bits = field_bits(n)
    _, full = _block_scorer(circuit, table, bits)
    _, skeleton = _block_scorer(circuit, table, bits, skeleton=True)
    for p in permutations(range(n), circuit.num_qubits):
        assert _count(skeleton(p)) <= _count(full(p))


def test_skeleton_bound_is_tight_when_identical_reversed_cnots_cancel(sparse_tables):
    # Against the edge 0 -> 1, both CNOT(1, 0) entries cancel completely in
    # the skeleton and, across wire 3's T and TDG, in the full circuit too;
    # the H on wire 2 is all that is left of either.
    table = sparse_tables["ladder8"]
    circuit = Circuit(
        4,
        (
            gate1(GateKind.H, 2),
            cnot(1, 0),
            gate1(GateKind.T, 3),
            cnot(1, 0),
            gate1(GateKind.TDG, 3),
        ),
    )
    bits = field_bits(table.graph.num_physical)
    _, full = _block_scorer(circuit, table, bits)
    _, skeleton = _block_scorer(circuit, table, bits, skeleton=True)
    placement = (0, 1, 2, 3)
    assert _count(skeleton(placement)) == _count(full(placement)) == 1
    assert cost_of(circuit, placement, table) == CostReport(1, 1)


def _touched_by(table, placement, circuit):
    """Physical qubits that the entries of the circuit's CNOTs act on."""
    return {
        q
        for g in circuit.gates
        if g.kind is GateKind.CNOT
        for e in table.entries[(placement[g.qubits[0]], placement[g.qubits[1]])].sequence.gates
        for q in e.qubits
    }


def _scored(circuit, table):
    bits = field_bits(table.graph.num_physical)
    return list(_placements(circuit, table._codes, bits))


def test_isolated_wire_never_lands_on_a_qubit_an_entry_touches(sparse_tables):
    # On the line, CNOT(0, 3) is routed through qubits 1 and 2: wire 2 sits
    # on one of them (where it meets the entry's gates) or, isolated, on the
    # smallest qubit the entry leaves alone.
    table = sparse_tables["line6"]
    circuit = Circuit(3, (cnot(0, 1), gate1(GateKind.H, 2)))
    assert _touched_by(table, (0, 3), circuit) == {0, 1, 2, 3}
    scored = _scored(circuit, table)
    assert sorted(p for p in scored if p[:2] == (0, 3)) == [(0, 3, 1), (0, 3, 2), (0, 3, 4)]
    for p in scored:
        touched = _touched_by(table, p, circuit)
        if p[2] not in touched:
            assert p[2] == min(set(range(6)) - touched)


@pytest.mark.parametrize(
    "arch,circuit",
    [
        ("line6", Circuit(4, (cnot(0, 1), gate1(GateKind.H, 2), gate1(GateKind.T, 3)))),
        ("qx2", Circuit(5, (gate1(GateKind.S, 1), cnot(3, 1), gate1(GateKind.H, 4)))),
        ("ladder8", Circuit(4, (cnot(1, 2), gate1(GateKind.X, 0), cnot(2, 1)))),
        # One qubit left free: every class has one member.
        ("qx2", Circuit(5, (cnot(0, 1), cnot(2, 3), gate1(GateKind.T, 4)))),
    ],
)
def test_scored_placements_are_the_smallest_of_each_class(sparse_tables, arch, circuit):
    # A class: the CNOT wires' qubits, the qubits of the CNOT-free wires
    # that some entry touches, and which CNOT-free wires sit elsewhere.
    table = sparse_tables[arch]
    linked = {q for g in circuit.gates if g.kind is GateKind.CNOT for q in g.qubits}
    smallest = {}
    for p in permutations(range(table.graph.num_physical), circuit.num_qubits):
        touched = _touched_by(table, p, circuit)
        key = tuple(p[w] if w in linked or p[w] in touched else None for w in range(len(p)))
        smallest[key] = min(smallest.get(key, p), p)
    scored = _scored(circuit, table)
    assert len(scored) == len(set(scored))
    assert sorted(scored) == sorted(smallest.values())


@pytest.mark.parametrize(
    "gates,placement",
    [
        # Wire 3's S costs the same on qubit 1, inside the route, as on 4,
        # the smallest untouched qubit; 1 is smaller.
        ((gate1(GateKind.S, 3), cnot(1, 2), cnot(0, 2), cnot(1, 2)), (2, 0, 3, 1)),
        # On qubit 1, wire 3's H would sit between the two entries and keep
        # them from cancelling; isolated, it goes to 4, not 1.
        ((cnot(1, 2), gate1(GateKind.H, 3), cnot(0, 2), cnot(1, 2)), (2, 0, 3, 4)),
    ],
    ids=["on-route", "isolated"],
)
def test_cnot_free_wire_takes_a_route_qubit_only_where_it_costs_nothing(sparse_tables, gates, placement):
    # Under (2, 0, 3, ...) both CNOT(1, 2) entries are routed from qubit 0
    # through 1 and 2 to 3, and cancel across CNOT(0, 2) on (2, 3).
    table = sparse_tables["ladder8"]
    circuit = Circuit(4, gates)
    assert _touched_by(table, (2, 0, 3), circuit) == {0, 1, 2, 3}
    result = optimize(circuit, table)
    assert result.placement == placement
    assert result.final_cost == CostReport(2, 1)
    assert result == search_oracle.optimize(circuit, table)


def test_more_cnot_free_wires_than_untouched_qubits_matches_oracle(qx2_table):
    # Under (0, 3, ...) the entry for CNOT(0, 3) touches 0, 2 and 3, which
    # leaves two untouched qubits for the three CNOT-free wires.
    ones = (gate1(GateKind.H, 2), gate1(GateKind.T, 3), gate1(GateKind.Y, 4))
    circuit = Circuit(5, (cnot(0, 1),) + ones)
    assert _touched_by(qx2_table, (0, 3), circuit) == {0, 2, 3}
    assert optimize(circuit, qx2_table) == search_oracle.optimize(circuit, qx2_table)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(_SPARSE_WIDTH)), st.integers(0, 10_000))
def test_block_engine_matches_stack_oracle_on_every_placement(sparse_tables, arch, seed):
    # Every multi-gate entry goes to the engine as a block: the codes of each
    # placement equal the old engine's on the plain mapped list.
    rng = random.Random(seed)
    table = sparse_tables[arch]
    n = table.graph.num_physical
    circuit = random_circuit(rng.randint(1, min(4, _SPARSE_WIDTH[arch])), rng.randint(0, 16), rng)
    bits = field_bits(n)
    entries, score = _block_scorer(circuit, table, bits)
    plain = _mapper_of(circuit, entries)
    for p in permutations(range(n), circuit.num_qubits):
        pending, dead = score(p)
        live = [c for c in pending if c >= 0]
        assert live == search_oracle.stack_rewrite(plain(p), bits)
        assert len(pending) - dead == len(live)


def _scored_codes(circuit, table, placement):
    """The live codes the search scores for `placement`, and the old
    engine's codes for the plain mapped gates."""
    bits = field_bits(table.graph.num_physical)
    pending, _ = _block_scorer(circuit, table, bits)[1](placement)
    plain = encode(search_oracle.mapped_gates(circuit, placement, table), bits)
    return [c for c in pending if c >= 0], search_oracle.stack_rewrite(plain, bits), bits


def test_entry_whose_head_cancels_a_pending_h(sparse_tables):
    # Against the edge 0 -> 1, CNOT(1, 0) is H1 H0 CX(0, 1) H1 H0; its head
    # H1 meets the pending H1, so the entry is read gate by gate.
    circuit = Circuit(2, (gate1(GateKind.H, 1), cnot(1, 0)))
    live, oracle, bits = _scored_codes(circuit, sparse_tables["ladder8"], (0, 1))
    want = [gate1(GateKind.H, 0), cnot(0, 1), gate1(GateKind.H, 1), gate1(GateKind.H, 0)]
    assert live == oracle == encode(want, bits)


def test_entries_of_two_identical_cnots_cancel_completely(sparse_tables):
    # Two CNOT(1, 0) against the edge 0 -> 1, apart in the circuit: the
    # first entry is pushed whole, the second's heads fire, and every gate
    # of both entries cancels across the T on qubit 3.
    table = sparse_tables["ladder8"]
    circuit = Circuit(4, (cnot(1, 0), gate1(GateKind.T, 3), cnot(1, 0)))
    live, oracle, bits = _scored_codes(circuit, table, (0, 1, 2, 3))
    assert live == oracle == encode([gate1(GateKind.T, 3)], bits)
    assert cost_of(circuit, (0, 1, 2, 3), table) == CostReport(1, 1)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["qx2", "ladder8"]), st.integers(0, 10_000))
def test_cost_of_the_winner_is_its_final_cost(sparse_tables, arch, seed):
    rng = random.Random(seed)
    table = sparse_tables[arch]
    circuit = random_circuit(rng.randint(1, min(4, _SPARSE_WIDTH[arch])), rng.randint(0, 16), rng)
    result = optimize(circuit, table)
    assert cost_of(circuit, result.placement, table) == result.final_cost


def _rebuilt(table):
    """The table built again by hand from fresh graph and entry records, deep
    copied, and round-tripped through pickle."""
    n = table.graph.num_physical
    graph = CouplingGraph(n, set(table.graph.edges), table.graph.name)
    entries = {
        pair: RealizationEntry(Circuit(n, entry.sequence.gates), entry.total_gates, entry.levels)
        for pair, entry in table.entries.items()
    }
    return [
        RealizationTable(graph, entries),
        copy.deepcopy(table),
        pickle.loads(pickle.dumps(table)),
    ]


@pytest.mark.parametrize("arch", ["qx2", "qx4", "hex"])
def test_hand_built_copied_and_unpickled_tables_search_alike(tables, arch):
    table = tables[arch]
    results = [optimize(load_circuit(name), table) for name in CIRCUITS]
    for other in _rebuilt(table):
        assert other == table
        assert other._codes == table._codes
        assert other._marked == table._marked
        assert other._blocks == table._blocks
        for name, want in zip(CIRCUITS, results):
            got = optimize(load_circuit(name), other)
            assert got.placement == want.placement
            assert (got.initial_cost, got.final_cost) == (want.initial_cost, want.final_cost)
            assert got.mapped == want.mapped


def _record_calls(monkeypatch, module, name):
    """Arguments of every call of `module.name`, through whichever qxopt
    module binds it."""
    original = getattr(module, name)
    calls = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    for loaded in [m for key, m in sys.modules.items() if key.split(".")[0] == "qxopt"]:
        if getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, recording)
    return calls


def test_search_neither_encodes_nor_marks_a_table_entry(sparse_tables, monkeypatch):
    marks = _record_calls(monkeypatch, qxopt.peephole, "mark_blocks")
    encodes = _record_calls(monkeypatch, qxopt.circuit, "encode")
    mappers = _record_calls(monkeypatch, qxopt.placement, "_mapper")
    table = build_table(builtin("qx2"), verify=False)
    assert len(marks) == 1
    # Every wire of the mermin circuit carries an H or a CNOT, so qx2 maps
    # it in full; wire 3 here carries neither, so ladder8 maps the skeleton
    # too.
    idle = Circuit(4, (cnot(0, 1), gate1(GateKind.H, 2), gate1(GateKind.T, 3)))
    mermin = load_circuit("mermin_yyy_unopt")
    cases = ((mermin, table, 1), (mermin, table, 1), (idle, sparse_tables["ladder8"], 2))
    for circuit, searched, mapper_count in cases:
        marks.clear()
        encodes.clear()
        mappers.clear()
        result = optimize(circuit, searched)
        assert len(mappers) == mapper_count
        # One encoding of the circuit serves the search, the skeleton and
        # the initial cost.
        assert marks == [] and [tuple(args[0]) for args in encodes] == [circuit.gates]
        encodes.clear()
        cost_of(circuit, result.placement, searched)
        assert marks == [] and [tuple(args[0]) for args in encodes] == [circuit.gates]
