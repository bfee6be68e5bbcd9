import copy
import importlib.util
import pickle
import random
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qxopt.circuit
import qxopt.peephole
import qxopt.placement
import qxopt.qasm
import search_oracle
from qxopt.circuit import KIND_CODE, Circuit, CostReport, GateKind, cnot, code_levels, encode
from qxopt.circuit import VERIFY_TOL, field_bits, gate1, random_circuit
from qxopt.fixtures import CIRCUITS, load_circuit
from qxopt.peephole import rewrite_pending
from qxopt.placement import _index, _mapper, _placements, _residue, _skeleton_counter, check_search_limit
from qxopt.placement import cost_of, optimize, percent_reduction
from qxopt.realization import RealizationEntry, RealizationTable, build_table, dump_text, lookup
from qxopt.simulator import equivalent
from qxopt.topology import CouplingGraph, allows, builtin, load

TWO_CNOTS = Circuit(3, (cnot(0, 1), cnot(1, 2)))  # CNOT(a,b); CNOT(b,c)


def _symmetries(table):
    """The table's symmetries, as the search derives them."""
    return _index(table)[3]


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
        assert equivalent(circuit, result.mapped, list(result.placement), tol=VERIFY_TOL)
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


def test_levels_counted_only_for_gate_count_ties(qx4_table, monkeypatch):
    # On qx4, a table without symmetries, the search scores every injection.
    assert _symmetries(qx4_table) == ()
    counted = []

    def counting_code_levels(codes, bits):
        counted.append(len(codes))
        return code_levels(codes, bits)

    monkeypatch.setattr(qxopt.circuit, "code_levels", counting_code_levels)
    result = optimize(TWO_CNOTS, qx4_table)
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

# Devices with many table symmetries: a star with one-way edges from its
# centre, and the complete graph on four qubits with both edge directions.
# Every permutation of the star's leaves, and every permutation of K4,
# maps each entry onto its image's entry: 23 symmetries each.
STAR5_TEXT = "qubits 5\n0 1\n0 2\n0 3\n0 4\n"
K4_TEXT = "qubits 4\n" + "".join(f"{a} {b}\n" for a, b in permutations(range(4), 2))


@pytest.fixture(scope="module")
def sparse_tables(qx2_table, qx4_table):
    return {
        "qx2": qx2_table,
        "qx4": qx4_table,
        "ladder8": build_table(load(LADDER8_TEXT, name="ladder8")),
        "line6": build_table(load(LINE6_TEXT, name="line6")),
        "star5": build_table(load(STAR5_TEXT, name="star5")),
        "k4": build_table(load(K4_TEXT, name="k4")),
    }


# Widest circuit drawn per device; ladder8 stays at 4 so that each call of
# the full enumeration (1,680 placements) stays short.
_SPARSE_WIDTH = {"qx2": 5, "qx4": 5, "ladder8": 4, "line6": 6, "star5": 5, "k4": 4}


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
    """A skeleton segment's mapped codes, tagged with the segment's index so
    that the counting rewrite can tell them from a full mapped circuit's."""

    segment = 0


class _SearchCounts:
    """What one search covered and rewrote: the placements `_placements`
    yielded, those whose full mapped codes were built, the lengths of the
    full code lists passed to `rewrite_pending`, the index of the skeleton
    segment of each other call, and the number of mappers made."""

    def __init__(self):
        self.covered = []
        self.scored = []
        self.full = []
        self.skeleton = []
        self.mappers = 0

    def pruned(self):
        return sorted(set(self.covered) - set(self.scored))


def _count_rewrites(monkeypatch, table):
    # The table's index is derived first, so that no mapper `_symmetries`
    # makes for it is counted.
    _index(table)
    counts = _SearchCounts()
    rewrite_pending = qxopt.placement.rewrite_pending
    mapper = qxopt.placement._mapper
    placements = qxopt.placement._placements

    def counting_rewrite(codes, bits, blocks=(), trace=None, state=None):
        if isinstance(codes, _SkeletonCodes):
            counts.skeleton.append(codes.segment)
        else:
            # A full mapped circuit is rewritten from the start.
            assert state is None
            counts.full.append(len(codes))
        return rewrite_pending(codes, bits, blocks, trace, state)

    def tagging_mapper(codes, bits, entries):
        # A search makes the full circuit's mapper first and then one per
        # skeleton segment, in order. For a circuit of H and CNOT gates
        # alone the code lists may be equal, so only the order tells them
        # apart.
        segment = counts.mappers - 1
        counts.mappers += 1
        mapped = mapper(codes, bits, entries)

        def tagged(placement):
            if segment < 0:
                counts.scored.append(tuple(placement))
                return mapped(placement)
            out = _SkeletonCodes(mapped(placement))
            out.segment = segment
            return out

        return tagged

    def recording_placements(circuit, table):
        for placement in placements(circuit, table):
            counts.covered.append(placement)
            yield placement

    monkeypatch.setattr(qxopt.placement, "rewrite_pending", counting_rewrite)
    monkeypatch.setattr(qxopt.placement, "_mapper", tagging_mapper)
    monkeypatch.setattr(qxopt.placement, "_placements", recording_placements)
    return counts


def _skeleton_wires(circuit):
    return {q for g in circuit.gates if g.kind in (GateKind.H, GateKind.CNOT) for q in g.qubits}


def _bound_runs(circuit, table):
    """Whether the search computes skeleton bounds: where some wire carries
    neither H nor CNOT, or the device has three qubits more than the
    circuit, and in either case at least two more than the H and CNOT
    wires."""
    wires = _skeleton_wires(circuit)
    n, k = table.graph.num_physical, circuit.num_qubits
    return bool(wires) and n - len(wires) >= 2 and (len(wires) < k or n - k >= 3)


def _segment_wires(circuit):
    """The wires seen by the end of each skeleton segment: the circuit's H
    and CNOT gates, split before each one that brings in a wire that no
    earlier one touched."""
    seen, ends = [], []
    for g in circuit.gates:
        if g.kind in (GateKind.H, GateKind.CNOT):
            new = [q for q in g.qubits if q not in seen]
            if new and seen:
                ends.append(tuple(seen))
            seen += new
    return ends + [tuple(seen)] if seen else []


def test_cnot_free_circuit_scores_one_placement(qx2_table, monkeypatch):
    counts = _count_rewrites(monkeypatch, qx2_table)
    circuit = Circuit(4, (gate1(GateKind.H, 0), gate1(GateKind.T, 2), gate1(GateKind.T, 2)))
    result = optimize(circuit, qx2_table)
    assert len(counts.full) == 1
    assert counts.skeleton == []
    assert result.placement == (0, 1, 2, 3)
    assert result == search_oracle.optimize(circuit, qx2_table)


def test_circuit_with_a_cnot_on_every_wire_scores_every_injection(qx4_table, monkeypatch):
    # A circuit of CNOTs alone is its own skeleton, so nothing is pruned:
    # on qx4, a table without symmetries, scored plus pruned is every
    # injection, each once.
    assert _symmetries(qx4_table) == ()
    counts = _count_rewrites(monkeypatch, qx4_table)
    optimize(TWO_CNOTS, qx4_table)
    injections = list(permutations(range(5), 3))
    assert sorted(counts.covered) == injections
    assert len(counts.scored) == len(counts.full) == len(injections)
    assert counts.pruned() == [] and counts.skeleton == []


def _image(sigma, placement):
    """σ∘p: the placement `placement` with each physical qubit q moved to σ[q]."""
    return tuple(sigma[q] for q in placement)


def test_circuit_with_a_cnot_on_every_wire_scores_half_the_injections_on_qx2(
    qx2_table, monkeypatch
):
    # qx2's one symmetry σ swaps qubits 0 and 4, and 1 and 3: of each pair
    # p, σ∘p (never equal on three wires) the search scores the smaller.
    (sigma,) = _symmetries(qx2_table)
    counts = _count_rewrites(monkeypatch, qx2_table)
    result = optimize(TWO_CNOTS, qx2_table)
    monkeypatch.undo()
    kept = [p for p in permutations(range(5), 3) if p < _image(sigma, p)]
    assert len(kept) == 30
    assert sorted(counts.covered) == sorted(counts.scored) == kept
    assert len(counts.full) == len(kept) and counts.skeleton == []
    assert result == search_oracle.optimize(TWO_CNOTS, qx2_table)


def test_placement_that_a_symmetry_fixes_is_scored(sparse_tables):
    # The star's symmetry that swaps leaves 3 and 4 maps (0, 1, 2) to itself;
    # it is not smaller, so the search keeps it, and it wins.
    table = sparse_tables["star5"]
    assert (0, 1, 2, 4, 3) in _symmetries(table)
    circuit = Circuit(3, (cnot(0, 1), cnot(0, 2)))
    result = optimize(circuit, table)
    assert (result.placement, result.final_cost) == ((0, 1, 2), CostReport(2, 2))
    assert result == search_oracle.optimize(circuit, table)


@pytest.mark.parametrize("arch", ["star5", "k4"])
@pytest.mark.parametrize("seed", range(3))
def test_circuit_with_a_cnot_on_every_wire_matches_oracle_on_symmetric_devices(
    sparse_tables, arch, seed
):
    # Every wire carries a CNOT, so every injection is a class of its own,
    # and the table's symmetries alone decide which are skipped.
    rng = random.Random(seed)
    table = sparse_tables[arch]
    width = _SPARSE_WIDTH[arch]
    wires = list(range(width))
    rng.shuffle(wires)
    gates = [cnot(a, b) for a, b in zip(wires, wires[1:])]
    gates += random_circuit(width, 12, rng).gates
    circuit = Circuit(width, tuple(rng.sample(gates, len(gates))))
    assert optimize(circuit, table) == search_oracle.optimize(circuit, table)


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
# With such a wire, or on five wires (three fewer than the device), the
# search bounds skeletons and prunes; the first case has an H or a CNOT on
# every wire. The last has one on each of its six, so it scores every
# placement.
_LADDER8_CASES = [
    (5, 0, 14, 1),
    (5, 1, 16, 3),
    (5, 2, 20, 2),
    (6, 3, 12, 4),
    (6, 1, 10, 5),
    (6, 0, 10, 9),
]


@pytest.mark.parametrize("width,idle,num_gates,seed", _LADDER8_CASES)
def test_pruned_search_matches_unpruned_oracle_on_ladder8(
    sparse_tables, monkeypatch, width, idle, num_gates, seed
):
    table = sparse_tables["ladder8"]
    circuit = _skeleton_heavy(random.Random(seed), width, num_gates, idle)
    counts = _count_rewrites(monkeypatch, table)
    result = optimize(circuit, table)
    monkeypatch.undo()
    # Placement, costs and mapped gates, all as the unpruned search has them.
    assert result == search_oracle.optimize(circuit, table)
    assert len(counts.covered) == len(set(counts.covered))
    assert len(counts.full) == len(counts.scored)
    pruned = counts.pruned()
    if not idle:
        assert len(_skeleton_wires(circuit)) == width
    if not _bound_runs(circuit, table):
        assert (width, idle) == (6, 0)
        assert counts.mappers == 1 and pruned == [] and counts.skeleton == []
        return
    assert counts.mappers == 1 + len(_segment_wires(circuit))
    # Pruning fires, and every pruned placement costs more than the winner.
    assert pruned and len(counts.full) < len(counts.covered)
    for placement in pruned[:: max(1, len(pruned) // 50)]:
        assert cost_of(circuit, placement, table).gates > result.final_cost.gates


@pytest.mark.parametrize(
    "width,idle,num_gates,seed", [c for c in _LADDER8_CASES if c[0] == 5 or c[1]]
)
def test_skeleton_rewrites_never_exceed_skeleton_wire_assignments(
    sparse_tables, monkeypatch, width, idle, num_gates, seed
):
    # Placements that agree on the wires a skeleton prefix has seen share
    # its rewrite, and those that agree on every H and CNOT wire share the
    # bound: each segment is rewritten at most once per assignment of the
    # wires seen by its end.
    circuit = _skeleton_heavy(random.Random(seed), width, num_gates, idle)
    counts = _count_rewrites(monkeypatch, sparse_tables["ladder8"])
    optimize(circuit, sparse_tables["ladder8"])
    segments = _segment_wires(circuit)
    assert sorted(set(counts.skeleton)) == list(range(len(segments)))
    for segment, wires in enumerate(segments):
        assignments = {tuple(p[w] for w in wires) for p in counts.covered}
        assert counts.skeleton.count(segment) <= len(assignments)
    first = {tuple(p[w] for w in segments[0]) for p in counts.covered}
    assert counts.skeleton.count(0) <= len(first) < len(counts.covered)
    if idle:
        assert len(segments[-1]) < width
        last = {tuple(p[w] for w in segments[-1]) for p in counts.covered}
        assert len(last) < len(counts.covered)


ROOT = Path(__file__).resolve().parent.parent


def _perfbench_gen(monkeypatch):
    """The benchmark's case generator, `perfbench/gen.py`."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up there
    spec.loader.exec_module(gen)
    return gen


def _limit8_cases(monkeypatch, seed):
    """The limit8 benchmark workload's (name, circuit) cases at `seed`."""
    gen = _perfbench_gen(monkeypatch)
    return [(case.name, qxopt.qasm.parse(case.qasm)) for case in gen.limit8_cases(seed)]


def test_cost_of_each_benchmark_winner_is_its_final_cost(monkeypatch):
    # `cost_of` maps one placement without blocks, bounds or symmetries, a
    # second path through the table, on every case of the workloads that map.
    gen = _perfbench_gen(monkeypatch)
    cases = gen.fixtures_cases(ROOT / "src", 77) + gen.random5_cases(77) + gen.limit8_cases(77)
    tables = {}
    for case in cases:
        if case.device not in tables:
            tables[case.device] = build_table(load(gen.DEVICES[case.device], name=case.device))
        circuit = qxopt.qasm.parse(case.qasm)
        result = optimize(circuit, tables[case.device])
        assert cost_of(circuit, result.placement, tables[case.device]) == result.final_cost, case.name
    assert sorted(tables) == ["ladder8", "qx2", "qx4"]


@pytest.mark.parametrize("seed,scored", [(77, (348, 12)), (3, (337, 19)), (1, (375, 19))])
def test_limit8_search_scores_and_rewrites_what_it_did(sparse_tables, monkeypatch, seed, scored):
    # Every placement after the first pays for a bound, so the skeleton
    # rewrites depend on the circuit and the device alone: 56, 336, 1,680
    # and 6,719 per segment for the 5-qubit case (an H or a CNOT on every
    # wire, so no count memo), and 56 and 335 for the 6-qubit one.
    table = sparse_tables["ladder8"]
    cases = _limit8_cases(monkeypatch, seed)
    assert [name for name, _ in cases] == ["l8_5q_0@ladder8", "l8_6q_1@ladder8"]
    for (_, circuit), want_scored, want_rewrites in zip(cases, scored, (8_791, 391)):
        counts = _count_rewrites(monkeypatch, table)
        optimize(circuit, table)
        monkeypatch.undo()
        assert (len(counts.scored), len(counts.skeleton)) == (want_scored, want_rewrites)


def _mapper_of(circuit, entries, bits, skeleton=False):
    """The search's mapper over `entries` for the circuit's gates, encoded
    at the device's field width `bits`; with `skeleton`, for its H and CNOT
    gates alone."""
    gates = circuit.gates
    if skeleton:
        gates = [g for g in gates if g.kind in (GateKind.H, GateKind.CNOT)]
    return _mapper(encode(gates, bits), bits, entries)


def _block_scorer(circuit, table, bits, skeleton=False):
    """The table's entry codes, and the search's function from a placement to
    `rewrite_pending`'s `(pending, dead)`, each multi-gate entry a block;
    with `skeleton`, for the H and CNOT gates alone."""
    codes, rows, blocks, _, _ = _index(table)
    mapped = _mapper_of(circuit, rows, bits, skeleton)
    return codes, lambda placement: rewrite_pending(mapped(placement), bits, blocks)


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


def _bound(circuit, table):
    """The search's skeleton bound in its two terms: a function from a
    placement to the rewritten count of its mapped H and CNOT gates, and
    the count of gates that no rewrite removes."""
    residue = _residue(circuit)
    if not _skeleton_wires(circuit):
        return (lambda placement: 0), residue
    bits = field_bits(table.graph.num_physical)
    return _skeleton_counter(circuit, encode(circuit.gates, bits), table, bits), residue


def test_residue_counts_what_no_rewrite_removes_per_wire():
    # Wire 0: odd X and Y counts, phases 1 + 1 + 2 + 2 = 6; wire 1: even
    # X count, phases 4 + 4 = 8; wire 2: T TDG sums to 8; wire 3: one S.
    # Each kind is counted per wire: the X on wire 4 and on wire 5 both count.
    ones = {
        0: (GateKind.X, GateKind.Y, GateKind.T, GateKind.T, GateKind.S, GateKind.S),
        1: (GateKind.X, GateKind.Z, GateKind.X, GateKind.Z),
        2: (GateKind.T, GateKind.TDG),
        3: (GateKind.S,),
        4: (GateKind.X, GateKind.H),
        5: (GateKind.X, GateKind.SDG, GateKind.SDG, GateKind.Z),
    }
    gates = [gate1(kind, wire) for wire, kinds in ones.items() for kind in kinds]
    circuit = Circuit(6, tuple(gates) + (cnot(0, 1),))
    assert _residue(circuit) == 3 + 0 + 0 + 1 + 1 + 1
    # The bound is tight where each invariant leaves one gate: X Y T T S
    # rewrites to X Y Z (T T merges to S, which merges with S to Z).
    kinds = (GateKind.X, GateKind.Y, GateKind.T, GateKind.T, GateKind.S)
    tight = Circuit(2, (gate1(GateKind.H, 1),) + tuple(gate1(k, 0) for k in kinds))
    table = build_table(load(LADDER8_TEXT, name="ladder8"))
    count, residue = _bound(tight, table)
    assert count((0, 1)) + residue == cost_of(tight, (0, 1), table).gates == 4


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(_SPARSE_WIDTH)), st.integers(0, 10_000))
def test_skeleton_bound_never_exceeds_the_cost_of_a_placement(sparse_tables, arch, seed):
    # Skeleton-heavy gates mixed with every 1-qubit kind, so the residue
    # sees odd X and Y counts and every phase. Each term bounds its own part
    # of the rewritten circuit: the skeleton count its H and CNOT gates, and
    # each wire's residue the other gates on that wire's qubit.
    rng = random.Random(seed)
    table = sparse_tables[arch]
    width = rng.randint(1, _SPARSE_WIDTH[arch])
    gates = _skeleton_heavy(rng, width, rng.randint(0, 16), rng.randint(0, width - 1)).gates
    gates += random_circuit(width, rng.randint(0, 12), rng).gates
    circuit = Circuit(width, tuple(rng.sample(gates, len(gates))))
    count, residue = _bound(circuit, table)
    per_wire = [
        _residue(Circuit(width, tuple(g for g in circuit.gates if g.qubits == (w,))))
        for w in range(width)
    ]
    assert sum(per_wire) == residue
    _, score = _block_scorer(circuit, table, field_bits(table.graph.num_physical))
    skeleton_kinds = (KIND_CODE[GateKind.H], KIND_CODE[GateKind.CNOT])
    placements = list(permutations(range(table.graph.num_physical), width))
    for placement in rng.sample(placements, min(40, len(placements))):
        live = [c for c in score(placement)[0] if c >= 0]
        others = Counter(c >> 4 for c in live if c & 15 not in skeleton_kinds)
        assert count(placement) <= len(live) - sum(others.values())
        assert all(per_wire[w] <= others[q] for w, q in enumerate(placement))
        assert count(placement) + residue <= cost_of(circuit, placement, table).gates == len(live)
    assert optimize(circuit, table) == search_oracle.optimize(circuit, table)


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
    return list(_placements(circuit, table))


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
    # that some entry touches, and which CNOT-free wires sit elsewhere. Of
    # the smallest placements, those that a table symmetry maps to a
    # smaller one are skipped.
    table = sparse_tables[arch]
    linked = {q for g in circuit.gates if g.kind is GateKind.CNOT for q in g.qubits}
    smallest = {}
    for p in permutations(range(table.graph.num_physical), circuit.num_qubits):
        touched = _touched_by(table, p, circuit)
        key = tuple(p[w] if w in linked or p[w] in touched else None for w in range(len(p)))
        smallest[key] = min(smallest.get(key, p), p)
    kept = [
        p for p in smallest.values() if all(p <= _image(sigma, p) for sigma in _symmetries(table))
    ]
    scored = _scored(circuit, table)
    assert len(scored) == len(set(scored))
    assert sorted(scored) == sorted(kept)


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
    plain = _mapper_of(circuit, entries, bits)
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
        codes, rows, blocks, symmetries, touches = _index(other)
        assert codes == _index(table)[0]
        assert rows == _index(table)[1]
        assert blocks == _index(table)[2]
        assert symmetries == _index(table)[3]
        assert touches == _index(table)[4]
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


def test_building_printing_comparing_and_copying_a_table_neither_encode_nor_mark(monkeypatch):
    # Only the search reads entries as codes, so nothing else derives them.
    marks = _record_calls(monkeypatch, qxopt.peephole, "mark_blocks")
    encodes = _record_calls(monkeypatch, qxopt.circuit, "encode")
    table = build_table(load(LADDER8_TEXT, name="ladder8"))
    others = [copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))]
    assert all(other == table for other in others)
    dump_text(table)
    lookup(table, 0, 7)
    assert marks == [] and encodes == []


def test_search_neither_encodes_nor_marks_a_table_entry(sparse_tables, monkeypatch):
    marks = _record_calls(monkeypatch, qxopt.peephole, "mark_blocks")
    encodes = _record_calls(monkeypatch, qxopt.circuit, "encode")
    mappers = _record_calls(monkeypatch, qxopt.placement, "_mapper")
    table = build_table(builtin("qx2"), verify=False)
    ladder8 = copy.copy(sparse_tables["ladder8"])
    assert marks == []
    # Every wire of the mermin circuit carries an H or a CNOT, so qx2 maps
    # it in full; wire 3 here carries neither, so ladder8 maps the skeleton
    # too, in two segments: CNOT(0, 1), then the H that brings in wire 2.
    # The first search of each table object, a copy's too, derives its
    # index: it encodes every entry and marks them all in one call.
    idle = Circuit(4, (cnot(0, 1), gate1(GateKind.H, 2), gate1(GateKind.T, 3)))
    mermin = load_circuit("mermin_yyy_unopt")
    copied = copy.copy(table)
    cases = (
        (mermin, table, 1, True),
        (mermin, table, 1, False),
        (idle, ladder8, 3, True),
        (idle, ladder8, 3, False),
        (mermin, copied, 1, True),
    )
    for circuit, searched, mapper_count, first in cases:
        marks.clear()
        encodes.clear()
        mappers.clear()
        result = optimize(circuit, searched)
        # The circuit's mappers read the marked rows; the ones `_symmetries`
        # makes while it derives the index read single CNOTs.
        assert len([args for args in mappers if args[2] is _index(searched)[1]]) == mapper_count
        assert first or len(mappers) == mapper_count
        # One encoding of the circuit serves the search, the skeleton and
        # the initial cost.
        entries = [entry.sequence.gates for entry in searched.entries.values()] if first else []
        assert len(marks) == first
        assert [tuple(args[0]) for args in encodes] == [circuit.gates] + entries
        marks.clear()
        encodes.clear()
        cost_of(circuit, result.placement, searched)
        assert marks == [] and [tuple(args[0]) for args in encodes] == [circuit.gates]
    # `cost_of` on a fresh table object derives the index as a search does.
    unpickled = pickle.loads(pickle.dumps(table))
    encodes.clear()
    cost_of(mermin, result.placement, unpickled)
    assert len(marks) == 1
    assert [tuple(args[0]) for args in encodes] == [mermin.gates] + [
        entry.sequence.gates for entry in unpickled.entries.values()
    ]


def test_touch_masks_are_derived_once_per_table(monkeypatch):
    # limit8's 6-qubit case has CNOT-free wires, so its search reads which
    # qubits each entry touches. The first search of a table derives one
    # mask per entry with the index; later searches derive none.
    (_, _), (_, idle) = _limit8_cases(monkeypatch, 77)
    touched = _record_calls(monkeypatch, qxopt.placement, "_touched")
    table = build_table(load(LADDER8_TEXT, name="ladder8"))
    assert touched == []
    optimize(idle, table)
    assert [tuple(args[0]) for args in touched] == [e.sequence.gates for e in table.entries.values()]
    touched.clear()
    for _ in range(2):
        optimize(idle, table)
    assert touched == []


def test_map_verified_refuses_a_bad_tolerance_before_the_search(monkeypatch, qx2_table):
    def search(*args):
        raise AssertionError("searched under a refused tolerance")

    monkeypatch.setattr(qxopt.placement, "optimize", search)
    for tol in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError, match="tolerance"):
            qxopt.placement.map_verified(TWO_CNOTS, qx2_table, tol=tol)
