import copy
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import search_oracle
from qxopt.circuit import BLOCK_CODE, Circuit, Gate, GateKind, cnot, encode, field_bits, gate1
from qxopt.circuit import PHASE, gate_count, inverse_of, random_circuit
from qxopt.peephole import RULES, engine_state, mark_blocks, rewrite, rewrite_pending, simplify
from qxopt.peephole import simplify_gates
from qxopt.simulator import unitary_of


def _phase_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    anchor = np.flatnonzero(np.abs(a.ravel()) > 1e-9)[0]
    phase = b.ravel()[anchor] / a.ravel()[anchor]
    if abs(phase) < 1e-12:
        return False
    phase /= abs(phase)
    return bool(np.max(np.abs(b - phase * a)) <= tol)


def test_every_rule_shrinks_the_circuit():
    for rule in RULES:
        assert len(rule.replacement) < len(rule.pattern), rule.name


def _invariants(kinds):
    """A qubit's X count parity, Y count parity and phase sum mod 8, with the
    phase weights the path sum uses."""
    return (
        kinds.count(GateKind.X) % 2,
        kinds.count(GateKind.Y) % 2,
        sum(PHASE.get(kind, 0) for kind in kinds) % 8,
    )


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_each_rule_keeps_what_the_skeleton_bound_counts(rule):
    # The placement search's bound counts an odd X count, an odd Y count and
    # a nonzero phase sum on a wire as gates that no rewrite removes, and
    # the rest of it is the rewritten H and CNOT gates. It holds while every
    # rule keeps the three invariants, creates no H or CNOT, and touches an
    # H or a CNOT only to cancel a pair of them.
    assert _invariants(rule.pattern) == _invariants(rule.replacement)
    skeleton = {GateKind.H, GateKind.CNOT}
    assert not skeleton & set(rule.replacement)
    if skeleton & set(rule.pattern):
        assert rule.pattern[0] == rule.pattern[1] and rule.replacement == ()


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_each_rule_against_dense_oracle(rule):
    width = 2 if GateKind.CNOT in rule.pattern else 1
    qubits = (0, 1) if width == 2 else (0,)
    lhs = unitary_of(Circuit(width, tuple(Gate(k, qubits) for k in rule.pattern)))
    rhs = unitary_of(Circuit(width, tuple(Gate(k, qubits) for k in rule.replacement)))
    assert _phase_equal(lhs, rhs)


def test_consecutive_hadamards_removed():
    assert simplify(Circuit(1, (gate1(GateKind.H, 0), gate1(GateKind.H, 0)))).gates == ()


def test_cancellation_across_disjoint_support():
    c = Circuit(2, (gate1(GateKind.H, 0), gate1(GateKind.X, 1), gate1(GateKind.H, 0)))
    out = simplify(c)
    assert out.gates == (gate1(GateKind.X, 1),)
    assert _phase_equal(unitary_of(c), unitary_of(out))


def test_phase_merge_t_t_to_s():
    c = Circuit(1, (gate1(GateKind.T, 0), gate1(GateKind.T, 0)))
    out = simplify(c)
    assert out.gates == (gate1(GateKind.S, 0),)
    assert _phase_equal(unitary_of(c), unitary_of(out))


def test_four_t_gates_collapse_to_z():
    c = Circuit(1, tuple(gate1(GateKind.T, 0) for _ in range(4)))
    assert simplify(c).gates == (gate1(GateKind.Z, 0),)


def test_cnot_pair_cancels_only_on_identical_orientation():
    assert simplify(Circuit(2, (cnot(0, 1), cnot(0, 1)))).gates == ()
    kept = simplify(Circuit(2, (cnot(0, 1), cnot(1, 0))))
    assert kept.gates == (cnot(0, 1), cnot(1, 0))


def test_shared_qubit_blocks_matching():
    # The middle CNOT touches qubit 0, so the Hadamards are not adjacent.
    c = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1), gate1(GateKind.H, 0)))
    trace = []
    # No rule fires: the circuit comes back as it is, and a gate list as a
    # new list that the caller may change.
    assert simplify(c, trace) is c and trace == []
    gates = list(c.gates)
    out = simplify_gates(gates)
    assert out == gates and out is not gates


def test_trace_reports_fired_rules():
    c = Circuit(1, (gate1(GateKind.S, 0), gate1(GateKind.SDG, 0)))
    trace = []
    out = simplify(c, trace)
    assert out.gates == ()
    assert [f.rule for f in trace] == ["cancel-s-sdg"]


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 10_000))
def test_simplify_preserves_unitary_and_is_monotone_idempotent(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 4), rng.randint(0, 24), rng)
    out = simplify(c)
    assert gate_count(out) <= gate_count(c)
    assert simplify(out) == out
    if c.num_qubits <= 4:
        u_in, u_out = unitary_of(c), unitary_of(out)
        if gate_count(c) == 0:
            assert np.allclose(u_in, u_out)
        else:
            assert _phase_equal(u_in, u_out, tol=1e-9)


def _bits_for(gates):
    return field_bits(1 + max((q for g in gates for q in g.qubits), default=0))


def _assert_engine_matches_stack_oracle(gates):
    """Same codes, in the same order, and the same trace from the engine as
    from the dict-of-stacks engine it replaced; the tombstone count leaves
    the live codes, and `rewrite` returns just those."""
    bits = _bits_for(gates)
    codes = encode(gates, bits)
    got_trace, stack_trace = [], []
    pending, dead = rewrite_pending(codes, bits, (), got_trace)
    live = [c for c in pending if c >= 0]
    assert live == search_oracle.stack_rewrite(codes, bits, stack_trace)
    assert got_trace == stack_trace
    assert len(pending) - dead == len(live)
    assert rewrite(codes, bits) == live


def _assert_single_pass_matches_oracles(gates, width=None):
    """Same gates and the same RuleFiring traces from the code engine, the
    Gate stack machine, the backward-scan pass and the fixpoint loop; the
    untraced run gives the same gates, and so does `simplify` on a circuit
    of `width` wires. The codes match the old code engine's too."""
    _assert_engine_matches_stack_oracle(gates)
    got_trace, stack_trace, scan_trace, fix_trace = [], [], [], []
    got = simplify_gates(gates, got_trace)
    assert got == search_oracle.stack_simplify_gates(gates, stack_trace)
    assert got == search_oracle.simplify_gates(gates, scan_trace)
    assert got == search_oracle.simplify_to_fixpoint(gates, fix_trace)
    assert got_trace == stack_trace == scan_trace == fix_trace
    assert simplify_gates(gates) == got
    if width is not None:
        trace = []
        out = simplify(Circuit(width, tuple(gates)), trace)
        assert list(out.gates) == got and trace == got_trace


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10_000))
def test_single_pass_equals_fixpoint_on_random_circuits(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 5), rng.randint(0, 60), rng)
    _assert_single_pass_matches_oracles(list(c.gates), c.num_qubits)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10_000), st.sampled_from(["qx2", "qx4"]))
def test_single_pass_equals_fixpoint_on_mapped_gates(qx2_table, qx4_table, seed, arch):
    rng = random.Random(seed)
    table = qx2_table if arch == "qx2" else qx4_table
    c = random_circuit(rng.randint(1, 5), rng.randint(0, 40), rng)
    placement = rng.sample(range(5), c.num_qubits)
    _assert_single_pass_matches_oracles(search_oracle.mapped_gates(c, placement, table), 5)


def _gates_on(wires):
    """Gates on a few wires, so that most gates find a partner:
    cancellations, merge chains (T T T T -> Z), CNOTs in both orientations,
    and matches across gates on disjoint qubits."""
    wire = st.sampled_from(wires)
    return st.lists(
        st.one_of(
            st.builds(gate1, st.sampled_from([k for k in GateKind if k is not GateKind.CNOT]), wire),
            st.builds(lambda pair: cnot(*pair), st.lists(wire, min_size=2, max_size=2, unique=True)),
        ),
        max_size=40,
    )


@settings(deadline=None, max_examples=200)
@given(_gates_on((0, 1, 2)))
def test_stack_lookup_matches_backward_scan_on_dense_firings(gates):
    _assert_single_pass_matches_oracles(gates, 3)


# Wires at and past 8-bit and 16-bit qubit fields. Each set pairs wires that
# agree in their low bits (0 and 256, 112 and 70,000), so a qubit field too
# narrow for the width would alias them and match or block the wrong gates.
@settings(deadline=None, max_examples=200)
@given(st.sampled_from([(0, 1, 256, 257), (112, 113, 70_000, 70_001)]).flatmap(_gates_on))
def test_code_engine_matches_oracles_on_wide_wires(gates):
    _assert_single_pass_matches_oracles(gates, 70_002)


def _mirror(runs):
    """The adjoint of the runs' concatenation, as runs: each run reversed
    with each gate inverted, in reverse order."""
    return [[Gate(inverse_of(g.kind), g.qubits) for g in reversed(run)] for run in reversed(runs)]


def _assert_blocks_match_stack_oracle(runs):
    """Runs rewritten to their fixpoint, marked as blocks and rewritten
    together: the same codes and trace as the old engine on the plain
    concatenation, whether each block is pushed whole or gate by gate."""
    bits = _bits_for([g for run in runs for g in run])
    fixed = [rewrite(encode(run, bits), bits) for run in runs]
    marked, blocks = mark_blocks(fixed, bits)
    assert len(blocks) == sum(len(run) >= 2 for run in fixed)
    got_trace, stack_trace = [], []
    pending, dead = rewrite_pending([c for run in marked for c in run], bits, blocks, got_trace)
    live = [c for c in pending if c >= 0]
    assert live == search_oracle.stack_rewrite([c for run in fixed for c in run], bits, stack_trace)
    assert got_trace == stack_trace
    assert len(pending) - dead == len(live)
    # Resumed run by run, each from a copy of the state the run before left,
    # the pass is the same, trace included, and no copy's pass changes the
    # state it copied.
    state, resumed_trace = engine_state(bits), []
    for run in marked:
        before = copy.deepcopy(state)
        resumed = engine_state(bits, state)
        assert rewrite_pending(run, bits, blocks, resumed_trace, resumed) == (resumed[0], resumed[4])
        assert state == before
        state = resumed
    assert (state[0], state[4]) == (pending, dead) and resumed_trace == got_trace


@settings(deadline=None, max_examples=200)
@given(st.lists(_gates_on((0, 1, 2)), max_size=8))
def test_blocks_match_stack_oracle(runs):
    _assert_blocks_match_stack_oracle(runs)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from([(0, 1, 256, 257), (112, 113, 70_000, 70_001)]).flatmap(
        lambda wires: st.lists(_gates_on(wires), max_size=8)
    )
)
def test_blocks_match_stack_oracle_on_wide_wires(runs):
    _assert_blocks_match_stack_oracle(runs)


@settings(deadline=None, max_examples=100)
@given(st.lists(_gates_on((0, 1, 2)), max_size=4), _gates_on((0, 1, 2)))
def test_blocks_cancel_against_their_mirror(runs, middle):
    # Each deleted block gate hands its qubits' tops back along its links,
    # so the mirror half undoes the first half block by block.
    fixed = [simplify_gates(run) for run in runs]
    _assert_blocks_match_stack_oracle(fixed + [middle] + _mirror(fixed))
    _assert_blocks_match_stack_oracle(fixed + _mirror(fixed))
    bits = _bits_for([g for run in fixed for g in run])
    marked, blocks = mark_blocks([encode(run, bits) for run in fixed + _mirror(fixed)], bits)
    pending, dead = rewrite_pending([c for run in marked for c in run], bits, blocks)
    assert len(pending) == dead


def test_block_cnot_hands_its_target_back():
    # The block's CNOT is the first gate on qubit 1 and links it as its
    # second qubit; cancelled, it hands qubit 1 back to the T, which the
    # TDG then cancels.
    runs = [
        [gate1(GateKind.T, 1)],
        [cnot(0, 1), gate1(GateKind.X, 2)],
        [cnot(0, 1)],
        [gate1(GateKind.TDG, 1)],
    ]
    _assert_blocks_match_stack_oracle(runs)
    bits = _bits_for([g for run in runs for g in run])
    marked, blocks = mark_blocks([encode(run, bits) for run in runs], bits)
    pending, _ = rewrite_pending([c for run in marked for c in run], bits, blocks)
    assert len(blocks) == 1 and [c for c in pending if c >= 0] == encode([gate1(GateKind.X, 2)], bits)


def test_run_on_which_a_rule_fires_is_not_a_block():
    # A block is pushed whole only when its own gates leave each other alone.
    bits = 2
    fires = encode([gate1(GateKind.H, 0), gate1(GateKind.X, 1), gate1(GateKind.H, 0)], bits)
    cnots = encode([cnot(0, 1), gate1(GateKind.X, 2), cnot(0, 1)], bits)
    stays = encode([gate1(GateKind.H, 0), gate1(GateKind.T, 0), cnot(1, 0), cnot(0, 1)], bits)
    single = encode([cnot(0, 1)], bits)
    marked, blocks = mark_blocks([fires, cnots, stays, single], bits)
    assert marked == [fires, cnots, [BLOCK_CODE] + stays, single] and len(blocks) == 1
    pending, dead = rewrite_pending([c for run in marked for c in run], bits, blocks)
    plain = fires + cnots + stays + single
    assert [c for c in pending if c >= 0] == search_oracle.stack_rewrite(plain, bits)


def test_sparse_wide_circuit_is_fast():
    # Three gates on wire 99,999: per-qubit stacks cost nothing per unused wire.
    c = Circuit(100_000, (gate1(GateKind.T, 99_999),) * 2 + (gate1(GateKind.S, 99_999),))
    assert simplify(c).gates == (gate1(GateKind.Z, 99_999),)
    start = time.perf_counter()
    for _ in range(100):
        simplify(c)
    assert time.perf_counter() - start < 0.1


def test_traced_rewrite_is_linear():
    # Each firing's position comes from a bisection over the tombstones, not
    # from a count over the pending list (which took about 6 s here).
    c = random_circuit(2, 40_000, random.Random(1))
    trace = []
    start = time.perf_counter()
    simplify(c, trace)
    assert time.perf_counter() - start < 1.0
    assert len(trace) == 5755
