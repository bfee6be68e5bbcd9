import importlib.util
import itertools
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from qxopt import build_table, circuit as circuit_module, placement, qasm, simulator
from qxopt.circuit import Circuit, Gate, GateKind, cnot, gate1, inverse_of, random_circuit, relabel
from qxopt.peephole import simplify
from qxopt.simulator import (
    equivalent,
    measure_probs,
    run_ideal,
    run_noisy,
    unitary_of,
)
from qxopt.states import DensityMatrix, NoiseSpec, StateVector, basis_state
from qxopt.topology import load

S2 = 1 / math.sqrt(2)
ROOT = Path(__file__).resolve().parent.parent


def test_empty_circuit_unitary_is_identity():
    assert np.allclose(unitary_of(Circuit(1)), np.eye(2))


def test_hadamard_matrix():
    u = unitary_of(Circuit(1, (gate1(GateKind.H, 0),)))
    assert np.allclose(u, np.array([[S2, S2], [S2, -S2]]))


def test_self_inverse_composition_is_identity():
    c = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1), cnot(0, 1), gate1(GateKind.H, 0)))
    assert np.allclose(unitary_of(c), np.eye(4), atol=1e-12)


def test_cnot_matrix_from_truth_table():
    # Oracle: basis-state truth table with qubit 0 as least-significant bit.
    expected = np.zeros((4, 4))
    for a in range(4):
        control, target = a & 1, (a >> 1) & 1
        b = (target ^ control) << 1 | control
        expected[b, a] = 1.0
    assert np.allclose(unitary_of(Circuit(2, (cnot(0, 1),))), expected)


def test_single_qubit_embedding_positions():
    z_on_1 = unitary_of(Circuit(2, (gate1(GateKind.Z, 1),)))
    # |10> (index 2) picks up the sign, |01> (index 1) does not.
    assert z_on_1[2, 2] == -1
    assert z_on_1[1, 1] == 1


def test_unitary_respects_composition():
    rng = random.Random(11)
    a = random_circuit(3, 8, rng)
    b = random_circuit(3, 8, rng)
    combined = Circuit(3, a.gates + b.gates)
    assert np.max(np.abs(unitary_of(combined) - unitary_of(b) @ unitary_of(a))) < 1e-10


def test_unitary_width_cap():
    with pytest.raises(ValueError, match="cap"):
        unitary_of(Circuit(11))


def test_run_ideal_x_flips():
    out = run_ideal(Circuit(1, (gate1(GateKind.X, 0),)))
    assert np.allclose(out.amplitudes, [0, 1])


def test_run_ideal_empty_circuit_keeps_state():
    initial = StateVector(np.array([S2, 1j * S2]))
    out = run_ideal(Circuit(1), initial)
    assert np.allclose(out.amplitudes, initial.amplitudes)


def test_run_ideal_ghz():
    c = Circuit(3, (gate1(GateKind.H, 0), cnot(0, 1), cnot(1, 2)))
    out = run_ideal(c)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = S2
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_run_ideal_agrees_with_unitary_product(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 4), rng.randint(0, 15), rng)
    by_gate = run_ideal(c).amplitudes
    by_matrix = unitary_of(c) @ basis_state(c.num_qubits).amplitudes
    assert np.max(np.abs(by_gate - by_matrix)) < 1e-10
    assert abs(np.linalg.norm(by_gate) - 1) < 1e-10


def test_equivalent_reflexive_and_distinguishes():
    c = Circuit(1, (gate1(GateKind.H, 0),))
    assert equivalent(c, c)
    assert not equivalent(c, Circuit(1, (gate1(GateKind.X, 0),)))


def test_equivalent_accepts_global_phase():
    # S S = Z up to no phase; T T S Z = e^{i pi} identity-like check instead:
    # Z X Z X = -I, a pure global phase away from the empty circuit.
    c = Circuit(1, (gate1(GateKind.Z, 0), gate1(GateKind.X, 0), gate1(GateKind.Z, 0), gate1(GateKind.X, 0)))
    assert equivalent(Circuit(1), c, tol=1e-12)


def test_equivalent_reversed_cnot_realization():
    wrong_way = Circuit(2, (cnot(1, 0),))
    fixed = Circuit(
        2,
        (
            gate1(GateKind.H, 0),
            gate1(GateKind.H, 1),
            cnot(0, 1),
            gate1(GateKind.H, 0),
            gate1(GateKind.H, 1),
        ),
    )
    assert equivalent(wrong_way, fixed, tol=1e-12)


def test_equivalent_with_placement_permutation():
    c = Circuit(2, (cnot(0, 1),))
    mapped = Circuit(3, (cnot(2, 0),))
    assert equivalent(c, mapped, perm=[2, 0])
    assert not equivalent(c, mapped, perm=[0, 2])


@pytest.mark.parametrize("n", range(1, 11))
def test_equivalent_tolerance_means_the_same_at_every_width(n):
    # The miter of the pair is T^dagger on wire 0, so V - I has an entry
    # |e^(-i pi/4) - 1| = 0.77 at every width, where the unitaries' own
    # entries differ by 0.77 / 2^(n/2).
    layer = tuple(gate1(GateKind.H, q) for q in range(n))
    assert not equivalent(Circuit(n, layer), Circuit(n, (gate1(GateKind.T, 0),) + layer), tol=0.5)


def test_equivalent_scales_the_phase_to_magnitude_one():
    # V = H: V - V[0, 0] I peaks at 1.41, V - I at 1.71.
    assert not equivalent(Circuit(1), Circuit(1, (gate1(GateKind.H, 0),)), tol=1.5)


@pytest.mark.parametrize("n", range(1, 11))
def test_equivalent_accepts_a_pure_global_phase_in_every_block(n):
    # Y X Z = i I, so V = -i I: the phase is taken off each block's diagonal.
    c = random_circuit(n, 30, random.Random(n))
    q = n - 1
    phase_i = (gate1(GateKind.Y, q), gate1(GateKind.X, q), gate1(GateKind.Z, q))
    assert equivalent(c, Circuit(n, c.gates + phase_i))
    assert not equivalent(c, Circuit(n, c.gates + phase_i[:2]))


def test_equivalent_rejects_wider_first_circuit():
    with pytest.raises(ValueError):
        equivalent(Circuit(3), Circuit(2))


def test_run_noisy_zero_noise_is_pure_ideal():
    bell = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1)))
    at_cap = random_circuit(6, 40, random.Random(6))  # the density-matrix cap
    for c in (bell, at_cap):
        rho = run_noisy(c, NoiseSpec(p1=0.0, p2=0.0))
        psi = run_ideal(c).amplitudes
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-12


def test_run_noisy_full_depolarize_after_x():
    # One X then p=1 depolarizing: (1/3)(X|1><1|X + Y|1><1|Y + Z|1><1|Z)
    # = diag(2/3, 1/3) by direct channel arithmetic.
    rho = run_noisy(Circuit(1, (gate1(GateKind.X, 0),)), NoiseSpec(p1=1.0, p2=1.0))
    assert np.allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_run_noisy_trace_preserved():
    c = Circuit(3, (gate1(GateKind.H, 0), cnot(0, 1), cnot(1, 2)))
    rho = run_noisy(c, NoiseSpec(p1=0.001, p2=0.01))
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10
    rho.validate()  # Hermitian, unit trace, eigenvalues >= -1e-8


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_depolarizing_channel_is_cptp_on_random_circuits(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 3), rng.randint(1, 10), rng)
    rho = run_noisy(c, NoiseSpec(p1=rng.random() * 0.2, p2=rng.random() * 0.2))
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10
    assert float(np.min(eigs)) > -1e-10


def test_run_noisy_builds_one_superoperator_per_kind_and_strength(monkeypatch):
    built = []
    real = dense_oracle._superoperator

    def counting(kind, p):
        built.append((kind, p))
        return real(kind, p)

    monkeypatch.setattr(dense_oracle, "_superoperator", counting)
    gates = (
        gate1(GateKind.H, 0),
        gate1(GateKind.H, 2),
        cnot(0, 1),
        gate1(GateKind.T, 1),
        cnot(2, 0),
        gate1(GateKind.H, 1),
        cnot(1, 2),
        gate1(GateKind.T, 0),
    )
    dense_oracle.superoperator_run_noisy(Circuit(3, gates), NoiseSpec(p1=0.01, p2=0.02))
    assert len(built) == 3
    assert set(built) == {(GateKind.H, 0.01), (GateKind.T, 0.01), (GateKind.CNOT, 0.02)}
    # Each call builds its own: a second call with other strengths builds anew.
    built.clear()
    dense_oracle.superoperator_run_noisy(Circuit(3, gates), NoiseSpec(p1=0.03, p2=0.03))
    assert len(built) == 3


# The four tests below check the deferred-noise oracle,
# `dense_oracle.deferred_run_noisy`, which `run_noisy` ran on the 2^n x 2^n
# matrix before it evolved Pauli coefficients.
def _count_depolarizing(monkeypatch) -> list[tuple[int, float]]:
    applied = []
    real = dense_oracle._depolarize_in_place

    def counting(rho, q, lam, num_qubits):
        applied.append((q, lam))
        return real(rho, q, lam, num_qubits)

    monkeypatch.setattr(dense_oracle, "_depolarize_in_place", counting)
    return applied


def test_run_noisy_without_noise_depolarizes_nothing(monkeypatch):
    applied = _count_depolarizing(monkeypatch)
    c = random_circuit(5, 60, random.Random(3))
    dense_oracle.deferred_run_noisy(c, NoiseSpec(p1=0.0, p2=0.0))
    assert applied == []


def test_run_noisy_merges_a_qubits_one_qubit_noise_into_one_channel(monkeypatch):
    applied = _count_depolarizing(monkeypatch)
    gates = (gate1(GateKind.H, 0), gate1(GateKind.T, 0), gate1(GateKind.X, 2), gate1(GateKind.H, 0))
    dense_oracle.deferred_run_noisy(Circuit(4, gates), NoiseSpec(p1=0.03, p2=0.0))
    lam = 1.0 - 4.0 * 0.03 / 3.0
    assert sorted(q for q, _ in applied) == [0, 2]  # qubits 1 and 3: no gate, no noise
    assert dict(applied)[0] == pytest.approx(lam**3)
    assert dict(applied)[2] == pytest.approx(lam)


def test_run_noisy_flushes_a_qubits_noise_before_its_next_cnot(monkeypatch):
    applied = _count_depolarizing(monkeypatch)
    lam = 1.0 - 4.0 * 0.02 / 3.0
    c = Circuit(3, (cnot(0, 1), cnot(1, 2)))
    dense_oracle.deferred_run_noisy(c, NoiseSpec(p1=0.0, p2=0.02))
    # Qubit 1's noise from the first CNOT, before the second; then the end.
    assert [q for q, _ in applied] == [1, 0, 1, 2]
    assert all(value == pytest.approx(lam) for _, value in applied)


def test_depolarize_writes_into_a_c_contiguous_array():
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    q, lam = 2, 0.9
    view = rho.reshape(2, 2, 4, 2, 2, 4)
    mixed = (0.5 * (1.0 - lam)) * (view[:, 0, :, :, 0] + view[:, 1, :, :, 1])
    want = lam * view
    want[:, 0, :, :, 0] += mixed
    want[:, 1, :, :, 1] += mixed
    transposed = rho.T.copy().T  # the same entries, F-contiguous
    out = dense_oracle._depolarize_in_place(transposed, q, lam, 4)
    assert out is not transposed and out.flags.c_contiguous
    assert np.array_equal(transposed, rho)  # a copy was written, not the input
    assert np.array_equal(out, want.reshape(16, 16))
    assert dense_oracle._depolarize_in_place(rho, q, lam, 4) is rho
    assert np.array_equal(rho, want.reshape(16, 16))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_deferred_oracle_matches_pauli_sum_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    c = random_circuit(n, rng.randint(0, 30), rng)
    p1, p2 = (rng.choice((0.0, 1.0, rng.random())) for _ in range(2))
    noise = NoiseSpec(p1=p1, p2=p2)
    got = dense_oracle.deferred_run_noisy(c, noise).matrix
    want = dense_oracle.run_noisy(c, noise).matrix
    assert np.max(np.abs(got - want)) < 1e-12


_PAULI_MATRICES = [np.eye(2)] + [
    simulator.GATE_MATRICES[k] for k in (GateKind.X, GateKind.Y, GateKind.Z)
]


def _pauli_string(a, num_qubits):
    """P_a, qubit q's factor the Pauli of digit q of a, qubit 0 lowest."""
    out = np.ones((1, 1))
    for q in reversed(range(num_qubits)):
        out = np.kron(out, _PAULI_MATRICES[a >> 2 * q & 3])
    return out


def _transfer_matrix(u, num_qubits):
    """tr(P_a U P_b U^dagger) / 2^k, from the matrix alone."""
    paulis = [_pauli_string(a, num_qubits) for a in range(4**num_qubits)]
    return np.array(
        [[np.trace(pa @ u @ pb @ u.conj().T).real for pb in paulis] for pa in paulis]
    ) / 2**num_qubits


def _is_signed_permutation(m):
    nonzero = m != 0
    return (
        np.all(nonzero.sum(axis=0) == 1)
        and np.all(nonzero.sum(axis=1) == 1)
        and np.all(np.abs(m[nonzero]) == 1)
    )


@pytest.mark.parametrize("kind", list(GateKind))
def test_each_kinds_pauli_transfer_matrix_matches_its_unitary(kind):
    if kind is GateKind.CNOT:
        u = unitary_of(Circuit(2, (cnot(0, 1),)))  # control on digit 0, as `_ptm` has it
        k = 2
    else:
        u, k = simulator.GATE_MATRICES[kind], 1
    ptm = simulator._ptm(kind)
    assert ptm.shape == (4**k, 4**k)
    assert np.max(np.abs(ptm - _transfer_matrix(u, k))) < 1e-12
    assert _is_signed_permutation(ptm) == (kind not in (GateKind.T, GateKind.TDG))


@pytest.mark.parametrize("lam", [0.9, 1 - 4 * 0.37 / 3, -1 / 3])
def test_depolarizing_is_a_pauli_scale(lam):
    # diag(1, lam, lam, lam) on one qubit's Pauli digit is the Pauli-sum
    # channel with p = 3 (1 - lam) / 4; lam = -1/3 is p = 1.
    rng = np.random.default_rng(8)
    identity = np.eye(4)
    for n in (1, 2, 3):
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        coeffs = np.array([np.trace(_pauli_string(b, n) @ rho).real for b in range(4**n)])
        assert np.max(np.abs(simulator._density(coeffs, [identity] * n, n) - rho)) < 1e-12
        for q in range(n):
            scaled = simulator._pass(coeffs, simulator._pending(identity, lam), q)
            got = simulator._density(scaled, [identity] * n, n)
            want = dense_oracle._depolarize(rho, q, 3 * (1 - lam) / 4, n)
            assert np.max(np.abs(got - want)) < 1e-12


def test_run_noisy_matches_dense_oracle_on_the_400_gate_benchmark_circuit(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up there
    spec.loader.exec_module(gen)
    (case,) = [c for c in gen.random5_cases(77) if c.name == "r5_400@qx2"]
    c = qasm.parse(case.qasm)
    assert (c.num_qubits, len(c.gates)) == (5, 400)
    for noise in (NoiseSpec(), NoiseSpec(p1=1.0, p2=1.0)):
        got = run_noisy(c, noise).matrix
        want = dense_oracle.run_noisy(c, noise).matrix
        assert np.max(np.abs(got - want)) < 1e-12


def _count_passes(monkeypatch) -> list:
    passes = []
    real = simulator._pass

    def counting(coeffs, op, q):
        passes.append(q)
        return real(coeffs, op, q)

    monkeypatch.setattr(simulator, "_pass", counting)
    return passes


def test_run_noisy_passes_over_the_coefficients_only_at_cnots(monkeypatch):
    passes = _count_passes(monkeypatch)
    rng = random.Random(12)
    one_qubit = [k for k in GateKind if k is not GateKind.CNOT]
    for noise in (NoiseSpec(), NoiseSpec(p1=0.0, p2=0.0), NoiseSpec(p1=1.0, p2=0.5)):
        gates = tuple(gate1(rng.choice(one_qubit), rng.randrange(6)) for _ in range(200))
        passes.clear()
        run_noisy(Circuit(6, gates), noise)
        assert passes == []
        for _ in range(5):
            c = random_circuit(6, 120, rng)
            passes.clear()
            run_noisy(c, noise)
            cnots = sum(g.kind is GateKind.CNOT for g in c.gates)
            assert passes.count(None) == cnots  # one gather per CNOT
            assert len(passes) <= 3 * cnots
    # Without noise, a CNOT after only CNOTs on its qubits is its gather alone.
    passes.clear()
    run_noisy(Circuit(3, (cnot(0, 1), cnot(1, 2), cnot(0, 2))), NoiseSpec(p1=0.0, p2=0.0))
    assert passes == [None, None, None]


def test_run_noisy_passes_over_no_product_that_is_the_identity(monkeypatch):
    # H H, and S S Z, multiply back to the identity before the CNOT: without
    # noise only the CNOT's gather passes; with noise on qubit 0, its
    # channel does too.
    passes = _count_passes(monkeypatch)
    h = (gate1(GateKind.H, 0),) * 2
    s = (gate1(GateKind.S, 0),) * 2 + (gate1(GateKind.Z, 0),)
    for ones, noise, want in (
        (h, NoiseSpec(p1=0.0, p2=0.0), [None]),
        (s, NoiseSpec(p1=0.0, p2=0.0), [None]),
        (h, NoiseSpec(p1=0.1, p2=0.0), [0, None]),
    ):
        c = Circuit(2, ones + (cnot(0, 1), gate1(GateKind.H, 1)))
        passes.clear()
        rho = run_noisy(c, noise)
        assert passes == want
        assert np.max(np.abs(rho.matrix - dense_oracle.run_noisy(c, noise).matrix)) < 1e-12


def test_cached_gate_moves_refuse_writes():
    src, phase = simulator._move(GateKind.CNOT, (0, 1), 3, 0)
    assert phase is None
    with pytest.raises(ValueError):
        src[0] = 5
    src, phase = simulator._move(GateKind.Y, (1,), 3, 0)
    with pytest.raises(ValueError):
        phase[0] = 0.0
    assert simulator._move(GateKind.Y, (1,), 3, 0)[0] is src
    # A window's fold: H0 CNOT(0, 1) H1 H0 CNOT(1, 0) H1 is the identity,
    # and then an X on wire 0 makes M = X0, a real permutation.
    held = (
        (GateKind.CNOT, (0, 1)),
        (GateKind.H, (1,)),
        (GateKind.H, (0,)),
        (GateKind.CNOT, (1, 0)),
        (GateKind.H, (1,)),
    )
    assert simulator._window_move(held, 3) == (None, None, 0)
    src, phase, g = simulator._window_move(held + ((GateKind.X, (0,)),), 3)
    assert g == 0 and phase is None
    assert np.array_equal(src, np.arange(8) ^ 1)
    with pytest.raises(ValueError):
        src[0] = 5
    assert simulator._window_move(held + ((GateKind.X, (0,)),), 3)[0] is src


def _as_arrays(step, num_qubits):
    """A (src, phase) step with None read as the identity or all-one phases."""
    idx, ones = simulator._identity(num_qubits)
    return (idx if step[0] is None else step[0]), (ones if step[1] is None else step[1])


# Gates a window may hold, one of each way a Clifford gate turns the images
# of Z on its wires: H on either wire, S and SDG (X to +-Y), a Pauli (signs
# only), and the CNOT both ways.
WINDOW_ALPHABET = [(GateKind.H, (0,)), (GateKind.H, (1,)), (GateKind.S, (0,)), (GateKind.SDG, (1,))]
WINDOW_ALPHABET += [(GateKind.Y, (0,)), (GateKind.CNOT, (0, 1)), (GateKind.CNOT, (1, 0))]


def test_derived_moves_match_the_typed_rules():
    # Each step `_plan` folds is its gate's conjugate through the frame,
    # derived from the gate's matrix, against the rules typed by hand: the
    # same arrays, entry for entry and of the same dtype.
    for n in range(2, 7):
        for kind in GateKind:
            if kind is GateKind.H:
                continue
            width = 2 if kind is GateKind.CNOT else 1
            for qubits in itertools.permutations(range(n), width):
                for f in range(2**width):
                    framed = sum(1 << q for j, q in enumerate(qubits) if f >> j & 1)
                    got = simulator._move(kind, qubits, n, framed)
                    want = dense_oracle.typed_move(kind, qubits, n, framed)
                    assert (got is None) == (want is None), (kind, qubits, n, framed)
                    if got is not None:
                        for a, b in zip(_as_arrays(got, n), _as_arrays(want, n)):
                            assert a.dtype == b.dtype and np.array_equal(a, b)
    # Every sequence of up to 5 gates after a window's CNOT: the fold's G,
    # or None, is the one the typed images of Z give, and H_G M is U.
    cnot01 = (GateKind.CNOT, (0, 1))
    for length in range(6):
        for seq in itertools.product(WINDOW_ALPHABET, repeat=length):
            images = dense_oracle.typed_turn(GateKind.H, 0, 0, 0x84)
            u = simulator._IN_WINDOW[GateKind.H, (0,)]
            for kind, qubits in (cnot01,) + seq:
                images = dense_oracle.typed_turn(kind, qubits[0], qubits[-1], images)
                u = simulator._IN_WINDOW[kind, qubits] @ u
            step = simulator._window_move.__wrapped__((cnot01,) + seq, 2)
            want = dense_oracle.typed_window_mask(images)
            assert (None if step is None else step[2]) == want, seq
            if step is not None:
                src, phase = _as_arrays(step, 2)
                m = np.zeros((4, 4), dtype=complex)
                m[np.arange(4), src] = phase
                assert np.max(np.abs(simulator._H_ON[want] @ m - u)) < 1e-12


def test_derived_cnot_gather_matches_the_typed_one():
    # `run_noisy`'s CNOT step, derived by `_embed` from the CNOT's PTM with
    # two bits per wire, against the index arithmetic typed by hand: the
    # same read-only arrays, entry for entry and of the same dtype.
    for n in range(2, 7):
        for control, target in itertools.permutations(range(n), 2):
            got = simulator._cnot_gather(control, target, n)
            want = dense_oracle.typed_cnot_gather(control, target, n)
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (control, target, n)
                assert not a.flags.writeable


def test_run_ideal_refuses_an_initial_state_of_another_width():
    with pytest.raises(ValueError) as info:
        run_ideal(Circuit(2), basis_state(3))
    assert str(info.value) == "initial state has 3 qubits, circuit 2"


def test_run_noisy_width_cap():
    with pytest.raises(ValueError, match="cap"):
        run_noisy(Circuit(7), NoiseSpec())


def test_measure_probs_basis_state():
    probs = measure_probs(basis_state(3))
    assert probs.probs["000"] == 1.0


def test_measure_probs_ghz():
    c = Circuit(3, (gate1(GateKind.H, 0), cnot(0, 1), cnot(1, 2)))
    probs = measure_probs(run_ideal(c))
    assert probs.probs["000"] == pytest.approx(0.5, abs=1e-12)
    assert probs.probs["111"] == pytest.approx(0.5, abs=1e-12)


def test_measure_probs_uniform_superposition():
    c = Circuit(3, tuple(gate1(GateKind.H, q) for q in range(3)))
    probs = measure_probs(run_ideal(c))
    assert all(p == pytest.approx(1 / 8, abs=1e-12) for p in probs.probs.values())


def test_measure_probs_density_matrix_diagonal():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    probs = measure_probs(rho)
    assert probs.probs["0"] == 0.25
    assert probs.probs["1"] == 0.75


# Differential tests: the gate kernel against the dense Kronecker-product
# reference in dense_oracle.py.


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000))
def test_unitary_and_run_ideal_match_dense_oracle(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 5), rng.randint(0, 30), rng)
    reference = dense_oracle.unitary_of(c)
    assert np.max(np.abs(unitary_of(c) - reference)) < 1e-12
    assert np.max(np.abs(run_ideal(c).amplitudes - reference[:, 0])) < 1e-12
    psi = StateVector(reference[:, -1].copy())
    assert np.max(np.abs(run_ideal(c, psi).amplitudes - reference @ psi.amplitudes)) < 1e-12


# The kernel against the per-gate kernel it replaced, one pass over the array
# per gate, at every width up to 9.


def _monomial_gates(n, num_gates, rng):
    """A random circuit's gates without its H gates."""
    return [g for g in random_circuit(n, num_gates, rng).gates if g.kind is not GateKind.H]


def _random_state(rng, n):
    nprng = np.random.default_rng(rng.randrange(2**32))
    amp = nprng.standard_normal(2**n) + 1j * nprng.standard_normal(2**n)
    return StateVector(amp / np.linalg.norm(amp))


def _assert_matches_per_gate_oracle(c, rng):
    dim = 2**c.num_qubits
    identity = np.eye(dim, dtype=complex)
    assert np.max(np.abs(unitary_of(c) - dense_oracle.evolve_by_gate(c, identity))) < 1e-12
    basis = basis_state(c.num_qubits).amplitudes
    want = dense_oracle.evolve_by_gate(c, basis)
    assert np.max(np.abs(run_ideal(c).amplitudes - want)) < 1e-12
    psi = _random_state(rng, c.num_qubits)
    want = dense_oracle.evolve_by_gate(c, psi.amplitudes)
    assert np.max(np.abs(run_ideal(c, psi).amplitudes - want)) < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_unitary_and_run_ideal_match_per_gate_oracle(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 9), rng.randint(0, 40), rng)
    _assert_matches_per_gate_oracle(c, rng)


@pytest.mark.parametrize("shape", ["h-free", "h-only", "ends-monomial"])
@pytest.mark.parametrize("n", range(1, 10))
def test_kernel_shapes_match_per_gate_oracle(shape, n):
    rng = random.Random(f"{shape}/{n}")
    if shape == "h-free":  # the whole matrix comes from one scatter
        gates = _monomial_gates(n, 30, rng)
    elif shape == "h-only":
        gates = [gate1(GateKind.H, rng.randrange(n)) for _ in range(12)]
    else:  # H gates inside, then a monomial run applied at the end
        gates = list(random_circuit(n, 20, rng).gates) + [gate1(GateKind.H, 0)]
        gates += _monomial_gates(n, 10, rng)
    _assert_matches_per_gate_oracle(Circuit(n, tuple(gates)), rng)


def _record_passes(monkeypatch) -> list[str]:
    """Record each pass `_run` makes over the array, "gather" or "H"."""
    passes = []
    real_gather, real_hadamard = simulator._gather, simulator._hadamard

    def gather(rows, src, phase):
        passes.append("gather")
        return real_gather(rows, src, phase)

    def hadamard(rows, q, num_qubits):
        passes.append("H")
        return real_hadamard(rows, q, num_qubits)

    monkeypatch.setattr(simulator, "_gather", gather)
    monkeypatch.setattr(simulator, "_hadamard", hadamard)
    return passes


def test_kernel_passes_over_the_array_at_most_twice_per_h(monkeypatch):
    # The frame applies at most one H pass per H gate, and a gather only
    # before an H pass or at the end.
    passes = _record_passes(monkeypatch)
    rng = random.Random(13)
    for n in (2, 5, 9):
        for _ in range(5):
            c = random_circuit(n, 40, rng)
            k = sum(g.kind is GateKind.H for g in c.gates)
            for run in (lambda: unitary_of(c), lambda: run_ideal(c)):
                passes.clear()
                run()
                assert passes.count("H") <= k
                assert len(passes) <= 2 * passes.count("H") + 1
    h_free = Circuit(9, tuple(_monomial_gates(9, 60, rng)))
    passes.clear()
    unitary_of(h_free)
    assert passes == ["gather"]


LADDER8 = "qubits 8\n0 1\n2 1\n2 3\n4 5\n6 5\n6 7\n0 4\n5 1\n2 6\n7 3\n"


def test_every_table_entry_plans_to_one_gather(monkeypatch, qx2_table, qx4_table):
    # Each entry is a CNOT realized with H-conjugated CNOTs against the
    # edges' direction, so as a matrix it is a permutation.
    passes = _record_passes(monkeypatch)
    ladder8 = build_table(load(LADDER8, name="ladder8"))
    for table in (qx2_table, qx4_table, ladder8):
        for entry in table.entries.values():
            passes.clear()
            unitary_of(entry.sequence)
            assert passes == ["gather"]


def test_window_folds_a_reversed_cnot_whose_h_gates_moved(monkeypatch):
    # c1's H3 CNOT(3, 2) against a mapped c2 that wrote the CNOT reversed,
    # H2 CNOT(2, 3) H3 H2, with the H3 before it merged with c1's: the
    # miter `_seam` leaves, whose product is the identity. One gate at a
    # time the frame flushes H3 twice here.
    passes = _record_passes(monkeypatch)
    h = lambda q: gate1(GateKind.H, q)  # noqa: E731
    middle = (h(3), cnot(3, 2), h(2), h(3), cnot(2, 3), h(2))
    ends = (gate1(GateKind.TDG, 3), cnot(2, 6), gate1(GateKind.S, 3))
    tail = (gate1(GateKind.SDG, 3), cnot(2, 6), gate1(GateKind.T, 3))
    u = unitary_of(Circuit(8, ends + middle + tail))
    assert passes == ["gather"]
    assert np.max(np.abs(u - np.eye(256))) < 1e-12


@pytest.mark.parametrize("kind", [GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG])
def test_window_folds_only_a_monomial_product(kind):
    # With a Pauli in the middle the window's product would be monomial;
    # with a phase gate it mixes two rows (S) or leaves the Clifford group
    # (T), and the window must not fold it.
    gates = (gate1(GateKind.H, 0), cnot(0, 1), gate1(kind, 1), cnot(0, 1), gate1(GateKind.H, 0))
    pairs = [(g.kind, g.qubits) for g in gates]
    want = simulator._run(dense_oracle.frameless_plan(pairs, 3, columns=True), range(8), 3)
    assert np.max(np.abs(unitary_of(Circuit(3, gates)) - want)) < 1e-12


# A 5-qubit input relabeled two ways: the exhaustive search on the 8-qubit
# ladder breaks its ties differently for each, and writes one of its
# reversed CNOTs with its H gates in different places.
TIED_INPUTS = (
    "tdg q[4]; cx q[3],q[2]; s q[4]; h q[2]; h q[4]; z q[0]; t q[2]; t q[1]; cx q[4],q[3]; "
    "h q[1]; t q[1]; y q[3]; sdg q[3]; y q[2]; s q[2]; cx q[1],q[0]; y q[3]; cx q[2],q[1]; "
    "sdg q[3]; tdg q[3];",
    "tdg q[1]; cx q[2],q[4]; s q[1]; h q[4]; h q[1]; z q[3]; t q[4]; t q[0]; cx q[1],q[2]; "
    "h q[0]; t q[0]; y q[2]; sdg q[2]; y q[4]; s q[4]; cx q[0],q[3]; y q[2]; cx q[4],q[0]; "
    "sdg q[2]; tdg q[2];",
)


def test_dense_check_costs_the_same_whichever_tied_placement_won(monkeypatch):
    passes = _record_passes(monkeypatch)
    ladder8 = build_table(load(LADDER8, name="ladder8"))
    header = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n'
    for body in TIED_INPUTS:
        c = qasm.parse(header + body.replace("; ", ";\n") + "\n")
        res = placement.optimize(c, ladder8)
        passes.clear()
        assert equivalent(c, res.mapped, list(res.placement), tol=1e-8)
        # The miter is the identity: one gather for each of the two blocks.
        assert passes == ["gather", "gather"]


def _frame_gates(n, num_gates, rng):
    """Mostly H, X, Y, Z and CNOT gates, with some S, SDG, T and TDG."""
    paulis = (GateKind.H, GateKind.H, GateKind.X, GateKind.Y, GateKind.Z)
    phases = (GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)
    gates = []
    for _ in range(num_gates):
        r = rng.random()
        if n > 1 and r < 0.35:
            gates.append(cnot(*rng.sample(range(n), 2)))
        else:
            gates.append(gate1(rng.choice(paulis if r < 0.9 else phases), rng.randrange(n)))
    return gates


def _through_hadamards(gates, rng):
    """`gates` with about half of each CNOT, X, Y and Z written as its
    H-conjugate between H gates: the same unitary up to a global phase
    (H Y H = -Y)."""
    through = {GateKind.X: GateKind.Z, GateKind.Y: GateKind.Y, GateKind.Z: GateKind.X}
    out = []
    for g in gates:
        if rng.random() < 0.5 or g.kind not in through and g.kind is not GateKind.CNOT:
            out.append(g)
            continue
        hs = tuple(gate1(GateKind.H, q) for q in g.qubits)
        if g.kind is GateKind.CNOT:
            middle = cnot(g.qubits[1], g.qubits[0])
        else:
            middle = gate1(through[g.kind], g.qubits[0])
        out += [*hs, middle, *hs]
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 10), st.integers(0, 10_000))
def test_frame_matches_the_frameless_plan(n, seed):
    rng = random.Random(seed)
    c = Circuit(n, tuple(_frame_gates(n, rng.randint(0, 40), rng)))
    pairs = [(g.kind, g.qubits) for g in c.gates]
    dim = 2**n
    # Entrywise, so the global phase must agree too.
    want = simulator._run(dense_oracle.frameless_plan(pairs, n, columns=True), range(dim), n)
    assert np.max(np.abs(unitary_of(c) - want)) < 1e-12
    psi = _random_state(rng, n)
    want = simulator._run(dense_oracle.frameless_plan(pairs, n), psi.amplitudes, n)
    assert np.max(np.abs(run_ideal(c, psi).amplitudes - want)) < 1e-12
    assert np.max(np.abs(run_ideal(c).amplitudes - unitary_of(c)[:, 0])) < 1e-12
    n1 = rng.randint(1, n)
    c1 = Circuit(n1, tuple(_frame_gates(n1, rng.randint(0, 30), rng)))
    perm = tuple(rng.sample(range(n), n1))
    mapped = relabel(Circuit(n1, tuple(_through_hadamards(c1.gates, rng))), perm, n)
    # One gate is never a multiple of the identity.
    extra = Circuit(n, mapped.gates + tuple(_frame_gates(n, 1, rng)))
    for c2, expected in ((mapped, True), (extra, False), (c, None)):
        verdict = equivalent(c1, c2, perm)
        assert verdict == dense_oracle.miter_equivalent(c1, c2, perm)
        if expected is not None:
            assert verdict is expected


def test_run_ideal_starts_with_h_without_copying_the_state(monkeypatch):
    gathers = []
    real_gather = simulator._gather

    def gather(rows, src, phase):
        gathers.append(src)
        return real_gather(rows, src, phase)

    monkeypatch.setattr(simulator, "_gather", gather)
    c = Circuit(3, (gate1(GateKind.H, 0), cnot(0, 1), cnot(1, 2)))
    psi = run_ideal(c).amplitudes
    assert len(gathers) == 1
    assert np.allclose(psi, dense_oracle.evolve_by_gate(c, basis_state(3).amplitudes))


def test_run_ideal_of_an_empty_circuit_returns_a_new_array():
    initial = basis_state(2)
    out = run_ideal(Circuit(2), initial).amplitudes
    assert out is not initial.amplitudes
    assert np.array_equal(out, initial.amplitudes)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_run_noisy_matches_dense_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    gates = list(random_circuit(n, rng.randint(0, 20), rng).gates)
    if n >= 3:
        # CNOTs across at least one wire, control above and below the target.
        lo = rng.randrange(n - 2)
        hi = rng.randrange(lo + 2, n)
        for g in (cnot(lo, hi), cnot(hi, lo)):
            gates.insert(rng.randint(0, len(gates)), g)
    c = Circuit(n, tuple(gates))
    p1, p2 = (rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(2))
    noise = NoiseSpec(p1=p1, p2=p2)
    got = run_noisy(c, noise).matrix
    want = dense_oracle.run_noisy(c, noise).matrix
    assert np.max(np.abs(got - want)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_run_noisy_matches_superoperator_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    c = random_circuit(n, rng.randint(0, 40), rng)
    p1, p2 = (rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(2))
    noise = NoiseSpec(p1=p1, p2=p2)
    got = run_noisy(c, noise).matrix
    want = dense_oracle.superoperator_run_noisy(c, noise).matrix
    assert np.max(np.abs(got - want)) < 1e-12


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10_000))
def test_equivalent_verdicts_match_dense_oracle(seed):
    rng = random.Random(seed)
    n1 = rng.randint(1, 4)
    n2 = rng.randint(n1, 5)
    c = random_circuit(n1, rng.randint(0, 20), rng)
    perm = rng.sample(range(n2), n1)
    mapped = simplify(relabel(c, perm, n2))
    extra = random_circuit(n2, 1, rng).gates
    broken = Circuit(n2, mapped.gates + extra)
    other_perm = rng.sample(range(n2), n1)
    cases = [
        (mapped, perm, True),  # padded and permuted
        (broken, perm, False),  # one gate too many
        (mapped, other_perm, None),  # another placement: either verdict
    ]
    for second, placement, expected in cases:
        verdict = equivalent(c, second, placement)
        assert verdict == dense_oracle.equivalent(c, second, placement)
        if expected is not None:
            assert verdict is expected


# The column-block equivalence check against the whole-matrix check it
# replaced, at every width up to the dense cap.


def _toffoli(a, b, t):
    """CCX on control wires a, b and target t as Clifford+T gates."""
    h, tg, td = GateKind.H, GateKind.T, GateKind.TDG
    return (
        gate1(h, t), cnot(b, t), gate1(td, t), cnot(a, t), gate1(tg, t), cnot(b, t),
        gate1(td, t), cnot(a, t), gate1(tg, b), gate1(tg, t), gate1(h, t), cnot(a, b),
        gate1(tg, a), gate1(td, b), cnot(a, b),
    )


def _multi_controlled_x(controls, spare, target):
    """X on `target` when every control wire is 1, from Toffolis that borrow
    len(controls) - 2 `spare` wires in any state and restore them."""
    x = list(controls)
    m = len(x)
    if m <= 1:
        return (cnot(x[0], target),) if x else (gate1(GateKind.X, target),)
    if m == 2:
        return _toffoli(x[0], x[1], target)
    y = list(spare[: m - 2])
    ladder = [_toffoli(x[k], y[k - 2], y[k - 1]) for k in range(m - 2, 1, -1)]
    half = ladder + [_toffoli(x[0], x[1], y[0])] + ladder[::-1]
    top = _toffoli(x[-1], y[-1], target)
    return sum([top, *half, top, *half], ())


def _block_flip(n, block):
    """A prefix that changes only the first or the last column block of
    `equivalent`: X on wire 0 controlled by the wires that number the blocks
    being all 0 or all 1, or Z on wire 0 when one block covers the matrix."""
    low = simulator._block_width(n).bit_length() - 1
    if low == n:
        return (gate1(GateKind.Z, 0),)
    flip = _multi_controlled_x(range(low, n), range(1, low), 0)
    if block == "last":
        return flip
    zeros = tuple(gate1(GateKind.X, q) for q in range(low, n))
    return zeros + flip + zeros


@pytest.mark.parametrize("block", ["first", "last"])
@pytest.mark.parametrize("n", range(1, 11))
def test_block_flip_moves_only_its_column_block(n, block):
    u = unitary_of(Circuit(n, _block_flip(n, block)))
    width = simulator._block_width(n)
    inside = slice(0, width) if block == "first" else slice(2**n - width, 2**n)
    moved = u - np.eye(2**n)
    assert np.max(np.abs(moved[:, inside])) > 0.5
    moved[:, inside] = 0
    assert np.max(np.abs(moved)) < 1e-12


@pytest.mark.parametrize("n", range(1, 11))
@settings(deadline=None, max_examples=3)
@given(st.integers(0, 10_000))
def test_blocked_equivalent_matches_whole_matrix_oracle(n, seed):
    rng = random.Random(seed)
    n1 = rng.randint(1, n)
    c = random_circuit(n1, rng.randint(0, 16), rng)
    perm = rng.sample(range(n), n1)
    placed = relabel(c, perm, n)
    mapped = simplify(placed)
    extra = random_circuit(n, 1, rng).gates
    q = rng.randrange(n)
    phase_i = (gate1(GateKind.Y, q), gate1(GateKind.X, q), gate1(GateKind.Z, q))  # Z X Y = i I
    cases = [
        (c, mapped, perm, True),  # padded and permuted
        (c, Circuit(n, mapped.gates + extra), perm, False),  # one gate too many
        (c, mapped, rng.sample(range(n), n1), None),  # another placement: either verdict
        (c, Circuit(n, mapped.gates + phase_i), perm, True),  # a pure global phase
        (placed, Circuit(n, _block_flip(n, "last") + placed.gates), None, False),
    ]
    if n > 1:
        # Below an X on the top wire, row 0 of the unitary is zero on every
        # column whose top bit is clear: the oracle reads its phase in the
        # upper half, the miter still at V[0, 0].
        below = random_circuit(n - 1, rng.randint(0, 16), rng)
        top = (gate1(GateKind.X, n - 1),)
        flipped = Circuit(n, top + below.gates)
        cases += [
            (flipped, Circuit(n, top + simplify(below).gates), None, True),
            (flipped, Circuit(n, top + below.gates + extra), None, False),
            # From 8 qubits, V's first block is phi I and a later one is not.
            (flipped, Circuit(n, _block_flip(n, "first") + flipped.gates), None, False),
        ]
    for first, second, placement, expected in cases:
        verdict = equivalent(first, second, placement)
        assert verdict == dense_oracle.whole_matrix_equivalent(first, second, placement)
        if expected is not None:
            assert verdict is expected


def test_equivalent_plans_the_placement_without_relabeling(monkeypatch):
    rng = random.Random(28)
    cases = []
    for n in range(1, 10):
        n1 = rng.randint(1, n)
        c = random_circuit(n1, rng.randint(0, 24), rng)
        perm = tuple(rng.sample(range(n), n1))
        placed = relabel(c, perm, n)
        extra = Circuit(n, simplify(placed).gates + random_circuit(n, 1, rng).gates)
        for second, placement in ((simplify(placed), perm), (extra, perm), (placed, None)):
            cases.append((c, second, placement))
    want = [dense_oracle.whole_matrix_equivalent(*case) for case in cases]
    assert True in want and False in want

    def refuse(*args, **kwargs):
        raise AssertionError("equivalent relabeled a circuit")

    checks = []
    real_check = simulator.check_placement

    def check(*args):
        checks.append(args)
        return real_check(*args)

    monkeypatch.setattr(circuit_module, "relabel", refuse)
    monkeypatch.setattr(simulator, "relabel", refuse, raising=False)
    monkeypatch.setattr(simulator, "check_placement", check)
    for case, verdict in zip(cases, want):
        checks.clear()
        assert equivalent(*case) is verdict
        assert len(checks) == 1


def _h_layer_then_monomials(n, num_gates, rng):
    """H on every wire, then monomial gates: every entry of the unitary is
    nonzero, so every column block of its miter against the same circuit
    with one more T differs from a multiple of the identity."""
    layer = tuple(gate1(GateKind.H, q) for q in range(n))
    return Circuit(n, layer + tuple(_monomial_gates(n, num_gates, rng)))


def test_equivalent_builds_one_block_of_each_when_the_anchor_block_differs(monkeypatch):
    # One plan runs c1 then c2's inverse, so a block is one run: the first
    # block of the miter differs, and an equal pair runs each block once.
    # T T against S on every wire keeps the equal pair's seam from
    # cancelling; c against itself would cancel to V = I and run nothing.
    runs = []
    real_run = simulator._run

    def run(plan, rows, num_qubits):
        runs.append(rows)
        return real_run(plan, rows, num_qubits)

    monkeypatch.setattr(simulator, "_run", run)
    c = _h_layer_then_monomials(9, 40, random.Random(9))
    assert not equivalent(c, Circuit(9, c.gates + (gate1(GateKind.T, 0),)))
    assert runs == [range(0, 64)]
    runs.clear()
    tt = tuple(gate1(GateKind.T, q) for q in range(9)) * 2
    s = tuple(gate1(GateKind.S, q) for q in range(9))
    assert equivalent(Circuit(9, c.gates + tt), Circuit(9, c.gates + s))
    assert runs == [range(j, j + 64) for j in range(0, 512, 64)]


def test_equivalent_at_the_dense_cap_holds_a_few_blocks():
    layer = tuple(gate1(GateKind.H, q) for q in range(10))
    c = Circuit(10, layer + random_circuit(10, 60, random.Random(13)).gates)
    assert abs(run_ideal(c).amplitudes[0]) > 1e-9  # the anchor is column 0
    same = simplify(c)
    assert equivalent(c, same)  # fills the gate caches outside the trace
    tracemalloc.start()
    try:
        assert equivalent(c, same)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the two whole unitaries alone take 32 MB


def test_equivalent_refuses_past_the_cap_before_planning(monkeypatch):
    def plan(*args, **kwargs):
        raise AssertionError("planned a circuit past the dense cap")

    monkeypatch.setattr(simulator, "_plan", plan)
    with pytest.raises(ValueError, match="cap of 10"):
        equivalent(Circuit(2), Circuit(11))
    c = random_circuit(12, 30, random.Random(12))  # its miter would cancel completely
    with pytest.raises(ValueError, match="cap of 10"):
        equivalent(c, c)


def test_equivalent_refuses_a_bad_tolerance_before_any_work(monkeypatch):
    def check(*args):
        raise AssertionError("checked the placement of a refused tolerance")

    monkeypatch.setattr(simulator, "check_placement", check)
    c = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1)))
    for tol in (math.nan, math.inf, -math.inf, -1e-9):
        with pytest.raises(ValueError, match="tolerance"):
            equivalent(c, c, tol=tol)


# The seam cancellation: inverse pairs where c1's gates meet c2's inverted
# ones leave the miter's product V as it was.


def _commuted(gates, rng):
    """`gates` in a random order that keeps the order of every two gates
    that share a wire, so the product is unchanged."""
    gates, out = list(gates), []
    while gates:
        ready = []
        busy = set()
        for i, g in enumerate(gates):
            if busy.isdisjoint(g.qubits):
                ready.append(i)
            busy.update(g.qubits)
        out.append(gates.pop(rng.choice(ready)))
    return tuple(out)


def _with_inverse_pairs(gates, n, rng):
    """`gates` with one to three g g^dagger pairs inserted, each at the end
    or at a random place."""
    gates = list(gates)
    for _ in range(rng.randint(1, 3)):
        g = random_circuit(n, 1, rng).gates[0]
        at = rng.choice([len(gates), rng.randint(0, len(gates))])
        gates[at:at] = [g, Gate(inverse_of(g.kind), g.qubits)]
    return tuple(gates)


def _seam_pairs(n, rng):
    """Cases (c1, c2, placement, verdict) on n wires, c1 possibly narrower,
    most of them sharing a tail up to commutation; verdict None when either
    is possible."""
    n1 = rng.randint(1, n)
    perm = tuple(rng.sample(range(n), n1)) if rng.random() < 0.6 else None
    place = range(n1) if perm is None else perm
    body = random_circuit(n1, rng.randint(0, 12), rng).gates
    shared = random_circuit(n1, rng.randint(0, 16), rng).gates
    c1 = Circuit(n1, body + shared)
    placed_body = relabel(Circuit(n1, body), place, n).gates
    tail = _commuted(relabel(Circuit(n1, shared), place, n).gates, rng)
    c2 = Circuit(n, placed_body + tail)
    # One gate is never a multiple of the identity.
    extra = random_circuit(n, 1, rng).gates
    q = rng.randrange(n1)
    s_on_q = Circuit(n1, c1.gates + (gate1(GateKind.S, q),))
    cases = [
        (c1, c2, True),  # a shared tail
        (c1, Circuit(n, placed_body + extra + tail), False),  # one gate more below it
        (c1, Circuit(n, c2.gates + extra), False),  # one gate more above it
        (Circuit(n1, c1.gates + random_circuit(n1, 1, rng).gates), c2, False),  # in c1
        (c1, Circuit(n, tail), None),  # c1's body left over
        (Circuit(n1, _with_inverse_pairs(c1.gates, n1, rng)), c2, True),
        (c1, Circuit(n, _with_inverse_pairs(c2.gates, n, rng)), True),
        # S meets S, never its inverse: c2 ends in S^dagger, so V has S S.
        (s_on_q, Circuit(n, c2.gates + (gate1(GateKind.SDG, place[q]),)), False),
        (s_on_q, Circuit(n, c2.gates + (gate1(GateKind.S, place[q]),)), True),
    ]
    if n1 > 1:
        a, b = rng.sample(range(n1), 2)
        cx_ab = Circuit(n1, c1.gates + (cnot(a, b),))
        cases.append((cx_ab, Circuit(n, c2.gates + (cnot(place[b], place[a]),)), False))
    return [(first, second, perm, verdict) for first, second, verdict in cases]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 10), st.integers(0, 10_000))
def test_equivalent_verdicts_match_the_uncancelled_miter(n, seed):
    rng = random.Random(seed)
    for c1, c2, perm, expected in _seam_pairs(n, rng):
        verdict = equivalent(c1, c2, perm)
        assert verdict == dense_oracle.miter_equivalent(c1, c2, perm)
        assert verdict == dense_oracle.whole_matrix_equivalent(c1, c2, perm)
        if expected is not None:
            assert verdict is expected


def _full_miter(c1, c2, perm):
    wire = range(c2.num_qubits) if perm is None else perm
    head = [(g.kind, tuple(wire[q] for q in g.qubits)) for g in c1.gates]
    return head + [(inverse_of(g.kind), g.qubits) for g in reversed(c2.gates)]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_seam_leaves_the_miter_product_unchanged(n, seed):
    # Exact inverse pairs only: the products agree to rounding, with no
    # phase freedom, whatever the verdict.
    rng = random.Random(seed)
    for c1, c2, perm, _ in _seam_pairs(n, rng):
        full = _full_miter(c1, c2, perm)
        tail = iter(full[len(c1.gates) :])
        seamed = simulator._seam(full[: len(c1.gates)], tail, n) + list(tail)
        dim = 2**n
        before = simulator._run(simulator._plan(full, n, columns=True), range(dim), n)
        after = simulator._run(simulator._plan(seamed, n, columns=True), range(dim), n)
        assert np.max(np.abs(before - after)) < 1e-9


def test_seam_cancels_only_inverse_pairs_on_the_same_qubit_tuple():
    h, s, sdg, x = GateKind.H, GateKind.S, GateKind.SDG, GateKind.X
    cx = GateKind.CNOT
    cases = [
        # (head, tail, what is left)
        ([(s, (0,))], [(sdg, (0,))], []),
        ([(s, (0,))], [(s, (0,))], [(s, (0,)), (s, (0,))]),
        ([(cx, (0, 1))], [(cx, (0, 1))], []),
        ([(cx, (0, 1))], [(cx, (1, 0))], [(cx, (0, 1)), (cx, (1, 0))]),
        # The CNOT is not on top of wire 1, whose H shares a qubit with it.
        ([(cx, (0, 1)), (h, (1,))], [(cx, (0, 1))], [(cx, (0, 1)), (h, (1,)), (cx, (0, 1))]),
        # H on wire 2 is off the CNOT's wires, so they commute.
        ([(cx, (0, 1)), (h, (2,))], [(cx, (0, 1))], [(h, (2,))]),
        # The kept H blocks wire 0, so the X behind it cancels nothing.
        ([(x, (0,))], [(h, (0,)), (x, (0,))], [(x, (0,)), (h, (0,)), (x, (0,))]),
        # Cancelling one pair uncovers the next.
        ([(h, (0,)), (s, (0,)), (x, (1,))], [(x, (1,)), (sdg, (0,)), (h, (0,))], []),
    ]
    for head, tail, left in cases:
        rest = iter(tail)
        assert simulator._seam(list(head), rest, 3) + list(rest) == left


class _ReadLog(list):
    """A list that records each index read from it one at a time."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, i):
        if isinstance(i, int):
            self.read.add(i)
        return super().__getitem__(i)


def test_seam_stops_reading_c2_once_every_wire_is_blocked():
    h, x = GateKind.H, GateKind.X
    head = [(h, (0,)), (h, (1,))]
    # X on 0 blocks wire 0, H on 1 cancels, and X on 1 then finds no head
    # gate on wire 1 and blocks it: every wire is blocked.
    tail = iter([(x, (0,)), (h, (1,)), (x, (1,)), (h, (0,)), (x, (0,))])
    assert simulator._seam(list(head), tail, 2) == [(h, (0,)), (x, (0,)), (x, (1,))]
    assert list(tail) == [(h, (0,)), (x, (0,))]
    # A third wire that neither circuit touches, an idle physical wire,
    # cannot cancel anything, so the walk stops at the same place.
    tail = iter([(x, (0,)), (h, (1,)), (x, (1,)), (h, (0,)), (x, (0,))])
    assert simulator._seam(list(head), tail, 3) == [(h, (0,)), (x, (0,)), (x, (1,))]
    assert list(tail) == [(h, (0,)), (x, (0,))]
    # A wire that only the tail touches: its entries are kept without
    # reading the head deeper. H on 1 cancels the head's top, X on 0 reads
    # the head's H on 0 and blocks wire 0, and the CNOT blocks wire 1, so
    # the head's X under them is never read.
    cx = GateKind.CNOT
    head = _ReadLog([(x, (0,)), (h, (0,)), (h, (1,))])
    tail = iter([(x, (2,)), (h, (1,)), (x, (0,)), (cx, (1, 0)), (x, (2,)), (h, (2,))])
    assert simulator._seam(head, tail, 3) == [
        (x, (0,)), (h, (0,)), (x, (2,)), (x, (0,)), (cx, (1, 0))
    ]
    assert head.read == {1, 2}
    assert list(tail) == [(x, (2,)), (h, (2,))]


def test_seam_stops_reading_a_wire_whose_head_entries_all_cancelled():
    # H on 1 cancels the head's only entry on wire 1. X on 1 then finds no
    # head entry left on that wire, so it reads nothing deeper and is kept.
    h, x = GateKind.H, GateKind.X
    head = _ReadLog([(x, (0,)), (h, (0,)), (h, (1,))])
    tail = iter([(h, (1,)), (x, (1,))])
    assert simulator._seam(head, tail, 2) == [(x, (0,)), (h, (0,)), (x, (1,))]
    assert head.read == {2}


def test_equivalent_cancels_a_shared_tail_without_running_a_block(monkeypatch):
    def run(*args):
        raise AssertionError("ran a block of a miter that cancels")

    monkeypatch.setattr(simulator, "_run", run)
    rng = random.Random(30)
    for n in range(1, 11):
        n1 = rng.randint(1, n)
        c = random_circuit(n1, 40, rng)
        perm = tuple(rng.sample(range(n), n1))
        assert equivalent(c, relabel(c, perm, n), perm)
        assert equivalent(c, Circuit(n, _commuted(relabel(c, perm, n).gates, rng)), perm)


def test_a_cancelled_miter_passes_at_zero_tolerance():
    # H H rounds to 1 + 2e-16 on the diagonal: the uncancelled miter fails
    # tol=0, the cancelled one is V = I exactly.
    c = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1)))
    assert not dense_oracle.miter_equivalent(c, c, tol=0)
    assert equivalent(c, c, tol=0)


def test_equivalent_plans_only_what_the_seam_leaves(monkeypatch):
    planned = []
    real_plan = simulator._plan

    def plan(gates, num_qubits, columns=False):
        gates = list(gates)
        planned.append(gates)
        return real_plan(gates, num_qubits, columns)

    monkeypatch.setattr(simulator, "_plan", plan)
    rng = random.Random(31)
    shared = random_circuit(4, 30, rng).gates
    perm = (3, 0, 4, 1)
    hs = tuple(gate1(GateKind.H, q) for q in range(4))
    xs = tuple(gate1(GateKind.X, p) for p in perm)
    c1 = Circuit(4, hs + shared)
    c2 = Circuit(5, xs + _commuted(relabel(Circuit(4, shared), perm, 5).gates, rng))
    assert not equivalent(c1, c2, perm)
    h, x = GateKind.H, GateKind.X
    assert planned == [[(h, (p,)) for p in perm] + [(x, (p,)) for p in reversed(perm)]]
