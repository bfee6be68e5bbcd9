"""Acceptance suite: the shipped claims, each at its stated tolerance.

Run with -s to see one PASS/FAIL line per criterion:

    pytest tests/test_acceptance.py -v -s
"""
import random
import time

import numpy as np
import pytest

from qxopt.circuit import VERIFY_TOL, Circuit, GateKind, cnot, gate_count, level_count
from qxopt.circuit import random_circuit
from qxopt.fixtures import load_circuit, load_distribution, load_raw_density_matrix
from qxopt.nonclassicality import lhv_bound, mermin3, sanitize, uhlmann_fidelity
from qxopt.peephole import simplify
from qxopt.placement import cost_of, optimize
from qxopt.realization import lookup
from qxopt.simulator import equivalent, measure_probs, run_ideal, run_noisy, unitary_of
from qxopt.states import DensityMatrix, NoiseSpec
from qxopt.topology import allows


def _report(number: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_mermin_reproduction():
    low = mermin3(
        load_distribution("xxy_unoptimized_1024"), load_distribution("yyy_unoptimized_1024")
    )
    mid = mermin3(
        load_distribution("xxy_unoptimized_8192"), load_distribution("yyy_unoptimized_8192")
    )
    high = mermin3(
        load_distribution("xxy_optimized_8192"), load_distribution("yyy_optimized_8192")
    )
    ok = (
        abs(low.m3 - 2.85) <= 0.02
        and abs(mid.m3 - 3.009) <= 0.01
        and abs(high.m3 - 3.126) <= 0.01
        and abs(high.violation - 1.116) <= 0.01
    )
    _report(
        1,
        f"measured rows give m3 = {low.m3:.3f} / {mid.m3:.3f} / {high.m3:.3f}, "
        f"optimized violation {high.violation:.3f}",
        ok,
    )


def test_criterion_2_fidelity_reproduction():
    ideal = load_raw_density_matrix("xxy_ideal")
    rho_ideal = sanitize(ideal.real, ideal.imag)
    raw_a = load_raw_density_matrix("xxy_unoptimized_tomo")
    raw_b = load_raw_density_matrix("xxy_optimized_tomo")
    f_a = uhlmann_fidelity(rho_ideal, sanitize(raw_a.real, raw_a.imag))
    f_b = uhlmann_fidelity(rho_ideal, sanitize(raw_b.real, raw_b.imag))
    ok = abs(f_a - 0.72) <= 0.03 and abs(f_b - 0.90) <= 0.03
    _report(2, f"tomography fidelities F = {f_a:.4f} (target 0.72), {f_b:.4f} (target 0.90)", ok)


def test_criterion_3_quantum_and_classical_bounds():
    xxy = measure_probs(run_ideal(load_circuit("mermin_xxy_opt")))
    yyy = measure_probs(run_ideal(load_circuit("mermin_yyy_opt")))
    m3 = mermin3(xxy, yyy).m3
    bound = lhv_bound()
    ok = abs(m3 - 4.0) <= 1e-9 and bound == 2.0
    _report(3, f"ideal-simulated m3 = {m3!r}, enumerated classical bound = {bound!r}", ok)


def test_criterion_4_realization_table_soundness(qx2_table, qx4_table):
    start = time.perf_counter()
    sound = True
    for table in (qx2_table, qx4_table):
        for (control, target), entry in table.entries.items():
            plain = Circuit(5, (cnot(control, target),))
            sound = sound and equivalent(plain, entry.sequence, tol=1e-9)
    within_bound = lookup(qx2_table, 1, 4).total_gates <= 10
    elapsed = time.perf_counter() - start
    ok = sound and within_bound and elapsed < 1.0
    _report(
        4,
        f"2x20 entries sound at 1e-9, qx2 (1,4) costs "
        f"{lookup(qx2_table, 1, 4).total_gates} gates, checked in {elapsed:.2f}s",
        ok,
    )


def test_criterion_5_worked_example_placements(qx2_table, qx4_table):
    circuit = Circuit(3, (cnot(0, 1), cnot(1, 2)))
    r2 = optimize(circuit, qx2_table)
    r4 = optimize(circuit, qx4_table)
    qx2_ok = r2.final_cost.gates == 2 and (
        r2.placement == (0, 1, 2) or cost_of(circuit, (0, 1, 2), qx2_table).gates == 2
    )
    qx4_ok = r4.final_cost.gates == 2 and (
        r4.placement == (3, 2, 0) or cost_of(circuit, (3, 2, 0), qx4_table).gates == 2
    )
    _report(
        5,
        f"qx2 -> {r2.placement} at {r2.final_cost.gates} gates; "
        f"qx4 -> {r4.placement} at {r4.final_cost.gates} gates (published mappings cost the same)",
        qx2_ok and qx4_ok,
    )


def test_criterion_6_random_property_suite(qx4_table):
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = []
    for case in range(200):
        width = rng.randint(3, 5)
        circuit = random_circuit(width, rng.randint(1, 25), rng)
        result = optimize(circuit, qx4_table)
        if not equivalent(circuit, result.mapped, list(result.placement), tol=VERIFY_TOL):
            failures.append((case, "equivalence"))
        for g in result.mapped.gates:
            if g.kind is GateKind.CNOT and not allows(qx4_table.graph, *g.qubits):
                failures.append((case, f"illegal CNOT {g.qubits}"))
        naive = sum(
            qx4_table.entries[
                (result.placement[g.qubits[0]], result.placement[g.qubits[1]])
            ].total_gates
            if g.kind is GateKind.CNOT
            else 1
            for g in circuit.gates
        )
        if result.final_cost.gates > naive:
            failures.append((case, "worse than naive substitution"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        6,
        f"200 random 3-5 qubit circuits optimized for qx4 in {elapsed:.1f}s, "
        f"failures: {failures[:3] if failures else 'none'}",
        ok,
    )


def test_criterion_7_noise_fidelity_monotonicity():
    unopt = load_circuit("mermin_xxy_unopt")
    opt = load_circuit("mermin_xxy_opt")
    assert gate_count(unopt) == 12 and gate_count(opt) == 4
    assert level_count(unopt) == 7
    # Both prepare the same state; the published level count for the short
    # version is ambiguous (2 or 3), ours schedules to 3.
    assert level_count(opt) in (2, 3)
    assert np.max(np.abs(run_ideal(unopt).amplitudes - run_ideal(opt).amplitudes)) < 1e-12
    psi = run_ideal(opt).amplitudes
    ideal = DensityMatrix(np.outer(psi, psi.conj()))
    noise = NoiseSpec()  # defaults (0.001, 0.01)
    f_unopt = uhlmann_fidelity(run_noisy(unopt, noise), ideal)
    f_opt = uhlmann_fidelity(run_noisy(opt, noise), ideal)
    _report(
        7,
        f"noisy fidelity {f_opt:.4f} (4 gates) > {f_unopt:.4f} (12 gates) under default noise",
        f_opt > f_unopt,
    )


def test_criterion_8_peephole_suite():
    from qxopt.circuit import Gate

    # Each rewrite family against the dense unitary oracle.
    def same_unitary(before: Circuit, after: Circuit) -> bool:
        u, v = unitary_of(before), unitary_of(after)
        anchor = np.flatnonzero(np.abs(u.ravel()) > 1e-9)[0]
        phase = v.ravel()[anchor] / u.ravel()[anchor]
        if abs(phase) < 1e-12:
            return False
        phase /= abs(phase)
        return bool(np.max(np.abs(v - phase * u)) < 1e-9)

    hh = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,))))
    inv = Circuit(1, (Gate(GateKind.S, (0,)), Gate(GateKind.SDG, (0,))))
    merge = Circuit(1, (Gate(GateKind.T, (0,)), Gate(GateKind.T, (0,))))
    families_ok = (
        simplify(hh).gates == ()
        and same_unitary(hh, simplify(hh))
        and simplify(inv).gates == ()
        and same_unitary(inv, simplify(inv))
        and simplify(merge).gates == (Gate(GateKind.S, (0,)),)
        and same_unitary(merge, simplify(merge))
    )

    rng = random.Random(99)
    random_ok = True
    for _ in range(500):
        circuit = random_circuit(rng.randint(1, 4), rng.randint(0, 20), rng)
        out = simplify(circuit)
        if gate_count(out) > gate_count(circuit) or simplify(out) != out:
            random_ok = False
            break
    _report(
        8,
        "HH removal, inverse pairs, phase merges verified by oracle; "
        "simplify idempotent and non-increasing on 500 random circuits",
        families_ok and random_ok,
    )
