import contextlib
import math
import random
import warnings
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import eigen_uhlmann_fidelity
from qxopt.circuit import random_circuit
from qxopt.fixtures import load_circuit, load_distribution, load_raw_density_matrix
from qxopt.nonclassicality import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    lhv_bound,
    mermin3,
    parity_expectation,
    sanitize,
    uhlmann_fidelity,
)
from qxopt.simulator import run_ideal, run_noisy
from qxopt.states import DensityMatrix, NoiseSpec, ProbabilityDistribution, distribution_from_vector


def _uniform(n):
    return distribution_from_vector(np.full(2**n, 1 / 2**n))


def test_parity_expectation_uniform_is_zero():
    assert parity_expectation(_uniform(3)) == pytest.approx(0.0, abs=1e-12)


def test_parity_expectation_even_outcome_is_plus_one():
    dist = ProbabilityDistribution(3, {"000": 1.0})
    assert parity_expectation(dist) == 1.0


def test_parity_expectation_measured_row():
    # Hand sum over the published row: even-parity mass 0.880, odd 0.120.
    dist = load_distribution("xxy_unoptimized_8192")
    assert parity_expectation(dist) == pytest.approx(0.760, abs=1e-9)


def test_parity_expectation_rejects_bad_distribution():
    with pytest.raises(ValueError, match="sum"):
        parity_expectation(ProbabilityDistribution(2, {"00": 0.5, "01": 0.2}))


def test_parity_expectation_bounded():
    for name in (
        "xxy_unoptimized_1024",
        "xxy_unoptimized_8192",
        "xxy_optimized_8192",
        "yyy_unoptimized_1024",
        "yyy_unoptimized_8192",
        "yyy_optimized_8192",
    ):
        assert -1.0 <= parity_expectation(load_distribution(name)) <= 1.0


def test_mermin3_measured_values():
    low = mermin3(load_distribution("xxy_unoptimized_1024"), load_distribution("yyy_unoptimized_1024"))
    assert low.m3 == pytest.approx(2.855, abs=0.02)
    mid = mermin3(load_distribution("xxy_unoptimized_8192"), load_distribution("yyy_unoptimized_8192"))
    assert mid.m3 == pytest.approx(3.009, abs=0.01)
    high = mermin3(load_distribution("xxy_optimized_8192"), load_distribution("yyy_optimized_8192"))
    assert high.m3 == pytest.approx(3.126, abs=0.01)
    assert high.violation == high.m3 - 2


def test_mermin3_rejects_wrong_width():
    with pytest.raises(ValueError, match="qubits"):
        mermin3(_uniform(2), _uniform(3))


def test_lhv_bound_is_exactly_two():
    assert lhv_bound() == 2.0


def test_lhv_bound_against_independent_enumeration():
    # Re-derive the ceiling with an independently written scan.
    values = set()
    for signs in product((-1, 1), repeat=6):
        x = signs[:3]
        y = signs[3:]
        values.add(abs(x[0] * x[1] * y[2] + x[0] * y[1] * x[2] + y[0] * x[1] * x[2] - y[0] * y[1] * y[2]))
    assert max(values) == 2
    assert lhv_bound() == max(values)


def test_lhv_all_plus_assignment_value():
    # x = y = +1 everywhere: |1 + 1 + 1 - 1| = 2.
    assert abs(1 + 1 + 1 - 1) == 2


def test_bounds_exported():
    assert CLASSICAL_BOUND == 2.0
    assert QUANTUM_BOUND == 4.0


def _pure(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def test_fidelity_identical_pure_state_is_one():
    rho = _pure([1, 1j, 0, 0])
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_states_is_zero():
    assert uhlmann_fidelity(_pure([1, 0]), _pure([0, 1])) == pytest.approx(0.0, abs=1e-10)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        uhlmann_fidelity(_pure([1, 0]), _pure([1, 0, 0, 0]))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_fidelity_of_pure_states_is_overlap(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    fid = uhlmann_fidelity(_pure(a), _pure(b))
    assert fid == pytest.approx(abs(np.vdot(a, b)), abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_fidelity_symmetric_on_valid_states(seed):
    rng = np.random.default_rng(seed)

    def random_density(dim=4):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        return DensityMatrix(rho / np.trace(rho).real)

    a, b = random_density(), random_density()
    assert uhlmann_fidelity(a, b) == pytest.approx(uhlmann_fidelity(b, a), abs=1e-8)


@contextlib.contextmanager
def _eigen_calls():
    """Record every numpy eigendecomposition made inside the block."""
    calls = []

    def counting(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    with contextlib.ExitStack() as stack:
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            stack.enter_context(mock.patch.object(np.linalg, name, counting(name, real)))
        yield calls


def _random_density(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


# The closed form against a rank-one argument, against the general formula
# it stands in for (`dense_oracle.eigen_uhlmann_fidelity`). The general
# formula takes square roots of eigenvalues that are zero up to rounding,
# about 2.2e-16, so it carries about 1e-8 of noise per eigenvalue; the
# closed form carries rounding only.


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_fidelity_against_a_rank_one_argument_is_its_closed_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))  # dimensions 2 to 64
    dim = 2**n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    mixed = _random_density(rng, dim, int(rng.integers(1, dim + 1)))
    # Minus a random pure state: <psi|indefinite|psi> may be below 0.
    indefinite = DensityMatrix(mixed.matrix - 1.5 * rng.random() * _random_density(rng, dim, 1).matrix)
    circuit = random_circuit(n, int(rng.integers(0, 30)), random.Random(seed))
    ideal = run_ideal(circuit).amplitudes
    p1, p2 = (float(rng.choice([rng.random() * 0.05, rng.random(), 1.0])) for _ in range(2))
    noisy = run_noisy(circuit, NoiseSpec(p1=p1, p2=p2))
    noiseless = run_noisy(circuit, NoiseSpec(p1=0.0, p2=0.0))  # pure too
    cases = [  # rho1, rho2, the rank-one argument's vector, the other argument
        (_pure(psi), mixed, psi, mixed),
        (mixed, _pure(psi), psi, mixed),
        (_pure(psi), indefinite, psi, indefinite),
        (noisy, _pure(ideal), ideal, noisy),
        (_pure(ideal), noisy, ideal, noisy),
        (noiseless, _pure(ideal), ideal, noiseless),
    ]
    for rho1, rho2, u, other in cases:
        with _eigen_calls() as calls:
            fid = uhlmann_fidelity(rho1, rho2)
        assert calls == []
        closed = math.sqrt(max(np.vdot(u, other.matrix @ u).real, 0.0))
        assert fid == pytest.approx(min(closed, 1.0), abs=1e-12)
        assert fid == pytest.approx(eigen_uhlmann_fidelity(rho1, rho2), abs=1e-6)


@pytest.mark.parametrize("name", ["mermin_xxy_unopt", "mermin_xxy_opt"])
def test_fidelity_of_a_noisy_output_against_its_ideal_state_decomposes_nothing(name):
    circuit = load_circuit(name)
    psi = run_ideal(circuit).amplitudes
    ideal = DensityMatrix(np.outer(psi, psi.conj()))
    for scale in (0.0, 0.5, 1.0, 2.0, 5.0):
        rho = run_noisy(circuit, NoiseSpec(p1=0.001 * scale, p2=0.01 * scale))
        with _eigen_calls() as calls:
            fid = uhlmann_fidelity(rho, ideal)
        assert calls == []
        assert fid == pytest.approx(eigen_uhlmann_fidelity(rho, ideal), abs=1e-6)


def test_fidelity_keeps_the_general_formula_where_no_closed_form_gives_its_value():
    ideal = load_raw_density_matrix("xxy_ideal")
    raw = load_raw_density_matrix("xxy_unoptimized_tomo")
    # The tomography is indefinite, so rho2's closed form would not clip
    # its negative eigenvalues as the general formula does.
    tomography = sanitize(raw.real, raw.imag)
    assert np.linalg.eigvalsh(tomography.matrix)[0] < -1e-3
    rng = np.random.default_rng(28)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    near_pure = DensityMatrix((1 - 1e-6) * _pure(psi).matrix + 1e-6 * np.eye(8) / 8)
    full_rank = _random_density(rng, 8, 8), _random_density(rng, 8, 8)
    # Indefinite, with the diagonal and column 0 of |0><0|: only entries off
    # both tell it from a rank-one matrix.
    off = np.zeros((8, 8))
    off[1, 2] = off[2, 1] = 0.3
    fake_pure = DensityMatrix(_pure(np.eye(8)[0]).matrix + off)
    # Smallest eigenvalue -1e-6: below the certificate's -1e-12.
    barely = full_rank[1].matrix - (np.linalg.eigvalsh(full_rank[1].matrix)[0] + 1e-6) * np.eye(8)
    cases = [
        (tomography, sanitize(ideal.real, ideal.imag)),
        (near_pure, near_pure),
        (near_pure, full_rank[0]),
        full_rank,
        (fake_pure, full_rank[1]),
        (DensityMatrix(barely), _pure(psi)),
    ]
    for rho1, rho2 in cases:
        with _eigen_calls() as calls:
            fid = uhlmann_fidelity(rho1, rho2)
        assert calls == ["eigh", "eigvalsh"]
        assert fid == eigen_uhlmann_fidelity(rho1, rho2)
    assert uhlmann_fidelity(*cases[0]) == pytest.approx(0.7188056023, abs=1e-9)


def test_sanitize_keeps_valid_pure_state():
    rho = _pure([1, 0, 0, 1])
    out = sanitize(rho.matrix.real, rho.matrix.imag)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_sanitize_zeroes_imaginary_diagonal():
    raw = load_raw_density_matrix("xxy_unoptimized_tomo")
    assert abs(raw[5, 5].imag) > 0.2  # transcription defect present in the source
    out = sanitize(raw.real, raw.imag)
    assert np.max(np.abs(np.diag(out.matrix).imag)) < 1e-14
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-14


def test_sanitize_rejects_zero_matrix():
    with pytest.raises(ValueError, match="trace"):
        sanitize(np.zeros((4, 4)), np.zeros((4, 4)))


def test_sanitize_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        sanitize(np.zeros((4, 4)), np.zeros((2, 2)))


@pytest.mark.parametrize("part", [0, 1], ids=["real", "imaginary"])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_sanitize_refuses_non_finite_parts_before_any_arithmetic(part, bad):
    parts = [np.eye(2) / 2, np.zeros((2, 2))]
    parts[part][0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail here
        with pytest.raises(ValueError) as info:
            sanitize(*parts)
    assert str(info.value) == "parts must be finite"


def test_fidelity_reproduces_published_values():
    ideal = load_raw_density_matrix("xxy_ideal")
    rho_ideal = sanitize(ideal.real, ideal.imag)
    raw_a = load_raw_density_matrix("xxy_unoptimized_tomo")
    raw_b = load_raw_density_matrix("xxy_optimized_tomo")
    f_a = uhlmann_fidelity(rho_ideal, sanitize(raw_a.real, raw_a.imag))
    f_b = uhlmann_fidelity(rho_ideal, sanitize(raw_b.real, raw_b.imag))
    assert f_a == pytest.approx(0.72, abs=0.03)
    assert f_b == pytest.approx(0.90, abs=0.03)
    assert f_b > f_a


def test_ideal_fixture_overlap_oracle():
    # For pure rho1, F = sqrt(<psi|rho2|psi>); check against a direct sum.
    ideal = load_raw_density_matrix("xxy_ideal")
    rho_ideal = sanitize(ideal.real, ideal.imag)
    raw = load_raw_density_matrix("xxy_unoptimized_tomo")
    herm = (raw + raw.conj().T) / 2
    psi = np.zeros(8)
    for i in (0, 3, 5, 6):
        psi[i] = 0.5
    overlap = float(np.real(psi @ herm @ psi))
    expected = math.sqrt(overlap / np.trace(herm).real)
    got = uhlmann_fidelity(rho_ideal, sanitize(raw.real, raw.imag))
    assert got == pytest.approx(expected, abs=1e-6)
