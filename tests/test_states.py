import numpy as np
import pytest

from qxopt.states import (
    DensityMatrix,
    NoiseSpec,
    ProbabilityDistribution,
    StateVector,
    basis_state,
    bitstring,
    distribution_from_vector,
    parse_density_matrix,
    parse_distribution,
)


def test_bitstring_labels_are_msb_first():
    assert bitstring(1, 3) == "001"
    assert bitstring(4, 3) == "100"


def test_state_vector_validation():
    assert basis_state(2).num_qubits == 2
    with pytest.raises(ValueError, match="power of two"):
        StateVector(np.array([1.0, 0.0, 0.0]))


def test_density_matrix_validation():
    DensityMatrix(np.diag([0.5, 0.5]).astype(complex)).validate()
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]])).validate()
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2)).validate()
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex)).validate()


@pytest.mark.parametrize("rotated", [False, True])
def test_density_matrix_eigenvalue_bound_is_decided_at_its_boundary(rotated, monkeypatch):
    # Cholesky certifies -5e-9; only a failed certificate computes the
    # spectrum, which refuses -2e-8 with the lowest eigenvalue named.
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    if not rotated:
        q = np.eye(4)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or real(m))
    for low in (-5e-9, -2e-8):
        m = q @ np.diag([low, 0.3, 0.3, 0.4 - low]) @ q.conj().T
        rho = DensityMatrix((m + m.conj().T) / 2)
        if low > -1e-8:
            rho.validate()
            assert calls == []
            continue
        want = real(rho.matrix)[0]
        assert want == -2e-8 if not rotated else abs(want + 2e-8) < 1e-15
        with pytest.raises(ValueError) as info:
            rho.validate()
        assert str(info.value) == f"matrix has eigenvalue {want} < -1e-08"
        assert calls == [1]


def test_noise_spec_range_checked():
    NoiseSpec(p1=0.0, p2=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(p2=1.5)


def test_distribution_sum_tolerance():
    ProbabilityDistribution(1, {"0": 0.5, "1": 0.503})  # within 0.005
    with pytest.raises(ValueError, match="sum"):
        ProbabilityDistribution(1, {"0": 0.5, "1": 0.45})


@pytest.mark.parametrize(
    "make,message",
    [
        (
            lambda: ProbabilityDistribution(1, {"0": 1.5, "1": -0.5}),
            "probability 1.5 for 0 outside [0, 1]",
        ),
        (
            lambda: ProbabilityDistribution(1, {"0": 0.5, "1": float("nan")}),
            "probability nan for 1 outside [0, 1]",
        ),
        (
            lambda: ProbabilityDistribution(1, {"0": 0.5, "1": 0.45}),
            "probabilities sum to 0.95, not 1 within 0.005",
        ),
        (
            lambda: distribution_from_vector(np.array([0.5, 0.5 + 1e-9]), tolerance=1e-10),
            "probabilities sum to 1.000000001, not 1 within 1e-10",
        ),
    ],
    ids=["probability", "nan", "sum", "strict-sum"],
)
def test_distribution_is_refused_when_built(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_distribution_text_roundtrip():
    dist = distribution_from_vector(np.array([0.25, 0.25, 0.5, 0.0]))
    again = parse_distribution("".join(f"{bits} {p!r}\n" for bits, p in sorted(dist.probs.items())))
    assert again.num_qubits == 2
    assert again.probs == dist.probs


def test_parse_distribution_rejects_garbage():
    with pytest.raises(ValueError, match="bitstring"):
        parse_distribution("0a 0.5\n01 0.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_distribution("0 0.5\n0 0.5\n")
    with pytest.raises(ValueError, match="empty"):
        parse_distribution("\n")


def test_density_matrix_text_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    text = "dm 4\n" + "".join(f"{float(z.real)!r} {float(z.imag)!r}\n" for z in m.ravel())
    again = parse_density_matrix(text)
    assert np.max(np.abs(again - m)) < 1e-12


def test_parse_density_matrix_needs_header_and_count():
    with pytest.raises(ValueError, match="header"):
        parse_density_matrix("1 0\n0 1\n")
    with pytest.raises(ValueError, match="entries"):
        parse_density_matrix("dm 2\n1 0\n0 0\n0 0\n")


def test_parse_distribution_names_the_line_of_a_bad_value():
    with pytest.raises(ValueError, match=r"^line 2: expected a probability, got 'x'$"):
        parse_distribution("000 0.5\n111 x")


@pytest.mark.parametrize(
    "text,message",
    [
        ("dm 1\n1 y", r"^line 2: entry 0: expected 're im', got '1 y'$"),
        ("dm 2\n1 0\n0 0\n0 0 0\n0 0", r"^line 4: entry 2: expected 're im'"),
        ("dm 2\n1 0\n0 0\n0 0\n0", r"^line 5: entry 3: expected 're im'"),
        ("dm 1\ninf 0", r"^line 2: entry 0: 'inf 0' is not finite$"),
        ("dm 2\n1 0\n0 0\n0 0\n0 nan", r"^line 5: entry 3: '0 nan' is not finite$"),
        # Comments and blank lines count as lines, not as entries.
        (
            "# tomography\ndm 2\n1 0\n\n0 0 # off-diagonal\n0 0 x\n0 0",
            r"^line 6: entry 2: expected 're im', got '0 0 x'$",
        ),
        ("dm 1\n  # ok\n\n1 0 inf", r"^line 4: entry 0: expected 're im'"),
        ("dm -1\n", r"^malformed 'dm N' header 'dm -1'$"),
        ("dm 0\n", r"^malformed 'dm N' header"),
        ("dm x\n1 0", r"^malformed 'dm N' header"),
        ("dm 1 3\n1 0", r"^malformed 'dm N' header 'dm 1 3'$"),
        ("dmx 1\n1 0", r"^malformed 'dm N' header 'dmx 1'$"),
        ("", r"^missing 'dm N' header$"),
        ("1 0\n0 1\n", r"^missing 'dm N' header$"),
        ("dm 2\n1 0\n", r"^expected 4 entries, found 1$"),
    ],
)
def test_parse_density_matrix_names_the_bad_entry_or_header(text, message):
    with pytest.raises(ValueError, match=message):
        parse_density_matrix(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("0a 0.5\n01 0.5\n", "line 1: bad bitstring '0a'"),
        ("0 0.5 x\n", "line 1: expected 'bitstring value', got '0 0.5 x'"),
        ("# counts\n0\n", "line 2: expected 'bitstring value', got '0'"),
        ("0 0.5\n01 0.5\n", "line 2: inconsistent bitstring width"),
        ("0 0.5\n0 0.5\n", "line 2: duplicate outcome '0'"),
        ("0 1.5\n1 -0.5\n", "line 1: probability 1.5 for 0 outside [0, 1]"),
        ("0 nan\n1 1\n", "line 1: probability nan for 0 outside [0, 1]"),
        ("# counts\n0 0.5\n1 nan\n", "line 3: probability nan for 1 outside [0, 1]"),
        ("0 0.5\n1 0.25\n", "probabilities sum to 0.75, not 1 within 0.005"),
        ("\n# nothing\n", "empty distribution"),
    ],
    ids=[
        "bad-label", "three-tokens", "one-token", "inconsistent-width", "duplicate",
        "outside-unit-interval", "nan", "nan-after-comment", "bad-sum", "empty",
    ],
)
def test_parse_distribution_pins_each_refusal(text, message):
    with pytest.raises(ValueError) as info:
        parse_distribution(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make,message",
    [
        (
            lambda: distribution_from_vector(np.array([0.5, 0.25, 0.25])),
            "probability vector length 3 is not a power of two",
        ),
        (lambda: distribution_from_vector(np.array([1.0])), "probability vector length 1 is not a power of two"),
        (lambda: DensityMatrix(np.zeros((2, 3))), "density matrix must be square, got shape (2, 3)"),
        (
            lambda: DensityMatrix(parse_density_matrix("dm 3\n" + "1 0\n" * 9)),
            "dimension 3 is not a power of two",
        ),
        (lambda: DensityMatrix(parse_density_matrix("dm 1\n1 0\n")), "dimension 1 is not a power of two"),
        (lambda: ProbabilityDistribution(2, {"0": 1.0}), "bad outcome label '0' for 2 qubits"),
        (
            lambda: ProbabilityDistribution(1, {"0": 0.5, "2": 0.5}),
            "bad outcome label '2' for 1 qubits",
        ),
        # Every comparison with NaN is false, so `validate`'s bounds alone
        # would let these through, and a fidelity computed from them is NaN.
        (lambda: DensityMatrix(np.full((2, 2), np.nan)), "density matrix has a non-finite entry"),
        (
            lambda: DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]])),
            "density matrix has a non-finite entry",
        ),
        (lambda: DensityMatrix(np.array([[np.inf, 0.0], [0.0, 0.5]])), "density matrix has a non-finite entry"),
        (lambda: StateVector(np.array([np.nan, 1.0])), "amplitude vector has a non-finite entry"),
    ],
    ids=[
        "vector-of-three", "vector-of-one", "non-square", "dm-file-of-three", "dm-file-of-one",
        "short-label", "non-binary-label", "all-nan-matrix", "nan-off-diagonal", "infinite-entry",
        "nan-vector",
    ],
)
def test_state_containers_refuse_what_is_not_a_qubit_space(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
