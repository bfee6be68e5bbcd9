import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import qxopt.pathsum
import qxopt.simulator
from qxopt.circuit import Circuit, Gate, GateKind, cnot, gate1, inverse_of, random_circuit, relabel
from qxopt.cli import main
from qxopt.fixtures import CIRCUITS, load_circuit
from qxopt.pathsum import proves_equal
from qxopt.placement import optimize
from qxopt.simulator import equivalent as dense_equivalent


def _inverse(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    return tuple(Gate(inverse_of(g.kind), g.qubits) for g in reversed(gates))


def _pairs(seed: int) -> tuple[list[tuple], list[tuple]]:
    """Pairs (c1, c2, perm) built equal: c against c with d d^-1 inserted,
    relabeled copies, and copies relabeled into a wider register; and
    single-gate mutants (deleted, replaced, inserted), most of which change
    the unitary."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    c = random_circuit(n, rng.randint(0, 30), rng)
    d = random_circuit(n, rng.randint(1, 10), rng)
    k = rng.randint(0, len(c.gates))
    padded = Circuit(n, c.gates[:k] + d.gates + _inverse(d.gates) + c.gates[k:])
    perm = rng.sample(range(n), n)
    width = n + rng.randint(0, 2)
    wide_perm = rng.sample(range(width), n)
    equal = [
        (c, padded, None),
        (padded, c, None),
        (c, relabel(c, perm, n), perm),
        (padded, relabel(c, perm, n), perm),
        (c, relabel(padded, wide_perm, width), wide_perm),
    ]
    mutants = []
    for base in (c, padded):
        gates = list(base.gates)
        if not gates:
            continue
        i = rng.randrange(len(gates))
        (new,) = random_circuit(n, 1, rng).gates
        for m in (gates[:i] + gates[i + 1 :], gates[:i] + [new] + gates[i + 1 :], gates[:i] + [new] + gates[i:]):
            mutants.append((c, Circuit(n, tuple(m)), None))
    return equal, mutants


# The seeds of the strategy below whose equal pairs the rules leave partly
# unproven, with `proves_equal`'s verdict on each pair in `_pairs` order,
# found by running all 100,001 seeds. Every other seed proves all five.
# The rules, not the budget, leave them open: at seed 46173 the sum stops
# with 4 path variables and 14 phase terms, against a budget of 136.
UNPROVEN = {
    **dict.fromkeys((37443, 46173, 79337, 87391, 96542), (True, False, True, False, True)),
    57749: (False, True, True, True, False),
}


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 100_000))
@example(37443)
@example(46173)
@example(57749)
@example(79337)
@example(87391)
@example(96542)
def test_never_proves_what_the_dense_check_rejects(seed):
    equal, mutants = _pairs(seed)
    for c1, c2, perm in equal + mutants:
        if proves_equal(c1, c2, perm):
            assert dense_equivalent(c1, c2, perm, tol=1e-9), (c1, c2, perm)
    verdicts = tuple(proves_equal(c1, c2, perm) for c1, c2, perm in equal)
    assert verdicts == UNPROVEN.get(seed, (True,) * len(equal)), seed
    # A pair left unproven is still equal: the dense check accepts it.
    for (c1, c2, perm), proved in zip(equal, verdicts):
        if not proved:
            assert dense_equivalent(c1, c2, perm, tol=1e-9), (c1, c2, perm)


def _one(*kinds: GateKind) -> Circuit:
    return Circuit(1, tuple(gate1(k, 0) for k in kinds))


def test_phases_are_exact_and_global_phase_is_ignored():
    t, tdg, s, z = GateKind.T, GateKind.TDG, GateKind.S, GateKind.Z
    assert proves_equal(_one(t, t), _one(s))
    assert proves_equal(_one(*[t] * 8), _one())
    assert proves_equal(_one(GateKind.Z, GateKind.X), _one(GateKind.Y))  # X Z = -i Y
    assert proves_equal(_one(GateKind.H, z, GateKind.H), _one(GateKind.X))
    assert not proves_equal(_one(t), _one(tdg))
    assert not proves_equal(_one(s), _one(z))
    assert not proves_equal(_one(GateKind.H), _one())


def test_placement_that_does_not_fit_is_refused():
    c = Circuit(2, (cnot(0, 1),))
    for first, perm, message in (
        (Circuit(3, (cnot(0, 1),)), None, r"placement \(identity on 3 qubits\) outside 0..1"),
        (c, [0], "placement covers 1 qubits, circuit has 2"),
        (c, [0, 0], r"placement is not injective: \(0, 0\)"),
        (c, [0, 2], r"placement \(0, 2\) outside 0..1"),
        (c, [-1, 0], r"placement \(-1, 0\) outside 0..1"),
    ):
        with pytest.raises(ValueError, match=message):
            proves_equal(first, c, perm)
    assert proves_equal(c, Circuit(2, (cnot(1, 0),)), [1, 0])


def test_gives_up_once_the_phase_outgrows_its_budget(monkeypatch):
    rng = random.Random(1)
    c1, c2 = random_circuit(8, 400, rng), random_circuit(8, 400, rng)
    budget = 64 + len(c1.gates) + len(c2.gates)
    sizes = []
    reduce = qxopt.pathsum._PathSum.reduce

    def recording(self):
        reduce(self)
        sizes.append(len(self.phase))

    monkeypatch.setattr(qxopt.pathsum._PathSum, "reduce", recording)
    assert not proves_equal(c1, c2)
    # Unbounded, this unequal pair grows past 1,600 terms and stays over the
    # budget for well over a hundred gates; bounded, the first step over it
    # is the last.
    assert sizes[-1] > budget
    assert max(sizes[:-1]) <= budget


@pytest.mark.parametrize("arch", ["qx2", "qx4"])
def test_proves_every_bundled_fixture_mapping(arch, request):
    table = request.getfixturevalue(f"{arch}_table")
    for name in CIRCUITS:
        circuit = load_circuit(name)
        result = optimize(circuit, table)
        assert proves_equal(circuit, result.mapped, list(result.placement)), name


def test_proves_the_random_self_check_without_the_dense_fallback(monkeypatch, capsys):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense fallback reached")

    monkeypatch.setattr(qxopt.simulator, "equivalent", no_dense)
    assert main(["verify", "--random", "50", "--arch", "qx4", "--seed", "7"]) == 0
    assert "50/50 random circuits verified" in capsys.readouterr().out


def test_memory_follows_the_gates_not_the_declared_width():
    wide = Circuit(200_000, (gate1(GateKind.H, 0),))
    tracemalloc.start()
    try:
        assert proves_equal(wide, wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One small object per declared wire would be several megabytes.
    assert peak < 100_000


def test_equivalent_refuses_a_bad_tolerance_before_the_proof(monkeypatch):
    # The proof would accept this pair and never read `tol`.
    def proof(*args):
        raise AssertionError("tried a proof under a refused tolerance")

    monkeypatch.setattr(qxopt.pathsum, "proves_equal", proof)
    c = Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1)))
    for tol in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError, match="tolerance"):
            qxopt.pathsum.equivalent(c, c, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            qxopt.equivalent(c, c, tol=tol)
