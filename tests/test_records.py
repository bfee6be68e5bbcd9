"""The value records of every module: construction by position and by
keyword, defaults, refusal of a missing, extra, unknown or doubled field,
equality and hash over the compared fields only, exact repr text,
immutability, and copy/pickle round trips."""
import copy
import pickle

import numpy as np
import pytest

from qxopt import Record
from qxopt.bench import BenchRow
from qxopt.circuit import Circuit, CostReport, Gate, GateKind, _gate, cnot
from qxopt.nonclassicality import MerminValue
from qxopt.peephole import RewriteRule, RuleFiring
from qxopt.placement import MappingResult, _index
from qxopt.realization import RealizationEntry, RealizationTable
from qxopt.states import DensityMatrix, NoiseSpec, ProbabilityDistribution, StateVector
from qxopt.topology import CouplingGraph, bfs

H, T, S = GateKind.H, GateKind.T, GateKind.S
CX01 = "Gate(kind=<GateKind.CNOT: 'cx'>, qubits=(0, 1))"
LINE = CouplingGraph(2, {(0, 1)}, "line")
LINE_REPR = "CouplingGraph(num_physical=2, edges=frozenset({(0, 1)}), name='line')"
ENTRY = RealizationEntry(Circuit(2, (cnot(0, 1),)), 1, 1)
ENTRY_REPR = f"RealizationEntry(sequence=Circuit(num_qubits=2, gates=({CX01},)), total_gates=1, levels=1)"
EMPTY_COST = CostReport(0, 0)

# (class, field names, positional arguments, repr, arguments that differ in
# a compared field or None, whether instances hash)
RECORDS = {
    "Gate": (Gate, ("kind", "qubits"), (H, (0,)), "Gate(kind=<GateKind.H: 'h'>, qubits=(0,))", (T, (0,)), True),
    "Circuit": (
        Circuit,
        ("num_qubits", "gates"),
        (2, (cnot(0, 1),)),
        f"Circuit(num_qubits=2, gates=({CX01},))",
        (3, (cnot(0, 1),)),
        True,
    ),
    "CostReport": (CostReport, ("gates", "levels"), (3, 2), "CostReport(gates=3, levels=2)", (3, 3), True),
    "RewriteRule": (
        RewriteRule,
        ("name", "pattern", "replacement"),
        ("merge-tt-s", (T, T), (S,)),
        "RewriteRule(name='merge-tt-s', pattern=(<GateKind.T: 't'>, <GateKind.T: 't'>), "
        "replacement=(<GateKind.S: 's'>,))",
        ("merge-tt-s", (T, T), ()),
        True,
    ),
    "RuleFiring": (
        RuleFiring,
        ("rule", "position", "qubits"),
        ("cancel-hh", 0, (1,)),
        "RuleFiring(rule='cancel-hh', position=0, qubits=(1,))",
        ("cancel-hh", 1, (1,)),
        True,
    ),
    "MappingResult": (
        MappingResult,
        ("placement", "mapped", "initial_cost", "final_cost", "reduction_pct"),
        ((1, 0), Circuit(2), EMPTY_COST, EMPTY_COST, (0, 0)),
        "MappingResult(placement=(1, 0), mapped=Circuit(num_qubits=2, gates=()), "
        "initial_cost=CostReport(gates=0, levels=0), final_cost=CostReport(gates=0, levels=0), "
        "reduction_pct=(0, 0))",
        ((0, 1), Circuit(2), EMPTY_COST, EMPTY_COST, (0, 0)),
        True,
    ),
    "RealizationEntry": (
        RealizationEntry,
        ("sequence", "total_gates", "levels"),
        (Circuit(2, (cnot(0, 1),)), 1, 1),
        ENTRY_REPR,
        (Circuit(2, (cnot(0, 1),)), 1, 2),
        True,
    ),
    "RealizationTable": (
        RealizationTable,
        ("graph", "entries"),
        (LINE, {(0, 1): ENTRY}),
        f"RealizationTable(graph={LINE_REPR}, entries={{(0, 1): {ENTRY_REPR}}})",
        (LINE, {}),
        False,
    ),
    "CouplingGraph": (
        CouplingGraph,
        ("num_physical", "edges", "name"),
        (2, {(0, 1)}, "line"),
        LINE_REPR,
        (2, {(1, 0)}, "line"),
        True,
    ),
    "BenchRow": (
        BenchRow,
        ("name", "result", "verified", "error", "warnings"),
        ("ghz", None, True, "oops", ("ghz.qasm: dropped 1 measure statement(s)",)),
        "BenchRow(name='ghz', result=None, verified=True, error='oops', "
        "warnings=('ghz.qasm: dropped 1 measure statement(s)',))",
        ("ghz", None, False, "oops", ()),
        True,
    ),
    "StateVector": (
        StateVector,
        ("amplitudes",),
        (np.array([1, 0]),),
        "StateVector(amplitudes=array([1.+0.j, 0.+0.j]))",
        (np.array([0, 1]),),
        False,
    ),
    "DensityMatrix": (
        DensityMatrix,
        ("matrix",),
        (np.eye(2) / 2,),
        "DensityMatrix(matrix=array([[0.5+0.j, 0. +0.j],\n       [0. +0.j, 0.5+0.j]]))",
        (np.diag([1.0, 0.0]),),
        False,
    ),
    "NoiseSpec": (NoiseSpec, ("p1", "p2"), (0.002, 0.02), "NoiseSpec(p1=0.002, p2=0.02)", (0.002, 0.03), True),
    "ProbabilityDistribution": (
        ProbabilityDistribution,
        ("num_qubits", "probs", "tolerance"),
        (1, {"0": 0.25, "1": 0.75}, 0.01),
        "ProbabilityDistribution(num_qubits=1, probs={'0': 0.25, '1': 0.75}, tolerance=0.01)",
        (1, {"0": 0.75, "1": 0.25}, 0.01),
        False,
    ),
    "MerminValue": (MerminValue, ("m3", "violation"), (3.126, 1.126), "MerminValue(m3=3.126, violation=1.126)", (3.0, 1.0), True),
}
CASES = pytest.mark.parametrize("case", list(RECORDS.values()), ids=list(RECORDS))
# The one field of each class that equality and hash skip.
UNCOMPARED = {CouplingGraph: "name", ProbabilityDistribution: "tolerance"}
# The fields before the first default, where a class has defaults.
REQUIRED = {Circuit: 1, NoiseSpec: 0, CouplingGraph: 2, BenchRow: 2, ProbabilityDistribution: 2}


@CASES
def test_construction_by_position_and_keyword_share_one_repr(case):
    cls, fields, args, text, _, _ = case
    assert repr(cls(*args)) == text
    assert repr(cls(**dict(zip(fields, args)))) == text
    assert str(cls(*args)) == text


def test_only_records_with_checks_or_defaults_define_a_constructor():
    classes = {cls for cls, *_ in RECORDS.values()}
    assert set(Record.__subclasses__()) == classes
    assert {cls.__name__ for cls in classes if "__init__" not in vars(cls)} == {
        "MerminValue",
        "RewriteRule",
        "RuleFiring",
        "MappingResult",
        "RealizationEntry",
        "RealizationTable",
    }


@CASES
def test_constructors_refuse_a_missing_extra_unknown_or_doubled_field(case):
    cls, fields, args, _, _, _ = case
    named = dict(zip(fields, args))
    calls = [
        (args + (None,), {}),
        (args, {"extra": 1}),
        ((), {**named, "extra": 1}),
        (args[:1], named),
        (args, {fields[-1]: args[-1]}),
    ]
    required = REQUIRED.get(cls, len(fields))
    if required:
        calls += [(args[: required - 1], {}), ((), {name: named[name] for name in fields[1:]})]
    for values, keywords in calls:
        with pytest.raises(TypeError):
            cls(*values, **keywords)


@CASES
def test_equality_and_hash_read_the_compared_fields(case):
    cls, fields, args, _, different, hashable = case
    record = cls(*args)
    values = tuple(getattr(record, name) for name in fields)
    assert record == record
    # Only a record of the same class can be equal: not its fields as a tuple.
    assert record.__eq__(values) is NotImplemented
    assert record != values
    if different is not None:
        assert cls(*args) == record
        assert cls(*different) != record
    if hashable:
        compared = tuple(getattr(record, name) for name in fields if name != UNCOMPARED.get(cls))
        assert hash(record) == hash(compared)
        assert hash(cls(*args)) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


@CASES
def test_fields_can_be_neither_assigned_nor_deleted(case):
    cls, fields, args, text, _, _ = case
    record = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@CASES
def test_copy_and_pickle_keep_the_record(case):
    cls, _, args, text, _, _ = case
    record = cls(*args)
    assert repr(copy.copy(record)) == text
    assert repr(copy.deepcopy(record)) == text
    assert repr(pickle.loads(pickle.dumps(record))) == text


def test_copy_and_pickle_recheck_a_gate_made_without_checks():
    # `circuit._gate` skips `Gate`'s checks for callers that made them
    # already; copy and pickle rebuild through `Gate.__init__`, so a gate
    # that would fail them cannot be copied.
    bad = _gate(GateKind.CNOT, (1, 1))
    for rebuild in (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))):
        with pytest.raises(ValueError, match="duplicate qubit"):
            rebuild(bad)
    assert copy.copy(_gate(H, (0,))) == Gate(H, (0,))


def test_defaults():
    assert Circuit(2).gates == ()
    assert Circuit(num_qubits=2, gates=[cnot(1, 0)]).gates == (cnot(1, 0),)
    assert NoiseSpec() == NoiseSpec(0.001, 0.01)
    assert repr(NoiseSpec(p2=0.5)) == "NoiseSpec(p1=0.001, p2=0.5)"
    assert CouplingGraph(2, {(0, 1)}).name == "custom"
    row = BenchRow("ghz", None)
    assert (row.verified, row.error, row.warnings) == (False, None, ())
    assert ProbabilityDistribution(1, {"0": 1.0}).tolerance == 0.005


def test_coupling_graphs_differing_in_name_share_cache_entries():
    first = CouplingGraph(3, {(0, 1), (2, 1)}, "first")
    before = bfs.cache_info()
    # Building the second graph runs its connectivity search: a cache hit.
    second = CouplingGraph(3, {(0, 1), (2, 1)}, "second")
    after = bfs.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert first == second and hash(first) == hash(second)
    assert bfs(second, 0) is bfs(first, 0)
    assert repr(second).endswith("name='second')")


def test_arrays_of_another_shape_are_unequal():
    assert StateVector(np.array([1, 0])) != StateVector(np.array([1, 0, 0, 0]))
    assert DensityMatrix(np.eye(2) / 2) != DensityMatrix(np.eye(4) / 4)
    assert StateVector(np.array([1, 0])) != DensityMatrix(np.diag([1.0, 0.0]))


def test_distribution_tolerance_is_not_compared():
    probs = {"0": 0.5, "1": 0.5}
    assert ProbabilityDistribution(1, probs, 0.005) == ProbabilityDistribution(1, dict(probs), 0.1)


def test_copied_and_pickled_tables_keep_their_symmetries():
    # A symmetry is derived from the entries, so a rebuilt table, which
    # derives its own search index, has it too:
    # swapping the line's two qubits maps the table onto itself only when
    # both CNOT directions have mirrored entries.
    both = CouplingGraph(2, {(0, 1), (1, 0)}, "both")
    entries = {(0, 1): ENTRY, (1, 0): RealizationEntry(Circuit(2, (cnot(1, 0),)), 1, 1)}
    cases = [
        (RealizationTable(both, entries), ((1, 0),)),
        (RealizationTable(LINE, {(0, 1): ENTRY}), ()),
    ]
    for table, symmetries in cases:
        assert _index(table)[3] == symmetries
        for other in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert _index(other)[3] == symmetries
