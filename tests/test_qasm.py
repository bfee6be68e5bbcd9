import random

import pytest
from hypothesis import given, strategies as st

from qxopt.circuit import Circuit, GateKind, cnot, gate1, random_circuit
from qxopt.qasm import QasmError, emit, parse, parse_report

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_parse_basic_statements():
    c = parse(HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    assert c == Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1)))


def test_parse_register_only_is_empty_circuit():
    c = parse("qreg q[1];")
    assert c.num_qubits == 1
    assert c.gates == ()


def test_parse_rejects_duplicate_qubit_in_cx():
    with pytest.raises(QasmError, match="duplicate qubit"):
        parse("qreg q[2]; cx q[0],q[0];")


def test_parse_unknown_gate_names_token_and_position():
    with pytest.raises(QasmError, match=r"line 2.*unknown gate 'rx'"):
        parse("qreg q[2];\nrx q[0];")


def test_parse_rejects_index_beyond_register():
    with pytest.raises(QasmError, match="index 3 >= register size 2"):
        parse("qreg q[2]; h q[3];")


def test_parse_rejects_second_quantum_register():
    with pytest.raises(QasmError, match="multiple quantum registers"):
        parse("qreg q[2]; qreg r[2];")


def test_parse_rejects_malformed_statement():
    with pytest.raises(QasmError):
        parse("qreg q[2]; h q[0; ")


def test_measure_and_barrier_dropped_with_warning():
    report = parse_report(
        HEADER + "qreg q[2]; creg c[2];\nh q[0];\nbarrier q[0],q[1];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];"
    )
    assert report.circuit.gates == (gate1(GateKind.H, 0),)
    assert report.warnings == [
        "dropped 2 measure statement(s)",
        "dropped 1 barrier statement(s)",
    ]


def test_strict_mode_rejects_measure():
    with pytest.raises(QasmError, match="strict"):
        parse("qreg q[1]; measure q[0] -> c[0];", strict=True)


def test_comments_and_blank_lines_ignored():
    c = parse("// a comment\nqreg q[1];\n\nh q[0]; // trailing\n")
    assert c.gates == (gate1(GateKind.H, 0),)


def test_emit_empty_circuit():
    text = emit(Circuit(1))
    assert "qreg q[1];" in text
    assert parse(text) == Circuit(1)


def test_emit_contains_cx_statement():
    assert "cx q[0],q[1];" in emit(Circuit(2, (cnot(0, 1),)))


def test_every_gate_kind_round_trips():
    gates = tuple(gate1(k, 0) for k in GateKind if k.arity == 1) + (cnot(0, 1),)
    c = Circuit(2, gates)
    assert parse(emit(c)) == c


@given(st.integers(0, 500))
def test_parse_emit_roundtrip_random(seed):
    rng = random.Random(seed)
    c = random_circuit(rng.randint(1, 5), rng.randint(0, 20), rng)
    assert parse(emit(c)) == c


@pytest.mark.parametrize(
    "text,strict,message",
    [
        ("qreg q[2];\nh r[0];", False, "line 2, column 1: unknown register 'r' (declared: 'q')"),
        ("qreg q;", False, "line 1, column 1: malformed register declaration 'qreg q'"),
        ("qreg q[0];", False, "line 1, column 1: register 'q' must have positive size"),
        (
            "qreg q[1]; creg c[1]; creg d[1];",
            False,
            "line 1, column 23: multiple classical registers are not supported",
        ),
        ("qreg q[1];\nbarrier q[0];", True, "line 2, column 1: barrier statement not allowed in strict mode"),
        ("h q[0];\nqreg q[1];", False, "line 1, column 1: gate statement before qreg declaration"),
        ("qreg q[2]; cx q[0];", False, "line 1, column 12: cx takes 2 operand(s), got 1"),
        ("qreg q[2]; h q[0],q[1];", False, "line 1, column 12: h takes 1 operand(s), got 2"),
        ("qreg q[1]; h q;", False, "line 1, column 12: malformed qubit reference 'q'"),
        ("OPENQASM 2.0;\n// nothing\n", False, "line 1, column 1: no quantum register declared"),
        ("", False, "line 1, column 1: no quantum register declared"),
    ],
    ids=[
        "unknown-register", "malformed-register", "zero-size", "second-creg", "strict-barrier",
        "gate-before-qreg", "too-few-operands", "too-many-operands", "malformed-reference",
        "no-qreg", "empty",
    ],
)
def test_parse_pins_each_refusal(text, strict, message):
    with pytest.raises(QasmError) as info:
        parse(text, strict=strict)
    assert str(info.value) == message
