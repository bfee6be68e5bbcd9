import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import qasm_oracle
from qxopt.circuit import Circuit, Gate, GateKind, cnot, gate1, random_circuit
from qxopt.qasm import QasmError, emit, gate_line, parse, parse_report
from test_parser_fuzz import _TOKENS

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_parse_basic_statements():
    c = parse(HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    assert c == Circuit(2, (gate1(GateKind.H, 0), cnot(0, 1)))


def test_parse_register_only_is_empty_circuit():
    c = parse("qreg q[1];")
    assert c.num_qubits == 1
    assert c.gates == ()


def test_parse_makes_gates_without_rechecking_them(monkeypatch):
    # The parser's own checks cover `Gate`'s, so no parsed gate runs them;
    # the gates equal checked ones, and a pickled copy is checked again,
    # once per distinct gate (the repeated statement shares its `Gate`).
    from test_circuit import _count_gate_checks

    text = "qreg q[3]; h q[0]; cx q[2],q[1]; t q[2]; cx q[2],q[1];"
    calls = _count_gate_checks(monkeypatch)
    gates = parse(text).gates
    assert calls == []
    monkeypatch.undo()
    assert gates == (gate1(GateKind.H, 0), cnot(2, 1), gate1(GateKind.T, 2), cnot(2, 1))
    calls = _count_gate_checks(monkeypatch)
    assert pickle.loads(pickle.dumps(gates)) == gates and len(calls) == 3


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
    circuit, warnings = parse_report(
        HEADER + "qreg q[2]; creg c[2];\nh q[0];\nbarrier q[0],q[1];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];"
    )
    assert circuit.gates == (gate1(GateKind.H, 0),)
    assert warnings == [
        "dropped 2 measure statement(s)",
        "dropped 1 barrier statement(s)",
    ]


def test_strict_mode_rejects_measure():
    with pytest.raises(QasmError, match="strict"):
        parse("qreg q[1]; measure q[0] -> c[0];", strict=True)


def test_any_whitespace_separates_a_keyword_and_its_operands():
    c = parse("qreg q[2];\nh\tq[0];\ncx q[0],\tq[1];")
    assert c.gates == (gate1(GateKind.H, 0), cnot(0, 1))


def _read(read_report, text, strict):
    """A reader's circuit and warnings, or the class name and text of its refusal."""
    try:
        return read_report(text, strict)
    except ValueError as error:
        return type(error).__name__, str(error)


def _oracle_report(text, strict):
    report = qasm_oracle.parse_report(text, strict=strict)
    return report.circuit, report.warnings


_SPACES = ["\t", "\x0b", "\xa0"]
_TOKEN = st.sampled_from(_TOKENS + _SPACES)
# Statements that start with a keyword and a separator, after an optional
# declaration, so that draws reach the operand checks and the gate list.
_STATEMENT = st.tuples(
    st.one_of(st.sampled_from(["h", "x", "cx", "tdg", "measure", "barrier", "creg"]), st.sampled_from(_TOKENS)),
    st.sampled_from([" ", "", *_SPACES]),
    st.one_of(
        st.sampled_from(["q[0]", "q[1],q[2]", "q[2],\tq[0]", "q[0] -> c[0]", "q[3]", "q[1],q[1]", "c[2]"]),
        st.lists(_TOKEN, max_size=6).map("".join),
    ),
).map("".join)
_PROGRAM = st.tuples(
    st.sampled_from(["", "qreg q[3];", "qreg q[3]; creg c[3];\n"]),
    st.lists(_STATEMENT, max_size=5).map(";".join),
).map("".join)


@settings(deadline=None, max_examples=500)
@given(st.one_of(st.text(max_size=200), st.lists(_TOKEN, max_size=80).map("".join), _PROGRAM), st.booleans())
def test_reader_matches_the_oracle(text, strict):
    assert _read(parse_report, text, strict) == _read(_oracle_report, text, strict)


# Statements to repeat, so that one program meets the same text again:
# valid gates, one of them in several spacings, and statements that must
# be read anew at each occurrence: refusals, dropped statements, and a
# `qreg` that a gate may precede, follow, or both. Valid gates are drawn
# more often, so that many programs parse to the end.
_VALID = [
    "h q[0]", "h  q[0]", "h\tq[0] ", " h q[0]", "cx q[0],q[1]", "cx q[0], q[1]", "cx q[2],q[0]",
    "tdg q[2]", "s q[1]",
]
_OTHER = [
    "qreg q[3]", "qreg r[2]", "creg c[3]", "cx q[1],q[1]", "x q[3]", "measure q[0] -> c[0]",
    "barrier q[0],q[1]",
]
_REPEATS = st.tuples(
    st.sampled_from(["", "qreg q[3];\n", "qreg q[3]; creg c[3];\n"]),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_VALID), st.sampled_from(_VALID + _OTHER)),
            st.sampled_from([";", "; ", ";\n", ";\t"]),
        ),
        max_size=30,
    ),
).map(lambda drawn: drawn[0] + "".join(stmt + end for stmt, end in drawn[1]))


@settings(deadline=None, max_examples=300)
@given(_REPEATS, st.booleans())
def test_repeated_statements_read_as_the_oracle_reads_them(text, strict):
    assert _read(parse_report, text, strict) == _read(_oracle_report, text, strict)


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda kind: kind.name)
def test_gate_line_matches_the_oracle_formatter(kind):
    indices = (0, 1, 9, 10, 11, 99, 100, 4095)
    qubit_tuples = (
        [(q,) for q in indices]
        if kind.arity == 1
        else [(a, b) for a in indices for b in indices if a != b]
    )
    for qubits in qubit_tuples:
        gate = Gate(kind, qubits)
        assert gate_line(gate) == qasm_oracle.gate_line(gate)


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
        ("h q[0]; qreg q[1]; h q[0];", False, "line 1, column 1: gate statement before qreg declaration"),
        ("qreg q[2]; cx q[0];", False, "line 1, column 12: cx takes 2 operand(s), got 1"),
        ("qreg q[2]; h q[0],q[1];", False, "line 1, column 12: h takes 1 operand(s), got 2"),
        ("qreg q[1]; h q;", False, "line 1, column 12: malformed qubit reference 'q'"),
        ("OPENQASM 2.0;\n// nothing\n", False, "no quantum register declared"),
        ("", False, "no quantum register declared"),
    ],
    ids=[
        "unknown-register", "malformed-register", "zero-size", "second-creg", "strict-barrier",
        "gate-before-qreg", "gate-before-and-after-qreg", "too-few-operands", "too-many-operands", "malformed-reference",
        "no-qreg", "empty",
    ],
)
def test_parse_pins_each_refusal(text, strict, message):
    with pytest.raises(QasmError) as info:
        parse(text, strict=strict)
    assert str(info.value) == message
