"""Reference QASM reader: the statement parser that `qxopt.qasm` replaced.

It builds a `SourceSpan` for every statement and returns a `ParseReport`,
with one branch per keyword, and reads every statement in full. The
differential test in `test_qasm.py` requires `qxopt.qasm.parse_report` to
return the same circuit and warnings on every input, or to refuse it with
the same message. It reads a qubit reference or a register declaration
with the reader's own `_REF` and `_integer`, so both take the same integer
fields. `gate_line` is the gate formatter `qxopt.qasm` replaced with
per-kind templates.
"""
from __future__ import annotations

from dataclasses import dataclass

from qxopt.circuit import Circuit, Gate, GateKind
from qxopt.qasm import _REF, _integer

GATE_NAMES: dict[str, GateKind] = {kind.value: kind for kind in GateKind}


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class QasmError(ValueError):
    """Refusal at `span`, or of the whole file when `span` is None."""

    def __init__(self, message: str, span: SourceSpan | None):
        super().__init__(message if span is None else f"{span}: {message}")
        self.span = span


@dataclass
class ParseReport:
    circuit: Circuit
    warnings: list[str]


def _statements(text: str):
    """Yield (statement, span) pairs, splitting on ';' and skipping // comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        col = 1
        for piece in line.split(";"):
            stripped = piece.strip()
            if stripped:
                yield stripped, SourceSpan(lineno, col + len(piece) - len(piece.lstrip()))
            col += len(piece) + 1


def _parse_ref(token: str, reg_name: str, reg_size: int, span: SourceSpan) -> int:
    m = _REF.match(token)
    if not m:
        raise QasmError(f"malformed qubit reference {token!r}", span)
    name, idx = m.group(1), _integer(m.group(2), str(span))
    if name != reg_name:
        raise QasmError(f"unknown register {name!r} (declared: {reg_name!r})", span)
    if idx >= reg_size:
        raise QasmError(f"qubit index {idx} >= register size {reg_size}", span)
    return idx


def parse_report(text: str, strict: bool = False) -> ParseReport:
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[Gate] = []
    dropped_measure = 0
    dropped_barrier = 0
    warnings: list[str] = []

    for stmt, span in _statements(text):
        head = stmt.split(None, 1)
        keyword = head[0]
        rest = head[1].strip() if len(head) > 1 else ""

        if keyword == "OPENQASM":
            continue
        if keyword == "include":
            continue
        if keyword in ("qreg", "creg"):
            m = _REF.match(rest)
            if not m:
                raise QasmError(f"malformed register declaration {stmt!r}", span)
            name, size = m.group(1), _integer(m.group(2), str(span))
            if size < 1:
                raise QasmError(f"register {name!r} must have positive size", span)
            if keyword == "qreg":
                if qreg is not None:
                    raise QasmError("multiple quantum registers are not supported", span)
                qreg = (name, size)
            else:
                if creg is not None:
                    raise QasmError("multiple classical registers are not supported", span)
                creg = (name, size)
            continue
        if keyword == "measure":
            if strict:
                raise QasmError("measure statement not allowed in strict mode", span)
            dropped_measure += 1
            continue
        if keyword == "barrier":
            if strict:
                raise QasmError("barrier statement not allowed in strict mode", span)
            dropped_barrier += 1
            continue

        kind = GATE_NAMES.get(keyword)
        if kind is None:
            raise QasmError(f"unknown gate {keyword!r}", span)
        if qreg is None:
            raise QasmError("gate statement before qreg declaration", span)
        name, size = qreg
        args = [a.strip() for a in rest.split(",")] if rest else []
        if len(args) != kind.arity:
            raise QasmError(
                f"{keyword} takes {kind.arity} operand(s), got {len(args)}", span
            )
        qubits = tuple(_parse_ref(a, name, size, span) for a in args)
        if len(set(qubits)) != len(qubits):
            raise QasmError(f"duplicate qubit in {keyword}: {rest}", span)
        gates.append(Gate(kind, qubits))

    if qreg is None:
        raise QasmError("no quantum register declared", None)
    if dropped_measure:
        warnings.append(f"dropped {dropped_measure} measure statement(s)")
    if dropped_barrier:
        warnings.append(f"dropped {dropped_barrier} barrier statement(s)")
    return ParseReport(Circuit(qreg[1], tuple(gates)), warnings)


def parse(text: str, strict: bool = False) -> Circuit:
    return parse_report(text, strict=strict).circuit


def gate_line(gate: Gate) -> str:
    """One gate statement, e.g. `cx q[0],q[1];`."""
    return f"{gate.kind.value} " + ",".join(f"q[{q}]" for q in gate.qubits) + ";"
