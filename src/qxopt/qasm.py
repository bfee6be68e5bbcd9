"""OpenQASM 2 subset: enough to round-trip real single-register benchmark
files built from the Clifford+T set.

Accepted: the version header, one include line, one qreg, an optional creg,
the nine gate statements, and measure/barrier statements (dropped with a
warning, or rejected under strict mode). Everything else is an error that
names the offending token and its position; a file without a `qreg` is
refused as a whole.

Within one `parse_report` call a repeated gate statement parses once (a
5-qubit circuit has at most 60 distinct ones, however long it is); a
refusal is never remembered, so every refusal and its position are those
of a full read. `gate_line` fills one template per gate kind.
"""
from __future__ import annotations

import re

from .circuit import Circuit, Gate, GateKind, _gate

GATE_NAMES: dict[str, GateKind] = {kind.value: kind for kind in GateKind}


class QasmError(ValueError):
    """A refusal whose message starts with the statement's line and column,
    or, for a file that declares no `qreg`, carries no position."""


# An index or a size is one or more ASCII digits (`\d` takes any Unicode digit).
_REF = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\]$")


def _integer(digits: str, at: str) -> int:
    """The value of a field of `_REF` digits; refuses one longer than `int`
    converts."""
    try:
        return int(digits)
    except ValueError:
        raise QasmError(f"{at}: integer of {len(digits)} digits is too long") from None


def _statements(text: str):
    """Yield (statement, line, column) triples, splitting on ';' and
    skipping // comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        col = 1
        for piece in line.split(";"):
            stripped = piece.strip()
            if stripped:
                yield stripped, lineno, col + len(piece) - len(piece.lstrip())
            col += len(piece) + 1


def _parse_ref(token: str, reg_name: str, reg_size: int, at: str) -> int:
    m = _REF.match(token)
    if not m:
        raise QasmError(f"{at}: malformed qubit reference {token!r}")
    name, idx = m.group(1), _integer(m.group(2), at)
    if name != reg_name:
        raise QasmError(f"{at}: unknown register {name!r} (declared: {reg_name!r})")
    if idx >= reg_size:
        raise QasmError(f"{at}: qubit index {idx} >= register size {reg_size}")
    return idx


def parse_report(text: str, strict: bool = False) -> tuple[Circuit, list[str]]:
    """The circuit, and one warning per kind of statement that was dropped.

    A gate statement whose stripped text already parsed in this call reuses
    its `Gate`: its checks read only the text and the `qreg`, which cannot
    change once a gate has parsed."""
    registers: dict[str, tuple[str, int]] = {}  # keyed by "qreg" / "creg"
    dropped = {"measure": 0, "barrier": 0}
    gates: list[Gate] = []
    parsed: dict[str, Gate] = {}

    for stmt, lineno, column in _statements(text):
        gate = parsed.get(stmt)
        if gate is not None:
            gates.append(gate)
            continue
        at = f"line {lineno}, column {column}"
        keyword, *tail = stmt.split(None, 1)
        rest = tail[0] if tail else ""

        if keyword in ("OPENQASM", "include"):
            continue
        if keyword in ("qreg", "creg"):
            m = _REF.match(rest)
            if not m:
                raise QasmError(f"{at}: malformed register declaration {stmt!r}")
            name, size = m.group(1), _integer(m.group(2), at)
            if size < 1:
                raise QasmError(f"{at}: register {name!r} must have positive size")
            if keyword in registers:
                which = "quantum" if keyword == "qreg" else "classical"
                raise QasmError(f"{at}: multiple {which} registers are not supported")
            registers[keyword] = (name, size)
        elif keyword in dropped:
            if strict:
                raise QasmError(f"{at}: {keyword} statement not allowed in strict mode")
            dropped[keyword] += 1
        else:
            kind = GATE_NAMES.get(keyword)
            if kind is None:
                raise QasmError(f"{at}: unknown gate {keyword!r}")
            if "qreg" not in registers:
                raise QasmError(f"{at}: gate statement before qreg declaration")
            args = [a.strip() for a in rest.split(",")] if rest else []
            if len(args) != kind.arity:
                raise QasmError(f"{at}: {keyword} takes {kind.arity} operand(s), got {len(args)}")
            qubits = tuple(_parse_ref(a, *registers["qreg"], at) for a in args)
            if len(set(qubits)) != len(qubits):
                raise QasmError(f"{at}: duplicate qubit in {keyword}: {rest}")
            # The operand count, `_parse_ref`'s digits and the duplicate
            # test are `Gate`'s checks, so the gate is made without them.
            gate = parsed[stmt] = _gate(kind, qubits)
            gates.append(gate)

    if "qreg" not in registers:
        raise QasmError("no quantum register declared")
    warnings = [f"dropped {n} {keyword} statement(s)" for keyword, n in dropped.items() if n]
    return Circuit(registers["qreg"][1], tuple(gates)), warnings


def parse(text: str, strict: bool = False) -> Circuit:
    return parse_report(text, strict=strict)[0]


# Each kind's statement template, filled with the gate's qubits.
_LINE = {
    kind: (f"{kind.value} q[{{}}];" if kind.arity == 1 else f"{kind.value} q[{{}}],q[{{}}];").format
    for kind in GateKind
}


def gate_line(gate: Gate) -> str:
    """One gate statement, e.g. `cx q[0],q[1];`."""
    return _LINE[gate.kind](*gate.qubits)


def emit(circuit: Circuit) -> str:
    """Emit text that parses back to the identical circuit."""
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    return "\n".join(header + [gate_line(g) for g in circuit.gates]) + "\n"
