"""Reference checker, independent of the program under test.

It reads circuits and devices from their text forms with its own parsers and
simulates them with its own gate matrices and state-vector code; it never
imports `qxopt`. Two circuits count as equal when they map the same seeded
random input states to the same outputs up to one global phase shared by
all states.

Run this file to execute the self-test, which shows the checker accepts a
correct mapping and rejects corrupted ones:

    python3 perfbench/refcheck.py
"""
from __future__ import annotations

import math
import re

import numpy as np

_R2 = 1.0 / math.sqrt(2.0)
_W = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

MATRICES = {
    "h": np.array([[_R2, _R2], [_R2, -_R2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, _W]], dtype=complex),
    "tdg": np.array([[1, 0], [0, _W.conjugate()]], dtype=complex),
}

_SKIPPED = ("OPENQASM", "include", "creg", "measure", "barrier")
_QREG = re.compile(r"^qreg\s+\w+\[(\d+)\]$")
_REF = re.compile(r"\w+\[(\d+)\]")

Gate = tuple  # (name, (qubit, ...))


def parse_qasm(text: str) -> tuple[int, list[Gate]]:
    """Width and gate list of a single-register Clifford+T QASM text."""
    width = None
    gates: list[Gate] = []
    for stmt in text.replace("\n", ";").split(";"):
        stmt = stmt.split("//", 1)[0].strip()
        if not stmt or stmt.split()[0] in _SKIPPED:
            continue
        m = _QREG.match(stmt)
        if m:
            width = int(m.group(1))
            continue
        name, _, args = stmt.partition(" ")
        qubits = tuple(int(q) for q in _REF.findall(args))
        arity_ok = len(qubits) == (2 if name == "cx" else 1)
        if width is None or not arity_ok or (name != "cx" and name not in MATRICES):
            raise ValueError(f"reference parser: unsupported statement {stmt!r}")
        if len(set(qubits)) != len(qubits) or max(qubits) >= width:
            raise ValueError(f"reference parser: bad operands in {stmt!r}")
        gates.append((name, qubits))
    if width is None:
        raise ValueError("reference parser: no qreg")
    return width, gates


def parse_device(text: str) -> tuple[int, frozenset[tuple[int, int]]]:
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][0] != "qubits":
        raise ValueError("reference parser: device text lacks its 'qubits N' header")
    edges = frozenset((int(c), int(t)) for c, t in lines[1:])
    return int(lines[0][1]), edges


def depth(gates: list[Gate]) -> int:
    """ASAP level count."""
    busy: dict[int, int] = {}
    for _, qubits in gates:
        level = 1 + max(busy.get(q, 0) for q in qubits)
        for q in qubits:
            busy[q] = level
    return max(busy.values(), default=0)


def random_states(width: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Haar-like random states as an array of shape (count, 2, ..., 2).
    Axis 1 + k holds qubit width-1-k, so qubit 0 is the least significant
    bit of a flattened index."""
    flat = rng.normal(size=(count, 2**width)) + 1j * rng.normal(size=(count, 2**width))
    flat /= np.linalg.norm(flat, axis=1, keepdims=True)
    return flat.reshape((count,) + (2,) * width)


def simulate(states: np.ndarray, gates: list[Gate]) -> np.ndarray:
    """Apply `gates` to a batch of states from `random_states`."""
    width = states.ndim - 1
    out = states.copy()
    for name, qubits in gates:
        if name == "cx":
            control, target = (1 + width - 1 - q for q in qubits)
            index = [slice(None)] * out.ndim
            index[control] = 1
            block = out[tuple(index)]
            out[tuple(index)] = np.flip(block, axis=target - (target > control)).copy()
        else:
            axis = 1 + width - 1 - qubits[0]
            out = np.moveaxis(np.tensordot(MATRICES[name], out, axes=([1], [axis])), 0, axis)
    return out


def same_action(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """Outputs agree up to one global phase for every state in the batch."""
    a = a.reshape(a.shape[0], -1)
    b = b.reshape(b.shape[0], -1)
    overlap = np.vdot(a[0], b[0])
    if abs(overlap) < 0.5:
        return False
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(b - phase * a))) <= tol


def equal_circuits(text_a: str, text_b: str, seed: int, states: int = 3) -> bool:
    """Whether two QASM texts of the same width act alike on random states."""
    wa, ga = parse_qasm(text_a)
    wb, gb = parse_qasm(text_b)
    if wa != wb:
        return False
    psi = random_states(wa, states, np.random.default_rng(seed))
    return same_action(simulate(psi, ga), simulate(psi, gb))


def ideal_state(text: str) -> np.ndarray:
    """Output of the circuit on |0...0> as a flat vector (qubit 0 = LSB)."""
    width, gates = parse_qasm(text)
    psi = np.zeros((1,) + (2,) * width, dtype=complex)
    psi.reshape(-1)[0] = 1.0
    return simulate(psi, gates).reshape(-1)


def check_mapping(
    original: str,
    mapped: str,
    placement: tuple[int, ...],
    device: str,
    gates: int,
    levels: int,
    seed: int,
    states: int = 3,
) -> list[str]:
    """Problems with one mapping result; an empty list means it is correct.

    `gates` and `levels` are the costs the program reported for `mapped`.
    """
    problems = []
    width, orig_gates = parse_qasm(original)
    mwidth, mgates = parse_qasm(mapped)
    n, edges = parse_device(device)
    if mwidth != n:
        problems.append(f"mapped circuit has {mwidth} qubits, device {n}")
    if len(placement) != width or len(set(placement)) != width:
        problems.append(f"placement {placement} is not an injection of {width} qubits")
    if any(not 0 <= p < n for p in placement):
        problems.append(f"placement {placement} outside 0..{n - 1}")
    bad = [q for name, q in mgates if name == "cx" and q not in edges]
    if bad:
        problems.append(f"CNOTs off the device's edges: {bad[:3]}")
    if gates != len(mgates) or levels != depth(mgates):
        problems.append(
            f"reported cost {gates}/{levels}, circuit has {len(mgates)}/{depth(mgates)}"
        )
    if problems:
        return problems
    relabeled = [(name, tuple(placement[q] for q in qs)) for name, qs in orig_gates]
    psi = random_states(n, states, np.random.default_rng(seed))
    if not same_action(simulate(psi, relabeled), simulate(psi, mgates)):
        problems.append("mapped circuit does not act like the relabeled original")
    return problems


def check_entry(
    control: int, target: int, sequence: list[Gate], total_gates: int, device: str, seed: int
) -> list[str]:
    """Problems with one realization-table entry for CNOT(control, target)."""
    problems = []
    n, edges = parse_device(device)
    bad = [q for name, q in sequence if name == "cx" and q not in edges]
    if bad:
        problems.append(f"entry ({control},{target}) uses non-native CNOTs {bad}")
    if total_gates != len(sequence):
        problems.append(f"entry ({control},{target}) reports {total_gates} gates, has {len(sequence)}")
    expected = 1 if (control, target) in edges else 5 if (target, control) in edges else None
    if expected is not None and total_gates != expected:
        problems.append(f"entry ({control},{target}) costs {total_gates}, expected {expected}")
    psi = random_states(n, 3, np.random.default_rng(seed))
    if not same_action(simulate(psi, [("cx", (control, target))]), simulate(psi, sequence)):
        problems.append(f"entry ({control},{target}) does not implement its CNOT")
    return problems


def _qasm(width: int, gates: list[Gate]) -> str:
    body = "".join(f"{name} " + ",".join(f"q[{q}]" for q in qs) + ";\n" for name, qs in gates)
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\n' + body


def self_test() -> list[str]:
    """Failures of the checker on hand-made cases; empty when it works.

    On qx4 (edges 1->0, 2->0, 2->1, 2->4, 3->2, 3->4) the 2-qubit circuit
    h q0; cx q0,q1; t q1 with placement (2, 1) maps to h q2; cx q2,q1; t q1.
    """
    device = "qubits 5\n1 0\n2 0\n2 1\n2 4\n3 2\n3 4\n"
    original = _qasm(2, [("h", (0,)), ("cx", (0, 1)), ("t", (1,))])
    good = [("h", (2,)), ("cx", (2, 1)), ("t", (1,))]
    reversed_cx = [("h", (1,)), ("h", (2,)), ("cx", (2, 1)), ("h", (1,)), ("h", (2,))]
    corrupt = {
        "dropped gate": (good[:2], (2, 1), 2, 2),
        "swapped placement": (good, (1, 2), 3, 3),
        "non-native CNOT": ([("h", (1,)), ("cx", (1, 2)), ("t", (2,))], (1, 2), 3, 3),
        "non-injective placement": (good, (2, 2), 3, 3),
        "placement out of range": (good, (2, 7), 3, 3),
        "wrong reported cost": (good, (2, 1), 2, 3),
        "extra t": (good + [("t", (1,))], (2, 1), 4, 4),
    }
    failures = []
    if check_mapping(original, _qasm(5, good), (2, 1), device, 3, 3, seed=1):
        failures.append("rejects a correct mapping")
    for label, (gates, placement, g, lv) in corrupt.items():
        if not check_mapping(original, _qasm(5, gates), placement, device, g, lv, seed=1):
            failures.append(f"accepts a corrupted mapping: {label}")
    if check_entry(1, 2, reversed_cx, 5, device, seed=1):
        failures.append("rejects the reversed-edge entry (1,2)")
    if not check_entry(1, 2, reversed_cx[:-1], 4, device, seed=1):
        failures.append("accepts a truncated entry")
    if not check_entry(2, 1, reversed_cx, 5, device, seed=1):
        failures.append("accepts a 5-gate entry on a native edge")
    if not equal_circuits(_qasm(5, good), _qasm(5, good), seed=1):
        failures.append("says a circuit differs from itself")
    if equal_circuits(original, _qasm(2, [("h", (0,)), ("cx", (0, 1))]), seed=1):
        failures.append("misses a dropped t")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print(f"FAIL: {p}")
    print("reference checker self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
