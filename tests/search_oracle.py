"""Reference search: the peephole pass and the placement loop in their
plain, `Gate`-based forms.

`stack_simplify_gates` is the single-pass stack machine on `Gate`s, as it
ran before the engine moved to integer gate codes. `stack_rewrite` is that
machine on gate codes, a dict of per-qubit stacks, as it ran before the
engine moved to flat links and whole-block pushes. `simplify_gates` finds a
gate's partner by scanning `pending` backward for the last overlapping
gate, and deletes matched gates from the list in place.
`simplify_to_fixpoint` repeats that pass until a whole pass fires nothing.
`mapped_gates` builds a placement's mapped circuit as `Gate`s, and
`optimize` counts levels for every placement. Slow, but each step is the
plain definition, so the differential tests in `test_peephole.py` and
`test_placement.py` compare the shipped code against them.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from itertools import permutations
from typing import Sequence

from qxopt.circuit import KIND_CODE, Circuit, Gate, GateKind, cost_report, decode, levels_of
from qxopt.peephole import RULES, RuleFiring
from qxopt.placement import MappingResult, _check_widths, percent_reduction
from qxopt.realization import RealizationTable

_RULE_BY_PAIR = {rule.pattern: rule for rule in RULES}


def mapped_gates(circuit: Circuit, placement: Sequence[int], table: RealizationTable) -> list[Gate]:
    """Each CNOT replaced by its table entry, each 1-qubit gate relabeled."""
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            out.extend(table.entries[(placement[g.qubits[0]], placement[g.qubits[1]])].sequence.gates)
        else:
            out.append(Gate(g.kind, (placement[g.qubits[0]],)))
    return out


def stack_simplify_gates(gates: list[Gate], trace: list[RuleFiring] | None = None) -> list[Gate]:
    """The single pass with per-qubit stacks of indices into `pending`: a
    1-qubit gate's partner is the top of its qubit's stack, a CNOT's the top
    shared by both stacks. A deleted gate becomes a `None` tombstone."""
    pending: list[Gate | None] = []
    stacks: defaultdict[int, list[int]] = defaultdict(list)
    for gate in gates:
        qubits = gate.qubits
        while True:
            stack = stacks[qubits[0]]
            i = stack[-1] if stack else -1
            if i >= 0 and len(qubits) == 2:
                other = stacks[qubits[1]]
                if not other or other[-1] != i:
                    i = -1
            rule = None
            if i >= 0 and pending[i].qubits == qubits:
                rule = _RULE_BY_PAIR.get((pending[i].kind, gate.kind))
            if rule is None:
                for q in qubits:
                    stacks[q].append(len(pending))
                pending.append(gate)
                break
            if trace is not None:
                position = sum(g is not None for g in pending[:i])
                trace.append(RuleFiring(rule.name, position, qubits))
            pending[i] = None
            for q in qubits:
                stacks[q].pop()
            if not rule.replacement:
                break
            gate = Gate(rule.replacement[0], qubits)
    return [g for g in pending if g is not None]


def _rule_slots() -> list[tuple[str, int] | None]:
    """The rule for a pending gate of kind index p and an incoming one of
    kind index c at slot `p << 4 | c`, as (name, merged kind index or -1)."""
    slots: list[tuple[str, int] | None] = [None] * 256
    for rule in RULES:
        first, second = (KIND_CODE[kind] for kind in rule.pattern)
        merged = KIND_CODE[rule.replacement[0]] if rule.replacement else -1
        slots[first << 4 | second] = (rule.name, merged)
    return slots


_RULE_AT = _rule_slots()


def stack_rewrite(codes: list[int], bits: int, trace: list[RuleFiring] | None = None) -> list[int]:
    """The single pass on gate codes with a dict of per-qubit stacks of
    indices into `pending`: a 1-qubit gate's partner is the top of its
    qubit's stack, a CNOT's the top shared by both stacks, and a partner
    must act on the same qubits, `(partner ^ code) >> 4 == 0`. A deleted
    gate becomes a -1 tombstone and leaves the stacks of its qubits."""
    shift = 4 + bits
    mask = (1 << bits) - 1
    pending: list[int] = []
    dead: list[int] | None = [] if trace is not None else None
    stacks: defaultdict[int, list[int]] = defaultdict(list)
    for code in codes:
        if code & 8:
            stack, other = stacks[code >> 4 & mask], stacks[code >> shift]
        else:
            stack, other = stacks[code >> 4], None
        while stack:
            i = stack[-1]
            if other is not None and (not other or other[-1] != i):
                break
            partner = pending[i]
            if (partner ^ code) >> 4:
                break
            rule = _RULE_AT[(partner & 15) << 4 | code & 15]
            if rule is None:
                break
            name, merged = rule
            if dead is not None:
                position = i - bisect_left(dead, i)
                trace.append(RuleFiring(name, position, decode(code, bits).qubits))
                insort(dead, i)
            pending[i] = -1
            stack.pop()
            if other is not None:
                other.pop()
            if merged < 0:
                code = -1
                break
            code = code >> 4 << 4 | merged
        if code >= 0:
            stack.append(len(pending))
            if other is not None:
                other.append(len(pending))
            pending.append(code)
    return [c for c in pending if c >= 0]


def _overlaps(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for q in a:
        if q in b:
            return True
    return False


def _rewrite_pass(gates: list[Gate], trace: list[RuleFiring]) -> tuple[list[Gate], bool]:
    """One left-to-right pass with a backward scan for each gate's partner."""
    pending: list[Gate] = []
    fired = False
    for gate in gates:
        while True:
            i = len(pending) - 1
            while i >= 0 and not _overlaps(pending[i].qubits, gate.qubits):
                i -= 1
            if i < 0 or pending[i].qubits != gate.qubits:
                pending.append(gate)
                break
            rule = _RULE_BY_PAIR.get((pending[i].kind, gate.kind))
            if rule is None:
                pending.append(gate)
                break
            fired = True
            trace.append(RuleFiring(rule.name, i, gate.qubits))
            del pending[i]
            if not rule.replacement:
                break
            gate = Gate(rule.replacement[0], gate.qubits)
    return pending, fired


def simplify_gates(gates: list[Gate], trace: list[RuleFiring] | None = None) -> list[Gate]:
    """The single backward-scan pass."""
    return _rewrite_pass(list(gates), [] if trace is None else trace)[0]


def simplify_to_fixpoint(gates: list[Gate], trace: list[RuleFiring]) -> list[Gate]:
    """The backward-scan pass repeated until a whole pass fires nothing."""
    current = list(gates)
    while True:
        current, fired = _rewrite_pass(current, trace)
        if not fired:
            return current


def optimize(circuit: Circuit, table: RealizationTable) -> MappingResult:
    """Exhaustive placement on `Gate`s that counts levels for every placement."""
    num_physical = _check_widths(circuit, table)
    best_key: tuple | None = None
    best_gates: list[Gate] | None = None
    for placement in permutations(range(num_physical), circuit.num_qubits):
        gates = simplify_gates(mapped_gates(circuit, placement, table))
        key = (len(gates), levels_of(gates), placement)
        if best_key is None or key < best_key:
            best_key = key
            best_gates = gates
    assert best_key is not None and best_gates is not None
    initial = cost_report(circuit)
    mapped = Circuit(num_physical, tuple(best_gates))
    final = cost_report(mapped)
    return MappingResult(
        placement=best_key[2],
        mapped=mapped,
        initial_cost=initial,
        final_cost=final,
        reduction_pct=percent_reduction(initial, final),
    )
