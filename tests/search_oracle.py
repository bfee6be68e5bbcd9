"""Reference search: the peephole pass and the placement loop as they were
before the per-qubit index and the tie-only level count.

`simplify_gates` finds a gate's partner by scanning `pending` backward for
the last overlapping gate, and deletes matched gates from the list in place.
`simplify_to_fixpoint` repeats that pass until a whole pass fires nothing.
`optimize` counts levels for every placement. Slow, but each step is the
plain definition, so the differential tests in `test_peephole.py` and
`test_placement.py` compare the shipped code against them.
"""
from __future__ import annotations

from itertools import permutations

from qxopt.circuit import Circuit, Gate, GateKind, cost_report, levels_of
from qxopt.peephole import _RULE_BY_PAIR, RuleFiring
from qxopt.placement import (
    MappingResult,
    _check_widths,
    _mapped_gates,
    percent_reduction,
)
from qxopt.realization import RealizationTable


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
    """Exhaustive placement that counts levels for every placement."""
    num_physical = _check_widths(circuit, table)
    cache: dict[tuple[GateKind, int], Gate] = {}
    best_key: tuple | None = None
    best_gates: list[Gate] | None = None
    for placement in permutations(range(num_physical), circuit.num_qubits):
        gates = simplify_gates(_mapped_gates(circuit, placement, table, cache))
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
