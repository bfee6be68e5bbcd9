"""Exhaustive logical-to-physical placement search.

Every injection of the circuit's qubits into the device qubits is scored by
relabeling, substituting each CNOT with its table realization, and peephole
simplifying. The winner is picked by `circuit.cheapest`, the rule the
realization table uses too: fewest gates, then fewest levels, then the
lexicographically smallest placement, with levels counted only for
placements whose gate count is at most the best so far. Beyond the
exhaustive limit the search refuses instead of degrading to a heuristic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .circuit import Circuit, CostReport, Gate, GateKind, check_placement, cheapest
from .circuit import cost_report, levels_of
from .peephole import simplify_gates
from .realization import RealizationTable
from .topology import CouplingGraph

DEFAULT_SEARCH_LIMIT = 8


@dataclass(frozen=True)
class MappingResult:
    placement: tuple[int, ...]
    mapped: Circuit
    initial_cost: CostReport
    final_cost: CostReport
    reduction_pct: tuple[int, int]


def percent_reduction(initial: CostReport, final: CostReport) -> tuple[int, int]:
    """Per-metric reduction, rounded half-up; negative when costs grew."""

    def pct(before: int, after: int) -> int:
        if before == 0:
            return 0
        return math.floor(100.0 * (before - after) / before + 0.5)

    return (pct(initial.gates, final.gates), pct(initial.levels, final.levels))


def _mapped_gates(
    circuit: Circuit,
    placement: Sequence[int],
    table: RealizationTable,
    cache: dict[tuple[GateKind, int], Gate],
) -> list[Gate]:
    out: list[Gate] = []
    entries = table.entries
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            out.extend(entries[(placement[g.qubits[0]], placement[g.qubits[1]])].sequence.gates)
        else:
            key = (g.kind, placement[g.qubits[0]])
            gate = cache.get(key)
            if gate is None:
                gate = Gate(g.kind, (key[1],))
                cache[key] = gate
            out.append(gate)
    return out


def check_search_limit(graph: CouplingGraph) -> None:
    """Refuse a device too wide for exhaustive search, before any table is built."""
    if graph.num_physical > DEFAULT_SEARCH_LIMIT:
        raise ValueError(
            f"device has {graph.num_physical} qubits; exhaustive search is limited to "
            f"{DEFAULT_SEARCH_LIMIT} (the tool refuses rather than silently approximating)"
        )


def _check_widths(circuit: Circuit, table: RealizationTable) -> int:
    num_physical = table.graph.num_physical
    if circuit.num_qubits > num_physical:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, device only {num_physical}"
        )
    check_search_limit(table.graph)
    return num_physical


def optimize(circuit: Circuit, table: RealizationTable) -> MappingResult:
    """Try every injection of logical onto physical qubits, keep the best.

    The initial cost is measured on the circuit as written, even if it is
    not executable on the device as-is.
    """
    num_physical = _check_widths(circuit, table)
    cache: dict[tuple[GateKind, int], Gate] = {}
    (gates, levels, placement), best = cheapest(
        (simplify_gates(_mapped_gates(circuit, p, table, cache)), p)
        for p in permutations(range(num_physical), circuit.num_qubits)
    )
    initial = cost_report(circuit)
    final = CostReport(gates, levels)
    return MappingResult(
        placement=placement,
        mapped=Circuit(num_physical, tuple(best)),
        initial_cost=initial,
        final_cost=final,
        reduction_pct=percent_reduction(initial, final),
    )


def cost_of(
    circuit: Circuit,
    placement: Sequence[int],
    table: RealizationTable,
) -> CostReport:
    """Cost of relabel -> substitute -> simplify under one fixed placement."""
    check_placement(placement, table.graph.num_physical, circuit.num_qubits)
    gates = simplify_gates(_mapped_gates(circuit, placement, table, {}))
    return CostReport(len(gates), levels_of(gates))
