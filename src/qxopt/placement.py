"""Exhaustive logical-to-physical placement search.

Every injection of the circuit's qubits into the device qubits is scored by
relabeling, substituting each CNOT with its table realization, and peephole
simplifying. The winner is picked by `circuit.cheapest`, the rule the
realization table uses too: fewest gates, then fewest levels, then the
lexicographically smallest placement, with levels counted only for
placements whose gate count is at most the best so far. Beyond the
exhaustive limit the search refuses instead of degrading to a heuristic.

The search runs on integer gate codes (see `circuit.encode`), with qubit
fields sized for the device: the table entries are encoded once per call,
each placement's mapped circuit is built straight as codes and rewritten by
`peephole.rewrite`, and only the winner is decoded back to `Gate`s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

from .circuit import Circuit, CostReport, check_placement, cheapest, code_levels, cost_report
from .circuit import decode, encode, field_bits
from .circuit import levels_of  # noqa: F401  perfbench traces `qxopt.placement.levels_of`
from .peephole import rewrite
from .peephole import simplify_gates  # noqa: F401  perfbench traces `qxopt.placement.simplify_gates`
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


def _mapper(circuit: Circuit, table: RealizationTable, bits: int) -> Callable[[Sequence[int]], list[int]]:
    """Function from a placement to the gate codes (`bits`-wide qubit
    fields) of `circuit` mapped under it: each CNOT replaced by its table
    entry, each 1-qubit gate moved to its physical qubit."""
    n = table.graph.num_physical
    entries: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n)]
    for (control, target), entry in table.entries.items():
        entries[control][target] = encode(entry.sequence.gates, bits)
    logical_bits = field_bits(circuit.num_qubits)
    shift = 4 + logical_bits
    mask = (1 << logical_bits) - 1
    logical = encode(circuit.gates, logical_bits)

    def mapped(placement: Sequence[int]) -> list[int]:
        out: list[int] = []
        for code in logical:
            if code & 8:
                out += entries[placement[code >> 4 & mask]][placement[code >> shift]]
            else:
                # `gate1_code` of the same kind on the physical qubit.
                out.append(code & 15 | placement[code >> 4] << 4)
        return out

    return mapped


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
    bits = field_bits(num_physical)
    mapped = _mapper(circuit, table, bits)
    (gates, levels, placement), best = cheapest(
        (
            (rewrite(mapped(p), bits), p)
            for p in permutations(range(num_physical), circuit.num_qubits)
        ),
        bits,
    )
    initial = cost_report(circuit)
    final = CostReport(gates, levels)
    return MappingResult(
        placement=placement,
        mapped=Circuit(num_physical, tuple(decode(c, bits) for c in best)),
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
    bits = field_bits(table.graph.num_physical)
    codes = rewrite(_mapper(circuit, table, bits)(placement), bits)
    return CostReport(len(codes), code_levels(codes, bits))
