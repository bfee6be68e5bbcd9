"""Per-architecture lookup from every ordered qubit pair to the cheapest
known gate sequence implementing that CNOT on the device.

Built once per coupling graph from one template, tried along every shortest
path from both ends: swap one endpoint's content along the path, apply the
CNOT locally, swap back. The local CNOT is native or, against the edge,
Hadamard-conjugated, so an adjacent pair costs one gate or five. From
distance two on, the walk may also stop one qubit short and apply a
four-CNOT ladder across the middle qubit (two gate orders tried).

Every candidate is peephole-simplified, and the winner is picked by
`circuit.cheapest`, the rule the placement search uses too: fewest gates,
then fewest levels (counted only on gate-count ties), then gate sequence.
Every entry is an H+CNOT circuit, so it is Clifford: each entry is proven
equal to the plain CNOT as it is built, by comparing stabilizer tableaus,
exactly and on a device of any size.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, cheapest, cnot, gate1, levels_of
from .peephole import simplify_gates
from .qasm import gate_line
from .stabilizer import equivalent
from .topology import CouplingGraph, allows, shortest_paths


class RealizationError(Exception):
    pass


@dataclass(frozen=True)
class RealizationEntry:
    sequence: Circuit
    total_gates: int
    levels: int


@dataclass(frozen=True)
class RealizationTable:
    graph: CouplingGraph
    entries: dict[tuple[int, int], RealizationEntry]


def _local_cnot(graph: CouplingGraph, control: int, target: int) -> list[Gate]:
    """CNOT between adjacent qubits: native edge, or H-conjugated reverse."""
    if (control, target) in graph.edges:
        return [cnot(control, target)]
    if (target, control) in graph.edges:
        h_pair = [gate1(GateKind.H, control), gate1(GateKind.H, target)]
        return h_pair + [cnot(target, control)] + h_pair
    raise RealizationError(f"qubits {control} and {target} are not adjacent")


def _swap(graph: CouplingGraph, a: int, b: int) -> list[Gate]:
    """SWAP as CNOT(a, b), CNOT(b, a), CNOT(a, b), with `a` and `b` exchanged
    first unless (a, b) is an edge; the middle CNOT is `_local_cnot`'s, so it
    is H-conjugated on a one-way edge and raises on a non-adjacent pair."""
    if (a, b) not in graph.edges:
        a, b = b, a
    return [cnot(a, b)] + _local_cnot(graph, b, a) + [cnot(a, b)]


def _ladder(graph: CouplingGraph, a: int, mid: int, b: int, order: int) -> list[Gate]:
    """CNOT(a, b) across middle qubit `mid` as four local CNOTs."""
    first = _local_cnot(graph, a, mid)
    second = _local_cnot(graph, mid, b)
    if order == 0:
        return first + second + first + second
    return second + first + second + first


def _conjugated(
    graph: CouplingGraph, pairs: list[tuple[int, int]], middle: list[Gate]
) -> list[Gate]:
    """SWAP along each pair in turn, apply `middle`, then undo the SWAPs."""
    swaps = [_swap(graph, a, b) for a, b in pairs]
    return [g for s in swaps for g in s] + middle + [g for s in reversed(swaps) for g in s]


def _candidates(graph: CouplingGraph, control: int, target: int) -> list[list[Gate]]:
    out: list[list[Gate]] = []
    for path in shortest_paths(graph, control, target):
        k = len(path) - 1
        # Walk the control's content toward the target, then the target's toward
        # the control; `[::step]` keeps each CNOT running from control to target.
        for walk, step in ((path, 1), (path[::-1], -1)):
            pairs = list(zip(walk, walk[1:]))
            near, far = (walk[k - 1], walk[k])[::step]
            out.append(_conjugated(graph, pairs[: k - 1], _local_cnot(graph, near, far)))
            if k >= 2:
                # Stop at distance two and ladder across the middle qubit.
                near, far = (walk[k - 2], walk[k])[::step]
                for order in (0, 1):
                    ladder = _ladder(graph, near, walk[k - 1], far, order)
                    out.append(_conjugated(graph, pairs[: k - 2], ladder))
    return out


def build_table(graph: CouplingGraph, verify: bool = True) -> RealizationTable:
    """Construct the full table for a connected coupling graph.

    With verify on (the default), every entry is proven equal to the plain
    CNOT up to global phase by its stabilizer tableau, on any device.
    """
    n = graph.num_physical
    entries: dict[tuple[int, int], RealizationEntry] = {}
    for control in range(n):
        for target in range(n):
            if control == target:
                continue
            _, best = cheapest(
                (simplified, tuple((g.kind.name, g.qubits) for g in simplified))
                for simplified in map(simplify_gates, _candidates(graph, control, target))
            )
            sequence = Circuit(n, tuple(best))
            for g in best:
                if g.kind is GateKind.CNOT and not allows(graph, *g.qubits):
                    raise RealizationError(
                        f"entry ({control},{target}) uses illegal CNOT{g.qubits}"
                    )
            if verify and not equivalent(Circuit(n, (cnot(control, target),)), sequence):
                raise RealizationError(
                    f"entry ({control},{target}) does not implement its CNOT"
                )
            entries[(control, target)] = RealizationEntry(sequence, len(best), levels_of(best))
    return RealizationTable(graph, entries)


def lookup(table: RealizationTable, control: int, target: int) -> RealizationEntry:
    n = table.graph.num_physical
    for q in (control, target):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} outside 0..{n - 1}")
    if control == target:
        raise ValueError("control and target must differ")
    return table.entries[(control, target)]


def dump_text(table: RealizationTable) -> str:
    """Human-readable table: per-pair cost line plus the gate sequence."""
    lines = [f"# architecture {table.graph.name}: {table.graph.num_physical} qubits"]
    for (control, target) in sorted(table.entries):
        entry = table.entries[(control, target)]
        lines.append(
            f"cnot q[{control}],q[{target}]: gates={entry.total_gates} levels={entry.levels}"
        )
        lines.extend(f"  {gate_line(g)}" for g in entry.sequence.gates)
    return "\n".join(lines) + "\n"
