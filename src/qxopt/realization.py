"""Per-architecture lookup from every ordered qubit pair to the cheapest
known gate sequence implementing that CNOT on the device.

Built once per coupling graph from one template, tried along every shortest
path from both ends: swap one endpoint's content along the path, apply the
CNOT locally, swap back. The local CNOT is native or, against the edge,
Hadamard-conjugated, so an adjacent pair costs one gate or five. From
distance two on, the walk may also stop one qubit short and apply a
four-CNOT ladder across the middle qubit (two gate orders tried). The
walk from the target's end builds only what needs a SWAP: its local CNOT
at distance one and its ladders at distance two are the other walk's, so
each candidate is built once.

The templates emit integer gate codes (see `circuit.encode`), never
`Gate`s. Every candidate is rewritten by `peephole.rewrite`, the engine the
placement search uses, and the winner is picked by `circuit.cheapest`, the
rule the search uses too: fewest gates, then fewest levels (counted only on
gate-count ties), then gate sequence, ordered as the tuple of each gate's
(kind name, qubits). Only the winners are decoded, all in one
`circuit.decode_all` call, so each distinct code becomes one `Gate` that
the entries share. Every entry is an H+CNOT circuit, so it is Clifford:
each entry is proven equal to the plain CNOT as it is built, by comparing
stabilizer tableaus, exactly and on a device of any size.

The table is a plain record of its graph and entries, and this module only
builds and proves them. The placement search derives everything it reads
of a table, the table's symmetries among that, on first use
(`placement._index`).
"""
from __future__ import annotations

from itertools import islice, permutations

from . import RealizationError, Record
from .circuit import KIND_CODE, KINDS, Circuit, GateKind, cheapest, cnot, cnot_code
from .circuit import decode_all, field_bits, gate1_code
from .circuit import levels_of  # noqa: F401  perfbench traces `qxopt.realization.levels_of`
from .peephole import rewrite
from .peephole import simplify_gates  # noqa: F401  perfbench traces `qxopt.realization.simplify_gates`
from .qasm import gate_line
from .stabilizer import equivalent
from .topology import CouplingGraph, allows, shortest_paths


class RealizationEntry(Record):
    __slots__ = ("sequence", "total_gates", "levels")
    sequence: Circuit
    total_gates: int
    levels: int


class RealizationTable(Record):
    """The entries of one device, by (control, target) pair; the `_index`
    slot is the placement search's (`placement._index`)."""

    __slots__ = ("graph", "entries", "_index")
    graph: CouplingGraph
    entries: dict[tuple[int, int], RealizationEntry]


def _local_cnot(graph: CouplingGraph, control: int, target: int, bits: int) -> list[int]:
    """CNOT between adjacent qubits: native edge, or H-conjugated reverse."""
    if (control, target) in graph.edges:
        return [cnot_code(control, target, bits)]
    if (target, control) in graph.edges:
        h_pair = [gate1_code(GateKind.H, control), gate1_code(GateKind.H, target)]
        return h_pair + [cnot_code(target, control, bits)] + h_pair
    raise RealizationError(f"qubits {control} and {target} are not adjacent")


def _swap(graph: CouplingGraph, a: int, b: int, bits: int) -> list[int]:
    """SWAP as CNOT(a, b), CNOT(b, a), CNOT(a, b), with `a` and `b` exchanged
    first unless (a, b) is an edge; the middle CNOT is `_local_cnot`'s, so it
    is H-conjugated on a one-way edge and raises on a non-adjacent pair."""
    if (a, b) not in graph.edges:
        a, b = b, a
    outer = cnot_code(a, b, bits)
    return [outer] + _local_cnot(graph, b, a, bits) + [outer]


def _ladder(graph: CouplingGraph, a: int, mid: int, b: int, order: int, bits: int) -> list[int]:
    """CNOT(a, b) across middle qubit `mid` as four local CNOTs."""
    first = _local_cnot(graph, a, mid, bits)
    second = _local_cnot(graph, mid, b, bits)
    if order == 0:
        return first + second + first + second
    return second + first + second + first


def _conjugated(
    graph: CouplingGraph, pairs: list[tuple[int, int]], middle: list[int], bits: int
) -> list[int]:
    """SWAP along each pair in turn, apply `middle`, then undo the SWAPs."""
    swaps = [_swap(graph, a, b, bits) for a, b in pairs]
    return [g for s in swaps for g in s] + middle + [g for s in reversed(swaps) for g in s]


def _candidates(graph: CouplingGraph, control: int, target: int) -> list[list[int]]:
    """Gate codes, with `field_bits(graph.num_physical)`-wide qubit fields,
    of every distinct candidate realization of CNOT(control, target). The
    walks from both ends give the same local CNOT on an adjacent pair, and
    the same two ladders at distance two; only the forward walk builds
    them."""
    bits = field_bits(graph.num_physical)
    out: list[list[int]] = []
    for path in shortest_paths(graph, control, target):
        k = len(path) - 1
        # Walk the control's content toward the target, then the target's toward
        # the control; `[::step]` keeps each CNOT running from control to target.
        for walk, step in ((path, 1), (path[::-1], -1)):
            pairs = list(zip(walk, walk[1:]))
            # Without a SWAP, a construction of the reverse walk is the
            # forward walk's, so the reverse walk builds none.
            fewest = 0 if step == 1 else 1
            if k - 1 >= fewest:
                near, far = (walk[k - 1], walk[k])[::step]
                out.append(_conjugated(graph, pairs[: k - 1], _local_cnot(graph, near, far, bits), bits))
            if k - 2 >= fewest:
                # Stop at distance two and ladder across the middle qubit.
                near, far = (walk[k - 2], walk[k])[::step]
                for order in (0, 1):
                    ladder = _ladder(graph, near, walk[k - 1], far, order, bits)
                    out.append(_conjugated(graph, pairs[: k - 2], ladder, bits))
    return out


# Each kind index's rank among the kind names.
_NAME_RANK = [sorted(kind.name for kind in KINDS).index(kind.name) for kind in KINDS]


def _gate_ranks(n: int, bits: int) -> dict[int, int]:
    """Each gate code on `n` qubits, `bits`-wide fields, to its (kind name
    rank, first qubit, second qubit or 0) packed in one int. Two gates of
    one kind have the same arity, so the tuple of a code list's ranks
    orders as the tuple of its gates' (kind.name, qubits) does."""
    ranks: dict[int, int] = {}
    for kind in KINDS:
        rank = _NAME_RANK[KIND_CODE[kind]] << 2 * bits
        if kind is GateKind.CNOT:
            for control, target in permutations(range(n), 2):
                ranks[cnot_code(control, target, bits)] = rank | control << bits | target
        else:
            for q in range(n):
                ranks[gate1_code(kind, q)] = rank | q << bits
    return ranks


def build_table(graph: CouplingGraph, verify: bool = True) -> RealizationTable:
    """Construct the full table for a connected coupling graph.

    With verify on (the default), every entry is proven equal to the plain
    CNOT up to global phase by its stabilizer tableau, on any device.
    """
    n = graph.num_physical
    bits = field_bits(n)
    rank = _gate_ranks(n, bits).__getitem__
    winners = {
        (control, target): cheapest(
            (
                (simplified, 0, tuple(map(rank, simplified)))
                for simplified in (
                    rewrite(codes, bits) for codes in _candidates(graph, control, target)
                )
            ),
            bits,
        )
        for control, target in permutations(range(n), 2)
    }
    # All winners decoded in one call, so that entries share their gates.
    gates = iter(decode_all([c for _, best in winners.values() for c in best], bits))
    entries: dict[tuple[int, int], RealizationEntry] = {}
    for (control, target), ((total, levels, _), best) in winners.items():
        sequence = Circuit(n, tuple(islice(gates, len(best))))
        for g in sequence.gates:
            if g.kind is GateKind.CNOT and not allows(graph, *g.qubits):
                raise RealizationError(f"entry ({control},{target}) uses illegal CNOT{g.qubits}")
        if verify and not equivalent(Circuit(n, (cnot(control, target),)), sequence):
            raise RealizationError(f"entry ({control},{target}) does not implement its CNOT")
        entries[(control, target)] = RealizationEntry(sequence, total, levels)
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
