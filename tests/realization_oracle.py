"""Reference table construction: the candidate generator and the selection
loop as they were before the shared swap-conjugation helper and the gate
codes.

The templates build `Gate`s, each of the four walks is written out by
hand, adjacent pairs are special-cased, candidates are simplified by the
backward-scan pass of `search_oracle`, and the best candidate is picked by
a loop that skips repeated cost keys and counts levels for every candidate.
`test_realization.py` requires `build_table` to return the same entries,
in the same order, as `build_entries` here, and its per-build rank lookup
to give the same tie-break keys as `tiebreak`, the per-candidate key
`build_table` computed before.
"""
from __future__ import annotations

from qxopt.circuit import KINDS, Gate, GateKind, cnot, gate1, levels_of
from qxopt.realization import RealizationError
from qxopt.topology import CouplingGraph, allows, shortest_paths
from search_oracle import simplify_gates


# Each kind index's rank among the kind names: `tiebreak` orders code
# lists as the tuples of their gates' (kind name, qubits) order.
_NAME_RANK = [sorted(kind.name for kind in KINDS).index(kind.name) for kind in KINDS]


def tiebreak(codes: list[int], bits: int) -> tuple[int, ...]:
    """Per gate, (kind name rank, first qubit, second qubit or 0) packed in
    one int; two gates of one kind have the same arity, so this orders as
    (kind.name, qubits) does."""
    shift = 4 + bits
    mask = (1 << bits) - 1
    return tuple(
        _NAME_RANK[c & 15] << 2 * bits | (c >> 4 & mask) << bits | c >> shift for c in codes
    )


def _local_cnot(graph: CouplingGraph, control: int, target: int) -> list[Gate]:
    if (control, target) in graph.edges:
        return [cnot(control, target)]
    if (target, control) in graph.edges:
        h_pair = [gate1(GateKind.H, control), gate1(GateKind.H, target)]
        return h_pair + [cnot(target, control)] + h_pair
    raise RealizationError(f"qubits {control} and {target} are not adjacent")


def _swap(graph: CouplingGraph, a: int, b: int) -> list[Gate]:
    if (a, b) not in graph.edges:
        a, b = b, a
    return [cnot(a, b)] + _local_cnot(graph, b, a) + [cnot(a, b)]


def _ladder(graph: CouplingGraph, a: int, mid: int, b: int, order: int) -> list[Gate]:
    first = _local_cnot(graph, a, mid)
    second = _local_cnot(graph, mid, b)
    if order == 0:
        return first + second + first + second
    return second + first + second + first


def _cost_key(gates: list[Gate]) -> tuple:
    """(gates, levels, gate sequence), levels counted for every candidate."""
    return (len(gates), levels_of(gates), tuple((g.kind.name, g.qubits) for g in gates))


def candidates(graph: CouplingGraph, control: int, target: int) -> list[list[Gate]]:
    out: list[list[Gate]] = []
    for path in shortest_paths(graph, control, target):
        k = len(path) - 1
        # Control content walks to the qubit adjacent to the target.
        walk_in = [g for i in range(k - 1) for g in _swap(graph, path[i], path[i + 1])]
        walk_out = [
            g
            for i in reversed(range(k - 1))
            for g in _swap(graph, path[i], path[i + 1])
        ]
        out.append(walk_in + _local_cnot(graph, path[k - 1], target) + walk_out)
        # Target content walks to the qubit adjacent to the control.
        walk_in = [g for i in range(k, 1, -1) for g in _swap(graph, path[i], path[i - 1])]
        walk_out = [
            g for i in range(2, k + 1) for g in _swap(graph, path[i], path[i - 1])
        ]
        out.append(walk_in + _local_cnot(graph, control, path[1]) + walk_out)
        # Walk the control until distance two remains, ladder across.
        walk_in = [g for i in range(k - 2) for g in _swap(graph, path[i], path[i + 1])]
        walk_out = [
            g
            for i in reversed(range(k - 2))
            for g in _swap(graph, path[i], path[i + 1])
        ]
        for order in (0, 1):
            out.append(
                walk_in + _ladder(graph, path[k - 2], path[k - 1], target, order) + walk_out
            )
        # Walk the target until distance two remains, ladder across.
        walk_in = [g for i in range(k, 2, -1) for g in _swap(graph, path[i], path[i - 1])]
        walk_out = [g for i in range(3, k + 1) for g in _swap(graph, path[i], path[i - 1])]
        for order in (0, 1):
            out.append(
                walk_in + _ladder(graph, control, path[1], path[2], order) + walk_out
            )
    return out


def build_entries(graph: CouplingGraph) -> list[tuple[tuple[int, int], tuple[Gate, ...], int, int]]:
    """Every entry as (pair, gates, total_gates, levels), in table order."""
    n = graph.num_physical
    out = []
    for control in range(n):
        for target in range(n):
            if control == target:
                continue
            if allows(graph, control, target):
                best = [cnot(control, target)]
            elif allows(graph, target, control):
                best = _local_cnot(graph, control, target)
            else:
                seen: set[tuple] = set()
                best = None
                for cand in candidates(graph, control, target):
                    reduced = simplify_gates(cand)
                    key = _cost_key(reduced)
                    if key in seen:
                        continue
                    seen.add(key)
                    if best is None or key < _cost_key(best):
                        best = reduced
                assert best is not None
            out.append(((control, target), tuple(best), len(best), levels_of(best)))
    return out
