"""Coupling graphs: which directed CNOTs a processor executes natively.

Built-ins cover the two 5-qubit cloud processors this project targets; any
other device is described by a small text format ("qubits N" then one
"control target" pair per line).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import Record


class CouplingGraph(Record, compared=("num_physical", "edges")):
    """Directed coupling map; `name` is a label that equality and hash skip,
    so two loads of one device share the `bfs` and `_adjacency` caches."""

    __slots__ = ("num_physical", "edges", "name")
    num_physical: int
    edges: frozenset[tuple[int, int]]
    name: str

    def __init__(self, num_physical: int, edges: Iterable[tuple[int, int]], name: str = "custom") -> None:
        if num_physical < 1:
            raise ValueError("num_physical must be positive")
        edges = frozenset(edges)
        for c, t in edges:
            if c == t:
                raise ValueError(f"self-loop edge ({c}, {t})")
            if not (0 <= c < num_physical and 0 <= t < num_physical):
                raise ValueError(f"edge ({c}, {t}) outside 0..{num_physical - 1}")
        super().__init__(num_physical, edges, name)
        # A connected graph on N qubits has at least N - 1 edges; checking
        # that first refuses a huge header without building its adjacency.
        if num_physical > len(edges) + 1 or len(bfs(self, 0)) != num_physical:
            raise ValueError("coupling graph is not connected")


_BUILTINS = {
    "qx2": (5, {(0, 1), (0, 2), (1, 2), (4, 2), (4, 3), (3, 2)}),
    "qx4": (5, {(3, 4), (3, 2), (2, 4), (2, 0), (2, 1), (1, 0)}),
}


def builtin(name: str) -> CouplingGraph:
    key = name.lower()
    if key not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown architecture {name!r} (built-ins: {known})")
    n, edges = _BUILTINS[key]
    return CouplingGraph(n, frozenset(edges), name=key)


def allows(graph: CouplingGraph, control: int, target: int) -> bool:
    """Whether CNOT(control, target) runs natively on this device."""
    for q in (control, target):
        if not 0 <= q < graph.num_physical:
            raise ValueError(f"qubit {q} outside 0..{graph.num_physical - 1}")
    return (control, target) in graph.edges


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {token!r}") from None


def load(text: str, name: str = "custom") -> CouplingGraph:
    """Parse the coupling-graph text format and validate it."""
    num = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if num is None:
            if len(parts) != 2 or parts[0] != "qubits":
                raise ValueError(f"line {lineno}: expected 'qubits N' header")
            num = _int(parts[1], lineno)
            if num < 1:
                raise ValueError(f"line {lineno}: num_physical must be positive")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'control target', got {raw!r}")
        c, t = _int(parts[0], lineno), _int(parts[1], lineno)
        if not (0 <= c < num and 0 <= t < num):
            raise ValueError(f"line {lineno}: edge ({c}, {t}) outside 0..{num - 1}")
        if c == t:
            raise ValueError(f"line {lineno}: self-loop edge ({c}, {t})")
        if (c, t) in edges:
            raise ValueError(f"line {lineno}: duplicate edge ({c}, {t})")
        edges.add((c, t))
    if num is None:
        raise ValueError("missing 'qubits N' header")
    return CouplingGraph(num, frozenset(edges), name=name)


@lru_cache(maxsize=None)
def _adjacency(graph: CouplingGraph) -> tuple[tuple[int, ...], ...]:
    """Sorted undirected neighbors of every qubit, from one pass over the edges."""
    adjacent: list[set[int]] = [set() for _ in range(graph.num_physical)]
    for c, t in graph.edges:
        adjacent[c].add(t)
        adjacent[t].add(c)
    return tuple(tuple(sorted(nbs)) for nbs in adjacent)


@lru_cache(maxsize=None)
def bfs(graph: CouplingGraph, source: int) -> dict[int, int]:
    """Undirected distance from `source` to every qubit it reaches, computed
    once per source: a device that is refused costs one search, not a table."""
    if not 0 <= source < graph.num_physical:
        raise ValueError(f"qubit {source} outside 0..{graph.num_physical - 1}")
    adjacent = _adjacency(graph)
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for q in frontier:
            for nb in adjacent[q]:
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


def shortest_paths(graph: CouplingGraph, a: int, b: int) -> list[list[int]]:
    """All undirected shortest paths from a to b, in lexicographic order: the
    depth-first walk tries each qubit's neighbors in ascending order."""
    adjacent = _adjacency(graph)
    to_b = bfs(graph, b)

    def extend(path: list[int]) -> list[list[int]]:
        last = path[-1]
        if last == b:
            return [path]
        out: list[list[int]] = []
        for nb in adjacent[last]:
            if to_b[nb] == to_b[last] - 1:
                out.extend(extend(path + [nb]))
        return out

    return extend([a])


def path_count(graph: CouplingGraph) -> int:
    """Undirected shortest paths summed over ordered qubit pairs, without
    listing them: O(n(V+E)), a qubit's count per source being the sum of its
    predecessors' (`bfs` lists qubits in breadth-first order)."""
    adjacent = _adjacency(graph)
    total = 0
    for source in range(graph.num_physical):
        dist = bfs(graph, source)
        paths = {source: 1}
        for q in dist:
            for nb in adjacent[q]:
                if dist[nb] == dist[q] + 1:
                    paths[nb] = paths.get(nb, 0) + paths[q]
        total += sum(paths.values()) - 1
    return total
