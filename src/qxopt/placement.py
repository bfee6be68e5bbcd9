"""Exhaustive logical-to-physical placement search.

Every injection of the circuit's qubits into the device qubits is covered;
a placement is scored by relabeling, substituting each CNOT with its table
realization, and peephole simplifying. The winner is picked by
`circuit.cheapest`, the rule the realization table uses too: fewest gates,
then fewest levels, then the lexicographically smallest placement, with
levels counted only for placements whose gate count is at most the best so
far. Beyond the exhaustive limit the search refuses instead of degrading to
a heuristic. `map_verified` is the only place where a search is followed
by the mapping check, `pathsum.equivalent`.

The search runs on integer gate codes (see `circuit.encode`). `optimize`
and `cost_of` each encode the circuit once, with qubit fields sized for its
wires, and read every count off that list; mapped codes have fields sized
for the device. The table carries its entries, built once with it, as gate codes and
as the same codes with each multi-gate entry marked as a block
(`peephole.mark_blocks`). Every entry is a `rewrite` result, on which no
rule fires (`mark_blocks` checks), so `peephole.rewrite_pending` appends it
whole unless one of its first gates meets a pending gate. Each placement's
mapped circuit is built straight as codes, and the engine returns its
pending list with the count of tombstones in it. Scoring is count-first:
`circuit.cheapest` reads the gate count off that count, and filters the
list and counts its levels only when the count is at most the best so far.
Only the winner is decoded back to `Gate`s, each distinct code once
(`circuit.decode_all`).

Not every injection needs scoring. Under a placement, a wire with no CNOT
(a wire with no gates included) is isolated if no table entry chosen for
the circuit's CNOTs touches its physical qubit. Its gates then meet no
other gate, so the rewrite and the level count treat it alike on every
untouched qubit, and placements that differ only in where their isolated
wires sit have equal gates and levels. Of such a class the tie-break keeps
the smallest placement: the one that puts the isolated wires, in logical
order, on the smallest untouched qubits. `_placements` generates just those
representatives, so the minimum over them is the minimum over all
injections, with the same placement and mapped circuit. A circuit with a
CNOT on every wire has no such class.

Nor does a placement need scoring when a symmetry of the table maps it to
a smaller one. A symmetry (the table's `_symmetries`) is a permutation σ
of the device's qubits under which every entry, relabeled, is the entry of
its image pair. Then the mapped circuit of σ∘p, which puts wire w on
σ(p[w]), is σ applied to p's, gate for gate, and the rewrite engine, which
looks at qubits only to tell them apart, keeps the two relabelings of each
other, with equal gates and levels. So `_placements` yields no p with
σ∘p < p for a kept σ. Any subset of the symmetries keeps the search exact:
the winner, the smallest placement of the fewest gates and levels, has no
smaller placement of equal cost, so no σ skips it, just as no class drops
it. qx2 has σ = (0 4)(1 3), so a circuit with a CNOT on every wire scores
half its injections there; qx4 and the 8-qubit ladder have no symmetry
and pay nothing for the test.

Nor does every representative need a full rewrite. A placement's skeleton
is the H and CNOT gates of its mapped circuit: the logical H gates and
every CNOT's table entry, which is itself H and CNOT only. The skeleton's
gate count after `rewrite_pending` is at most the placement's final gate
count, for these reasons:

- Take each H on a qubit and each CNOT on a pair as a generator of a
  right-angled Coxeter group, in which two distinct generators commute
  exactly when they act on disjoint qubits.
- An H-H or CNOT-CNOT firing deletes a pair `s u s` in which every gate
  of `u` is disjoint from `s`, so every letter of `u` commutes with `s`:
  a relation of the group. Every other rule acts on X, Y, Z, S, SDG, T
  and TDG alone, and no rule creates an H or a CNOT. So the final
  circuit's skeleton is a word for the same group element as the mapped
  circuit's skeleton.
- Rewritten alone, the skeleton keeps no such pair (the engine's
  invariant). In a right-angled Coxeter group a word without one is
  reduced (Tits' solution of the word problem, 1969), and no word for the
  same element is shorter. So the rewritten skeleton's count is at most
  the final skeleton's, which is at most the final count.

`_candidates` skips each placement whose bound exceeds the least gate
count it has passed to `cheapest`, which is `cheapest`'s own best count: a
skipped placement has more gates than a candidate already seen, so it can
neither win nor tie, and the winner, its mapped circuit and its levels are
those of the unpruned search. The skeleton's length before the rewrite,
the logical H count plus the CNOTs' entry lengths, costs a few lookups per
placement; a placement whose length is at most the best count cannot be
pruned and is scored at once. Placements that put every H and CNOT wire on
the same qubits share one skeleton, so the bound is memoized by those
qubits: limit8's 6-qubit case has 3 wires with neither, and its 3,762
placements share 336 skeletons.

A skeleton rewrite costs nearly what a full one does, so the bound pays
only where placements share skeletons: where some wire carries neither H
nor CNOT and the device has at least two qubits more than the H and CNOT
wires. Every other circuit is scored in full, placement by placement.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import Record
from .circuit import Circuit, CostReport, check_placement, check_tolerance, cheapest, code_levels
from .circuit import KIND_CODE, GateKind, decode_all, encode, field_bits
from .circuit import levels_of  # noqa: F401  perfbench traces `qxopt.placement.levels_of`
from .pathsum import VERIFY_TOL, equivalent
from .peephole import rewrite, rewrite_pending
from .peephole import simplify_gates  # noqa: F401  perfbench traces `qxopt.placement.simplify_gates`
from .realization import RealizationTable
from .topology import CouplingGraph

DEFAULT_SEARCH_LIMIT = 8
# The skeleton's gate kinds, and their kind indices in gate codes.
_SKELETON_GATES = (GateKind.H, GateKind.CNOT)
_SKELETON_KINDS = tuple(KIND_CODE[kind] for kind in _SKELETON_GATES)


class MappingResult(Record):
    __slots__ = ("placement", "mapped", "initial_cost", "final_cost", "reduction_pct")
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


def _mapper(
    codes: list[int], bits: int, entries: list[list[list[int]]]
) -> Callable[[Sequence[int]], list[int]]:
    """Function from a placement to the gate codes `codes`, with `bits`-wide
    qubit fields, mapped under it: each CNOT replaced by its entry from
    `entries` (`[control][target]`, a table's `_codes` or `_marked`), each
    1-qubit gate moved to its physical qubit."""
    shift = 4 + bits
    mask = (1 << bits) - 1

    def mapped(placement: Sequence[int]) -> list[int]:
        out: list[int] = []
        for code in codes:
            if code & 8:
                out += entries[placement[code >> 4 & mask]][placement[code >> shift]]
            else:
                # `gate1_code` of the same kind on the physical qubit.
                out.append(code & 15 | placement[code >> 4] << 4)
        return out

    return mapped


def _touched(codes: list[int], bits: int) -> int:
    """Bit mask of the qubits that the gates coded as `codes` act on."""
    mask = (1 << bits) - 1
    touched = 0
    for code in codes:
        touched |= 1 << (code >> 4 & mask)
        if code & 8:
            touched |= 1 << (code >> 4 + bits)
    return touched


def _placements(circuit: Circuit, table: RealizationTable, bits: int) -> Iterable[tuple[int, ...]]:
    """The smallest placement of each class of equal-cost placements (see
    the module docstring), less each placement p that one of the table's
    symmetries σ maps to a smaller σ∘p. Every class has one member when
    every wire has a CNOT, or when the CNOT wires leave at most one qubit
    free; then, on a table without symmetries, this is every injection."""
    placements = _representatives(circuit, table._codes, bits)
    if not table._symmetries:
        return placements
    images = [sigma.__getitem__ for sigma in table._symmetries]
    return (p for p in placements if not any(tuple(map(image, p)) < p for image in images))


def _representatives(
    circuit: Circuit, entries: list[list[list[int]]], bits: int
) -> Iterable[tuple[int, ...]]:
    """The smallest placement of each class of equal-cost placements."""
    n = len(entries)
    k = circuit.num_qubits
    pairs = {g.qubits for g in circuit.gates if g.kind is GateKind.CNOT}
    linked = sorted({q for pair in pairs for q in pair})
    if len(linked) == k or n - len(linked) < 2:
        yield from permutations(range(n), k)
        return
    free = [w for w in range(k) if w not in linked]
    touches = [[_touched(codes, bits) for codes in row] for row in entries]
    placement = [0] * k
    for injection in permutations(range(n), len(linked)):
        occupied = 0
        for w, q in zip(linked, injection):
            placement[w] = q
            occupied |= 1 << q
        touched = occupied
        for a, b in pairs:
            touched |= touches[placement[a]][placement[b]]
        spare = [q for q in range(n) if (touched & ~occupied) >> q & 1]
        untouched = [q for q in range(n) if not touched >> q & 1]
        # Each CNOT-free wire takes a spare qubit or is isolated; the
        # isolated ones, in logical order, take the smallest untouched qubits.
        for m in range(max(0, len(free) - len(spare)), min(len(free), len(untouched)) + 1):
            for isolated in combinations(free, m):
                for w, q in zip(isolated, untouched):
                    placement[w] = q
                rest = [w for w in free if w not in isolated]
                for spots in permutations(spare, len(rest)):
                    for w, q in zip(rest, spots):
                        placement[w] = q
                    yield tuple(placement)


def _candidates(
    circuit: Circuit, codes: list[int], table: RealizationTable, bits: int
) -> Iterator[tuple[list[int], int, tuple[int, ...]]]:
    """`rewrite_pending`'s `(pending, dead)` and the placement, with each
    multi-gate entry passed as a block, for each placement from
    `_placements` that the skeleton bound does not prune (see the module
    docstring). `codes` are the circuit's gates, encoded at
    `field_bits(circuit.num_qubits)`."""
    entries, rows, blocks = table._codes, table._marked, table._blocks
    n = len(entries)
    logical_bits = field_bits(circuit.num_qubits)
    mapped = _mapper(codes, logical_bits, rows)
    placements = _placements(circuit, table, bits)
    skeleton_qubits = [g.qubits for g in circuit.gates if g.kind in _SKELETON_GATES]
    wires = sorted({q for qubits in skeleton_qubits for q in qubits})
    if not wires or len(wires) == circuit.num_qubits or n - len(wires) < 2:
        # No skeleton to bound, or no two placements that share one.
        for placement in placements:
            yield (*rewrite_pending(mapped(placement), bits, blocks), placement)
        return
    cnots = Counter(qubits for qubits in skeleton_qubits if len(qubits) == 2)
    h_count = len(skeleton_qubits) - sum(cnots.values())
    # Per logical CNOT pair, [control][target]: its count times the length
    # of each entry.
    lengths = [
        (a, b, [[m * len(entry) for entry in row] for row in entries])
        for (a, b), m in cnots.items()
    ]
    key = itemgetter(*wires)
    skeleton = _mapper([c for c in codes if c & 15 in _SKELETON_KINDS], logical_bits, rows)
    memo: dict = {}
    best = math.inf
    for placement in placements:
        length = h_count
        for a, b, pair_lengths in lengths:
            length += pair_lengths[placement[a]][placement[b]]
        if length > best:
            k = key(placement)
            bound = memo.get(k)
            if bound is None:
                pending, dead = rewrite_pending(skeleton(placement), bits, blocks)
                bound = memo[k] = len(pending) - dead
            if bound > best:
                continue
        pending, dead = rewrite_pending(mapped(placement), bits, blocks)
        if len(pending) - dead < best:
            best = len(pending) - dead
        yield pending, dead, placement


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
    """The best injection of logical onto physical qubits, scoring one
    placement per class of equal-cost placements, less those whose skeleton
    bound already exceeds the best count (see the module docstring).

    The initial cost is measured on the circuit as written, even if it is
    not executable on the device as-is.
    """
    num_physical = _check_widths(circuit, table)
    bits = field_bits(num_physical)
    logical_bits = field_bits(circuit.num_qubits)
    codes = encode(circuit.gates, logical_bits)
    (gates, levels, placement), best = cheapest(_candidates(circuit, codes, table, bits), bits)
    initial = CostReport(len(codes), code_levels(codes, logical_bits))
    final = CostReport(gates, levels)
    return MappingResult(
        placement=placement,
        mapped=Circuit(num_physical, decode_all(best, bits)),
        initial_cost=initial,
        final_cost=final,
        reduction_pct=percent_reduction(initial, final),
    )


def map_verified(
    circuit: Circuit, table: RealizationTable, tol: float = VERIFY_TOL
) -> tuple[MappingResult, bool]:
    """Best mapping of `circuit`, and whether it is equivalent to the input.
    A `tol` that is NaN, infinite or negative is refused before the search."""
    check_tolerance(tol)
    result = optimize(circuit, table)
    return result, equivalent(circuit, result.mapped, list(result.placement), tol=tol)


def cost_of(
    circuit: Circuit,
    placement: Sequence[int],
    table: RealizationTable,
) -> CostReport:
    """Cost of relabel -> substitute -> simplify under one fixed placement."""
    check_placement(placement, table.graph.num_physical, circuit.num_qubits)
    bits = field_bits(table.graph.num_physical)
    logical_bits = field_bits(circuit.num_qubits)
    mapped = _mapper(encode(circuit.gates, logical_bits), logical_bits, table._codes)
    codes = rewrite(mapped(placement), bits)
    return CostReport(len(codes), code_levels(codes, bits))
