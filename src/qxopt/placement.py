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

The search runs on integer gate codes (see `circuit.encode`), every list
with qubit fields sized for the device. `optimize` and `cost_of` each
encode the circuit once and read every count off that list. The first
search of a table object derives what the search reads of it (`_index`):
each entry's codes, the same with each multi-gate entry marked as a block
(`peephole.mark_blocks`), the qubits each entry touches, and the table's
symmetries. No other module reads the search's `[control][target]` code
lists. Every entry is a `rewrite` result, on which no rule fires
(`mark_blocks` checks), so `peephole.rewrite_pending` appends it whole
unless one of its first gates meets a pending gate. Each placement's
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
a smaller one. A symmetry (`_symmetries`) is a permutation σ of the
device's qubits under which every entry, relabeled, is the entry of its
image pair. The relabeling is `_mapper`'s, the one function that moves
gate codes to other qubits, with σ as the placement and each CNOT as its
own code. Then the mapped circuit of σ∘p, which puts wire w on σ(p[w]), is
σ applied to p's, gate for gate, and the rewrite engine, which looks at
qubits only to tell them apart, keeps the two relabelings of each other,
with equal gates and levels. So `_placements` yields no p with
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

The gates that are not H or CNOT add a term that no placement changes.
Every rule keeps three things per qubit: the parity of its X count, the
parity of its Y count, and its phase sum mod 8, with Z=4, S=2, SDG=6, T=1
and TDG=7 (the weights of `circuit.PHASE`). A cancelled pair removes two
X, two Y, or phases summing to 8, and a merge keeps the sum (1+1=2, 7+7=6,
2+2=4 and 6+6=4 mod 8). Table entries hold only H and CNOT, so each wire's
1-qubit gates stay on its own qubit, and an invariant that is not 0 keeps
at least one gate of its kinds there. With c the count, over the wires, of
an odd X count, an odd Y count and a nonzero phase sum (`_residue`), the
final count is at least the rewritten skeleton's count plus c.

`_candidates` skips each placement whose bound, that sum, exceeds the
least gate count it has passed to `cheapest`, which is `cheapest`'s own
best count: a skipped placement has more gates than a candidate already
seen, so it can neither win nor tie, and the winner, its mapped circuit
and its levels are those of the unpruned search. No bound exceeds the
best count before the first score, so the first placement is scored
without one, and every later one pays for its bound.

Placements share the skeleton's prefix. The skeleton is split before each
gate that brings in a wire no earlier one touched, once the segment so far
holds a CNOT (a segment of H gates alone saves little rewriting, and would
add a wire to the prefix's key), and the prefix is every gate before the
last split. Where some wire carries neither an H nor a CNOT, the prefix is
the whole skeleton and the last segment is empty. The prefix's engine state
is memoized by the placement of the wires it has seen, and `rewrite_pending`
resumes from it, so the prefix is rewritten once per placement of those
wires; where it is the whole skeleton, placements that differ only on the
other wires share the count too, read off that state. A skeleton without a
split has an empty prefix, memoized once.

Otherwise, where the last segment leaves out some wire, placements share
its rewrite alone, v, by the placement of its own wires, and the count is
read off v and the prefix's state u. Pushed after u, v fires only in pairs
of one gate of v and one of u:
- No two gates of v fire together. Take the first such pair: v is
  reduced, so some gate h of v between the two on a shared qubit q must
  be gone by then. h cannot have fired with a gate of u, since the
  earlier of the pair still sat on q above every gate of u, nor with a
  gate of v, before the first such pair.
- So on each qubit q, the i-th gate of v on q fires only once the gates
  before it on q have, each with a gate of u (a pending one of v would be
  q's top), and then it meets the i-th gate of u on q counted from the
  top, which must have its code. With L_q the number of v's first gates
  on q that equal u's gates on q from the top down
  (`peephole.shared_depth`, which walks the engine's links), at most L_q
  firings touch q.
- Each firing removes two gates and touches a qubit, so |u| + |v| less
  twice the sum of the L_q is at most the count of u followed by v, and
  is that count when every L_q is 0.
- u followed by the raw segment and u followed by v are words for one
  group element, and the engine leaves each reduced, so both counts are
  equal, by the reduced-word argument above.
So the last segment is rewritten from u only when some L_q is not 0 and
that lower bound does not exceed the limit, the best count less the
residue; every pruning decision is that of the count itself. A segment
over every wire is not cached: its key would be the whole placement,
which never repeats.

On limit8, whatever the seed, the 5-qubit case rewrites its prefix 336
times, once per placement of its 3 wires, and its last segment alone 336
times for its 6,720 placements, and the 6-qubit case, with 3 wires that
carry neither gate, rewrites its whole skeleton 335 times for its 3,762,
once per placement of its H and CNOT wires but the first's. At seed 77
the 5-qubit case's bound counts 2,871 placements exactly off a tail that
meets nothing, prunes 3,605 by the lower bound, and rewrites the last
segment from the prefix's state for 243; the cases score 348 and 12.

Where the bound runs follows from the shapes alone. A bound costs at
least a segment's rewrite, so it pays only where placements share
skeleton work: where some wire carries neither H nor CNOT, or the device
has at least three qubits more than the circuit, and in either case at
least two more than the H and CNOT wires. Every other circuit is scored
in full, placement by placement; on the 5-qubit devices a 3-qubit circuit
with an H or a CNOT on every wire would spend more on its bounds than
they save.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import Record
from .circuit import Circuit, CostReport, check_placement, check_tolerance, cheapest, code_levels
from .circuit import PHASE, VERIFY_TOL, Gate, GateKind, cnot_code, decode_all, encode, field_bits
from .circuit import levels_of  # noqa: F401  perfbench traces `qxopt.placement.levels_of`
from .pathsum import equivalent
from .peephole import engine_state, mark_blocks, rewrite, rewrite_pending, shared_depth
from .peephole import simplify_gates  # noqa: F401  perfbench traces `qxopt.placement.simplify_gates`
from .realization import RealizationTable
from .topology import CouplingGraph

DEFAULT_SEARCH_LIMIT = 8
# The skeleton's gate kinds.
_SKELETON_GATES = (GateKind.H, GateKind.CNOT)


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


def _index(table: RealizationTable) -> tuple[list, list, list, tuple, list]:
    """What the search reads of `table`, each `[control][target]` list
    indexed by qubit pair: each entry's codes (empty where none is), the same
    marked as blocks, the block table, the symmetries, and the bit mask of
    the qubits each entry touches. Kept in the table's `_index` slot from its
    first search on; a copy or an unpickled table starts without it."""
    index = getattr(table, "_index", None)
    if index is None:
        n = table.graph.num_physical
        bits = field_bits(n)
        codes: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n)]
        touches = [[0] * n for _ in range(n)]
        for (control, target), entry in table.entries.items():
            codes[control][target] = encode(entry.sequence.gates, bits)
            touches[control][target] = _touched(entry.sequence.gates)
        marked, blocks = mark_blocks([run for row in codes for run in row], bits)
        rows = [marked[row * n : (row + 1) * n] for row in range(n)]
        index = (codes, rows, blocks, _symmetries(codes, bits), touches)
        object.__setattr__(table, "_index", index)
    return index


def _symmetries(codes: list[list[list[int]]], bits: int) -> tuple[tuple[int, ...], ...]:
    """Permutations σ ≠ id of the qubits of `codes` (`[control][target]`
    gate codes, `bits`-wide qubit fields) under which every entry, mapped
    under σ by `_mapper` with each CNOT left one CNOT, equals
    `codes[σ[c]][σ[t]]`: for each qubit i and image j > i, the first such σ,
    images tried in increasing order, that fixes qubits 0..i-1 and sends i
    to j. So at most n(n-1)/2 are kept.

    A backtracking maps qubits 0, 1, ... in turn and drops a partial map as
    soon as the entries between two mapped qubits and between their images
    differ in length; only a complete map has its entries compared."""
    n = len(codes)
    lengths = [[len(run) for run in row] for row in codes]
    single: list[list[list[int]]] = []  # each CNOT(c, t) as its one code, once a map is complete

    def first(sigma: list[int]) -> tuple[int, ...] | None:
        q = len(sigma) - 1
        image = sigma[q]
        for a in range(q):
            if lengths[a][q] != lengths[sigma[a]][image] or lengths[q][a] != lengths[image][sigma[a]]:
                return None
        if q == n - 1:
            if not single:
                single.extend([[cnot_code(c, t, bits)] for t in range(n)] for c in range(n))
            same = all(
                _mapper(codes[c][t], bits, single)(sigma) == codes[sigma[c]][sigma[t]]
                for c, t in permutations(range(n), 2)
            )
            return tuple(sigma) if same else None
        for nxt in range(n):
            if nxt not in sigma:
                found = first(sigma + [nxt])
                if found is not None:
                    return found
        return None

    kept = (first(list(range(i)) + [j]) for i in range(n) for j in range(i + 1, n))
    return tuple(sigma for sigma in kept if sigma is not None)


def _mapper(
    codes: list[int], bits: int, entries: list[list[list[int]]]
) -> Callable[[Sequence[int]], list[int]]:
    """Function from a placement to the gate codes `codes`, with `bits`-wide
    qubit fields, mapped under it: each CNOT replaced by its entry from
    `entries` (`[control][target]`, plain or marked as `_index` gives them),
    each 1-qubit gate moved to its physical qubit."""
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


def _touched(gates: Iterable[Gate]) -> int:
    """Bit mask of the qubits that `gates` act on."""
    return sum(1 << q for q in {q for g in gates for q in g.qubits})


def _placements(circuit: Circuit, table: RealizationTable) -> Iterable[tuple[int, ...]]:
    """The smallest placement of each class of equal-cost placements (see
    the module docstring), less each placement p that one of the table's
    symmetries σ maps to a smaller σ∘p. Every class has one member when
    every wire has a CNOT, or when the CNOT wires leave at most one qubit
    free; then, on a table without symmetries, this is every injection."""
    _, _, _, symmetries, touches = _index(table)
    placements = _representatives(circuit, touches)
    if not symmetries:
        return placements
    images = [sigma.__getitem__ for sigma in symmetries]
    return (p for p in placements if not any(tuple(map(image, p)) < p for image in images))


def _representatives(circuit: Circuit, touches: list[list[int]]) -> Iterable[tuple[int, ...]]:
    """The smallest placement of each class of equal-cost placements;
    `touches[c][t]` is the bit mask of the qubits that the entry of CNOT(c, t)
    acts on."""
    n = len(touches)
    k = circuit.num_qubits
    pairs = {g.qubits for g in circuit.gates if g.kind is GateKind.CNOT}
    linked = sorted({q for pair in pairs for q in pair})
    if len(linked) == k or n - len(linked) < 2:
        yield from permutations(range(n), k)
        return
    free = [w for w in range(k) if w not in linked]
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


def _residue(circuit: Circuit) -> int:
    """Gates that no rewrite removes from the circuit's wires, whatever the
    placement: per wire, one for an odd X count, one for an odd Y count and
    one for a phase sum (`circuit.PHASE`) that is not 0 mod 8 (see the
    module docstring). An X or a Y weighs 4, so its count is odd exactly
    when its sum is not 0 mod 8."""
    sums: Counter = Counter()
    for g in circuit.gates:
        if g.kind in PHASE:
            sums[g.qubits, None] += PHASE[g.kind]
        elif g.kind is GateKind.X or g.kind is GateKind.Y:
            sums[g.qubits, g.kind] += 4
    return sum(1 for total in sums.values() if total % 8)


def _skeleton_counter(
    circuit: Circuit, codes: list[int], table: RealizationTable, bits: int
) -> Callable[[Sequence[int], float], int]:
    """Function from a placement and a limit to a lower bound on the gate
    count that `rewrite_pending` leaves of the circuit's skeleton mapped
    under the placement, which is that count whenever it is at most the
    limit; `codes` are the circuit's gates, encoded at `bits`, and at least
    one is an H or a CNOT.

    The skeleton is split before each gate that brings in a wire no earlier
    one touched, once the segment so far holds a CNOT, and its prefix is
    every gate before the last split: none without a split, and all of them
    where some wire carries neither an H nor a CNOT. The prefix's engine
    state is memoized by the placement of the wires it has seen, so where
    the prefix is the whole skeleton, the count is read off that state.
    Where the last segment covers every wire, it is rewritten from that
    state for each placement. Otherwise it is rewritten alone once per
    placement of its own wires, and its gates are listed per qubit; the
    count is then read off that tail and the prefix's state, and the last
    segment is rewritten from that state only when some of the tail's gates
    may fire there and the bound they leave is at most the limit (see the
    module docstring)."""
    prefix: list[int] = []  # the skeleton's codes before its last split
    wires = 0  # how many wires the prefix has seen
    seen: list[int] = []
    part: list[int] = []
    part_wires: set[int] = set()
    for g, code in zip(circuit.gates, codes):
        if g.kind in _SKELETON_GATES:
            new = [q for q in g.qubits if q not in seen]
            if new and any(c & 8 for c in part):
                prefix, wires = prefix + part, len(seen)
                part, part_wires = [], set()
            part.append(code)
            part_wires.update(g.qubits)
            seen += new
    if len(seen) < circuit.num_qubits:
        # Placements that differ only on the other wires share the count.
        prefix, wires, part = prefix + part, len(seen), []
    _, rows, blocks, _, _ = _index(table)
    head, last = _mapper(prefix, bits, rows), _mapper(part, bits, rows)
    # Without a split the prefix is empty, and so is its key.
    prefix_key = itemgetter(*seen[:wires]) if wires else lambda placement: ()
    states: dict = {}

    def prefix_state(placement: Sequence[int]) -> list:
        key = prefix_key(placement)
        state = states.get(key)
        if state is None:
            state = states[key] = engine_state(bits)
            rewrite_pending(head(placement), bits, blocks, None, state)
        return state

    def resumed(placement: Sequence[int], state: list) -> int:
        pending, dead = rewrite_pending(last(placement), bits, blocks, None, engine_state(bits, state))
        return len(pending) - dead

    if not part:

        def whole(placement: Sequence[int], limit: float = math.inf) -> int:
            state = prefix_state(placement)
            return len(state[0]) - state[4]

        return whole
    if len(part_wires) == circuit.num_qubits:
        # Its key would be the whole placement, which `_placements` never
        # yields twice.
        return lambda placement, limit=math.inf: resumed(placement, prefix_state(placement))
    tail_key = itemgetter(*sorted(part_wires))
    tails: dict = {}
    mask = (1 << bits) - 1

    def tail(placement: Sequence[int]) -> tuple[int, list[tuple[int, list[int]]]]:
        """The last segment's rewritten count alone, and its gate codes per
        physical qubit."""
        key = tail_key(placement)
        found = tails.get(key)
        if found is None:
            runs: dict[int, list[int]] = {}
            live = [c for c in rewrite_pending(last(placement), bits, blocks)[0] if c >= 0]
            for code in live:
                runs.setdefault(code >> 4 & mask, []).append(code)
                if code & 8:
                    runs.setdefault(code >> 4 + bits, []).append(code)
            found = tails[key] = (len(live), list(runs.items()))
        return found

    def bounded(placement: Sequence[int], limit: float = math.inf) -> int:
        state = prefix_state(placement)
        size, runs = tail(placement)
        shared = shared_depth(state, runs, bits)
        bound = len(state[0]) - state[4] + size - 2 * shared
        if not shared or bound > limit:
            return bound
        return resumed(placement, state)

    return bounded


def _candidates(
    circuit: Circuit, codes: list[int], table: RealizationTable, bits: int
) -> Iterator[tuple[list[int], int, tuple[int, ...]]]:
    """`rewrite_pending`'s `(pending, dead)` and the placement, with each
    multi-gate entry passed as a block, for each placement from
    `_placements` that the skeleton bound does not prune (see the module
    docstring). `codes` are the circuit's gates, encoded at `bits`."""
    _, rows, blocks, _, _ = _index(table)
    n, k = len(rows), circuit.num_qubits
    mapped = _mapper(codes, bits, rows)
    placements = _placements(circuit, table)
    wires = {q for g in circuit.gates if g.kind in _SKELETON_GATES for q in g.qubits}
    if not wires or n - len(wires) < 2 or (len(wires) == k and n - k < 3):
        # No skeleton to bound, or too few placements that share its work.
        for placement in placements:
            yield (*rewrite_pending(mapped(placement), bits, blocks), placement)
        return
    residue = _residue(circuit)
    skeleton = _skeleton_counter(circuit, codes, table, bits)
    best = math.inf
    for placement in placements:
        # No bound until a placement has been scored: none exceeds infinity.
        if best < math.inf and skeleton(placement, best - residue) + residue > best:
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


def check_widths(circuit: Circuit, graph: CouplingGraph) -> int:
    """The device's width, once the circuit fits on it and it is within the
    search limit: checked before its realization table is built."""
    num_physical = graph.num_physical
    if circuit.num_qubits > num_physical:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, device only {num_physical}")
    check_search_limit(graph)
    return num_physical


def optimize(circuit: Circuit, table: RealizationTable) -> MappingResult:
    """The best injection of logical onto physical qubits, scoring one
    placement per class of equal-cost placements, less those whose skeleton
    bound already exceeds the best count (see the module docstring).

    The initial cost is measured on the circuit as written, even if it is
    not executable on the device as-is.
    """
    num_physical = check_widths(circuit, table.graph)
    bits = field_bits(num_physical)
    codes = encode(circuit.gates, bits)
    (gates, levels, placement), best = cheapest(_candidates(circuit, codes, table, bits), bits)
    initial = CostReport(len(codes), code_levels(codes, bits))
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
    mapped = _mapper(encode(circuit.gates, bits), bits, _index(table)[0])
    codes = rewrite(mapped(placement), bits)
    return CostReport(len(codes), code_levels(codes, bits))
