"""Template-based local rewriting in a single left-to-right pass.

Two gates match a rule when they act on identical qubit tuples and every
gate between them touches disjoint qubits, i.e. the pair can be commuted
together. Rules only cancel inverse pairs or merge phase gates, so each
firing strictly shrinks the circuit. The single pass already leaves no
rule that could fire (see rewrite_pending). The test suite proves each rule
against the dense simulator, so nothing re-proves them at run time.

The engine, `rewrite_pending`, runs on integer gate codes (see
`circuit.encode`: kind index in the low 4 bits, then one field per qubit).
Its state is flat: the pending gates in order, `top[q]`, the newest
pending gate on each qubit, and per pending gate a link back to the
previous pending gate on its first qubit and one on its second. A gate's
one possible partner is the top of its qubits, found in constant time, and
a deleted gate hands each of its qubits back along its links. A link is
stored as a distance, not an index, so a run of gates can be appended
with its links precomputed. The rule for a kind pair is read from a flat
256-entry table.

That is what a block is for (`mark_blocks`): a run of codes on which no
rule fires, such as a realization-table entry, which is itself a `rewrite`
result. Pushed gate by gate after any pending gates, a block gate that is
not the first gate on each of its qubits meets the block's own previous
gate on a qubit: a 1-qubit gate meets the same partner as in the block
alone, and so does a CNOT that is first on neither qubit; a CNOT that is
first on one qubit only meets two different tops. None of those pairs
fires in the block alone, so none fires here. Only the heads, the gates
first on all their qubits, can meet a pending gate. So when no head fires,
appending the whole block at once, with one link patched and one `top` set
per qubit, is exactly what the gate-by-gate pass would do; when one fires,
the block is read gate by gate.

The placement search passes each multi-gate table entry as a block and
keeps the pending list with its tombstones, so that `circuit.cheapest`
filters only the candidates it has to. The realization table calls
`rewrite`, the filtering wrapper, and decodes only its winners. `Gate`s
come in by one door, `simplify`, which encodes a circuit once; the wrapper
`simplify_gates`, for a raw gate list, has no caller here but is bound by
the benchmark's span tracer (`perfbench/spans.py`).

Deliberately NOT exploited: algebraic commutations (e.g. Z-diagonal gates
through CNOT controls). This is the smallest engine that removes repeated
Hadamards and collapses swap-sequence overlap.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from itertools import islice
from typing import Iterable, Sequence

from . import Record
from .circuit import BLOCK_CODE, CNOT_CODE, KIND_CODE, Circuit, Gate, GateKind, decode, encode
from .circuit import field_bits


class RewriteRule(Record):
    __slots__ = ("name", "pattern", "replacement")
    name: str
    pattern: tuple[GateKind, GateKind]
    replacement: tuple[GateKind, ...]


RULES: tuple[RewriteRule, ...] = (
    RewriteRule("cancel-hh", (GateKind.H, GateKind.H), ()),
    RewriteRule("cancel-xx", (GateKind.X, GateKind.X), ()),
    RewriteRule("cancel-yy", (GateKind.Y, GateKind.Y), ()),
    RewriteRule("cancel-zz", (GateKind.Z, GateKind.Z), ()),
    RewriteRule("cancel-s-sdg", (GateKind.S, GateKind.SDG), ()),
    RewriteRule("cancel-sdg-s", (GateKind.SDG, GateKind.S), ()),
    RewriteRule("cancel-t-tdg", (GateKind.T, GateKind.TDG), ()),
    RewriteRule("cancel-tdg-t", (GateKind.TDG, GateKind.T), ()),
    RewriteRule("cancel-cx-cx", (GateKind.CNOT, GateKind.CNOT), ()),
    RewriteRule("merge-tt-s", (GateKind.T, GateKind.T), (GateKind.S,)),
    RewriteRule("merge-tdgtdg-sdg", (GateKind.TDG, GateKind.TDG), (GateKind.SDG,)),
    RewriteRule("merge-ss-z", (GateKind.S, GateKind.S), (GateKind.Z,)),
    RewriteRule("merge-sdgsdg-z", (GateKind.SDG, GateKind.SDG), (GateKind.Z,)),
)


# What a pending gate of kind index p and an incoming one of kind index c
# turn into, at slot `p << 4 | c`: the merged kind index, _CANCEL or
# _NO_RULE.
_CANCEL = -1
_NO_RULE = -2


def _rule_table() -> tuple[list[int], list[str | None]]:
    """Each slot's outcome, and its rule's name for traces."""
    outcomes = [_NO_RULE] * 256
    names: list[str | None] = [None] * 256
    for rule in RULES:
        first, second = (KIND_CODE[kind] for kind in rule.pattern)
        slot = first << 4 | second
        outcomes[slot] = KIND_CODE[rule.replacement[0]] if rule.replacement else _CANCEL
        names[slot] = rule.name
    return outcomes, names


_OUTCOME, _RULE_NAME = _rule_table()
# Qubit fields up to this wide keep `top` in a list, wider ones in a dict,
# so a circuit on a few wires with large indices costs no more than one on
# wires 0, 1, 2.
_LIST_BITS = 8


class RuleFiring(Record):
    """One applied rewrite: rule name, position in the evolving gate list,
    and the qubits involved."""

    __slots__ = ("rule", "position", "qubits")
    rule: str
    position: int
    qubits: tuple[int, ...]


def rewrite_pending(
    codes: Iterable[int],
    bits: int,
    blocks: Sequence[tuple] = (),
    trace: list[RuleFiring] | None = None,
) -> tuple[list[int], int]:
    """Rewrite gate codes with `bits`-wide qubit fields to their fixpoint in
    one pass; with `trace`, append each firing to it. `codes` may hold the
    block markers of `mark_blocks`, with `blocks` the table it returned.

    Returns the pending list and the number of -1 tombstones in it: the
    result is its other entries, in order. Index 0 is a sentinel tombstone,
    the `top` of every qubit that no pending gate is on.

    A gate's only possible partner is the newest pending gate on its qubits,
    `top[q]`. A 1-qubit gate reads the rule for the top of its qubit with
    no test of that gate's qubits: a CNOT there has kind 8, and no rule
    pairs kind 8, or the sentinel's kind field 15, with a 1-qubit kind. A
    CNOT cancels exactly when both its qubits' tops are the same pending
    gate with its own code. A deleted gate is the top of each of its
    qubits, so nothing links to it, and each top steps back along the
    deleted gate's link on that qubit. With `trace`, the sorted tombstone
    indices give a firing's position among the live gates by bisection.

    A marker is followed by its block's codes. When none of the block's
    heads fires, the block is appended whole and its codes are skipped;
    otherwise they are read gate by gate (see the module docstring).

    Invariant: no two gates in `pending` match. A firing deletes pending[i],
    and every gate after index i is disjoint from its qubits. A pair that
    pending[i] used to separate would need a member after i that overlaps
    those qubits, so the deletion creates no new match and a second pass
    could never fire.
    """
    shift = 4 + bits
    mask = (1 << bits) - 1
    outcomes = _OUTCOME
    pending = [-1]
    link1 = [0]
    link2 = [0]
    top: list[int] | defaultdict[int, int] = (
        [0] * (mask + 1) if bits <= _LIST_BITS else defaultdict(int)
    )
    dead = 1
    tombs = [0] if trace is not None else None
    it = iter(codes)
    for code in it:
        if code & 8:
            if code & 1:
                run, run1, run2, heads, cnot_heads, spans1, spans2 = blocks[code >> 4]
                for q, kind in heads:
                    if outcomes[(pending[top[q]] & 15) << 4 | kind] != _NO_RULE:
                        break
                else:
                    for c, t, head in cnot_heads:
                        i = top[c]
                        if i == top[t] and pending[i] == head:
                            break
                    else:
                        n = len(pending)
                        pending += run
                        link1 += run1
                        link2 += run2
                        for q, first, last in spans1:
                            link1[n + first] = n + first - top[q]
                            top[q] = n + last
                        for q, first, last in spans2:
                            link2[n + first] = n + first - top[q]
                            top[q] = n + last
                        next(islice(it, len(run), len(run)), None)
                continue
            c = code >> 4 & mask
            t = code >> shift
            i = top[c]
            if i == top[t] and pending[i] == code:
                if tombs is not None:
                    _record(trace, tombs, i, _RULE_NAME[CNOT_CODE << 4 | CNOT_CODE], (c, t))
                pending[i] = -1
                dead += 1
                top[c] = i - link1[i]
                top[t] = i - link2[i]
            else:
                n = len(pending)
                link1.append(n - i)
                link2.append(n - top[t])
                top[c] = top[t] = n
                pending.append(code)
            continue
        q = code >> 4
        i = top[q]
        merged = outcomes[(pending[i] & 15) << 4 | code & 15]
        while merged != _NO_RULE:
            if tombs is not None:
                _record(trace, tombs, i, _RULE_NAME[(pending[i] & 15) << 4 | code & 15], (q,))
            pending[i] = -1
            dead += 1
            i = top[q] = i - link1[i]
            if merged == _CANCEL:
                break
            # A merged gate keeps walking: it may combine again.
            code = code >> 4 << 4 | merged
            merged = outcomes[(pending[i] & 15) << 4 | merged]
        else:
            n = len(pending)
            link1.append(n - i)
            link2.append(0)
            top[q] = n
            pending.append(code)
    return pending, dead


def _record(
    trace: list[RuleFiring], tombs: list[int], i: int, rule: str | None, qubits: tuple[int, ...]
) -> None:
    """Append the firing that deletes pending gate `i`, at its position
    among the live gates, and add `i` to the sorted tombstone indices."""
    trace.append(RuleFiring(rule, i - bisect_left(tombs, i), qubits))
    insort(tombs, i)


def rewrite(codes: list[int], bits: int, trace: list[RuleFiring] | None = None) -> list[int]:
    """The gate codes `rewrite_pending` leaves, without its tombstones."""
    pending, _ = rewrite_pending(codes, bits, (), trace)
    return [c for c in pending if c >= 0]


def _block(run: list[int], bits: int) -> tuple | None:
    """What `rewrite_pending` needs to append `run` whole, or None if a rule
    fires in `run` alone: its codes, their links on the first and second
    qubit as distances within `run` (0 where a gate is the first on that
    qubit; `rewrite_pending` patches those), its 1-qubit heads as (qubit,
    kind index), its CNOT heads as (control, target, code), and per qubit
    (qubit, offset of its first gate, offset of its last gate), split by
    whether the first gate links that qubit as its first or its second.

    While no rule has fired, the top of each qubit is its last gate so far,
    so a rule fires in `run` exactly when some gate matches that."""
    shift = 4 + bits
    mask = (1 << bits) - 1
    last: dict[int, int] = {}
    link1: list[int] = []
    link2: list[int] = []
    heads: list[tuple[int, int]] = []
    cnot_heads: list[tuple[int, int, int]] = []
    first1: dict[int, int] = {}
    first2: dict[int, int] = {}
    for k, code in enumerate(run):
        if code & 8:
            q, t = code >> 4 & mask, code >> shift
            if t in last:
                if last[t] == last.get(q) and run[last[t]] == code:
                    return None
                link2.append(k - last[t])
            else:
                link2.append(0)
                first2[t] = k
                if q not in last:
                    cnot_heads.append((q, t, code))
            last[t] = k
        else:
            q = code >> 4
            link2.append(0)
            if q not in last:
                heads.append((q, code & 15))
            elif _OUTCOME[(run[last[q]] & 15) << 4 | code & 15] != _NO_RULE:
                return None
        if q in last:
            link1.append(k - last[q])
        else:
            link1.append(0)
            first1[q] = k
        last[q] = k
    spans1 = tuple((q, k, last[q]) for q, k in first1.items())
    spans2 = tuple((q, k, last[q]) for q, k in first2.items())
    return (run, link1, link2, tuple(heads), tuple(cnot_heads), spans1, spans2)


def mark_blocks(runs: list[list[int]], bits: int) -> tuple[list[list[int]], list[tuple]]:
    """Each of `runs` that has two or more gates and on which no rule fires,
    led by a marker code (kind index `BLOCK_CODE`, the block's index above
    it), and the block table for `rewrite_pending`; other runs as they are."""
    marked: list[list[int]] = []
    blocks: list[tuple] = []
    for run in runs:
        block = _block(run, bits) if len(run) >= 2 else None
        if block is None:
            marked.append(run)
        else:
            marked.append([BLOCK_CODE | len(blocks) << 4] + run)
            blocks.append(block)
    return marked, blocks


def simplify_gates(gates: list[Gate], trace: list[RuleFiring] | None = None) -> list[Gate]:
    """`simplify` on a raw gate list, as a new list; the qubit fields are
    sized from its highest qubit."""
    width = 1 + max((q for g in gates for q in g.qubits), default=0)
    return list(simplify(Circuit(width, gates), trace).gates)


def simplify(circuit: Circuit, trace: list[RuleFiring] | None = None) -> Circuit:
    """Apply the rule set until no rule fires; unitary preserved up to
    global phase, gate count never increases. With `trace`, append each
    firing to it. A circuit on which no rule fires is its own result; in
    any other, only merged gates are new objects."""
    bits = field_bits(circuit.num_qubits)
    codes = encode(circuit.gates, bits)
    out = rewrite(codes, bits, trace)
    # Every firing shortens the list, so an unchanged length means none fired.
    if len(out) == len(codes):
        return circuit
    gates = list(map(dict(zip(codes, circuit.gates)).get, out))
    # A merged gate whose code the input lacks reads None; a Gate is truthy.
    if not all(gates):
        gates = [g or decode(c, bits) for g, c in zip(gates, out)]
    return Circuit(circuit.num_qubits, gates)
