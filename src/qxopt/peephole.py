"""Template-based local rewriting in a single left-to-right pass.

Two gates match a rule when they act on identical qubit tuples and every
gate between them touches disjoint qubits, i.e. the pair can be commuted
together. Each qubit keeps an index of the pending gates on it, so a
gate's candidate partner is found in constant time instead of by scanning
back. Rules only cancel inverse pairs or merge phase gates, so each
firing strictly shrinks the circuit. The single pass already leaves no
rule that could fire (see rewrite). The test suite proves each rule
against the dense simulator, so nothing re-proves them at run time.

The engine, `rewrite`, runs on integer gate codes (see `circuit.encode`:
kind index in the low 4 bits, then one field per qubit). Two codes act on
identical qubits when `(p ^ c) >> 4 == 0`, and the rule for a kind pair is
read from a flat 256-entry list. The placement search and the realization
table call `rewrite` on codes directly and decode only their winners.
Gates come in by two doors, `simplify_gates` for a raw gate list and
`simplify` for a circuit, each with an optional `trace` list that receives
every firing. Both encode their input, rewrite it and decode the result, so
all callers share one engine.

Deliberately NOT exploited: algebraic commutations (e.g. Z-diagonal gates
through CNOT controls). This is the smallest engine that removes repeated
Hadamards and collapses swap-sequence overlap.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from typing import Sequence

from . import Record
from .circuit import KIND_CODE, Circuit, Gate, GateKind, decode, encode, field_bits


class RewriteRule(Record):
    __slots__ = ("name", "pattern", "replacement")
    name: str
    pattern: tuple[GateKind, GateKind]
    replacement: tuple[GateKind, ...]

    def __init__(
        self, name: str, pattern: tuple[GateKind, GateKind], replacement: tuple[GateKind, ...]
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "replacement", replacement)


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


def _rule_slots() -> list[tuple[str, int] | None]:
    """The rule for a pending gate of kind index p and an incoming one of
    kind index c at slot `p << 4 | c`, as (name, merged kind index or -1)."""
    slots: list[tuple[str, int] | None] = [None] * 256
    for rule in RULES:
        first, second = (KIND_CODE[kind] for kind in rule.pattern)
        merged = KIND_CODE[rule.replacement[0]] if rule.replacement else -1
        slots[first << 4 | second] = (rule.name, merged)
    return slots


_RULE_AT = _rule_slots()


class RuleFiring(Record):
    """One applied rewrite: rule name, position in the evolving gate list,
    and the qubits involved."""

    __slots__ = ("rule", "position", "qubits")
    rule: str
    position: int
    qubits: tuple[int, ...]

    def __init__(self, rule: str, position: int, qubits: tuple[int, ...]) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "qubits", qubits)


def rewrite(codes: list[int], bits: int, trace: list[RuleFiring] | None = None) -> list[int]:
    """Rewrite gate codes with `bits`-wide qubit fields to their fixpoint in
    one pass; with `trace`, append each firing to it.

    A gate's only possible partner is the last pending gate that touches
    any of its qubits. Each qubit keeps a stack of indices into `pending`
    for the gates on it, so that partner is found in constant time: the top
    of the qubit's stack for a 1-qubit gate, and for a CNOT the top shared
    by both stacks (different tops mean no match). The stacks live in a
    dict, so a circuit on a few wires with large indices costs no more than
    one on wires 0, 1, 2. A deleted gate becomes a -1 tombstone and leaves
    the stacks of its qubits, whose top it was. With `trace`, the sorted
    tombstone indices give a firing's position among the live gates by
    bisection.

    Invariant: no two gates in `pending` match. A firing deletes pending[i],
    and every gate after index i is disjoint from its qubits. A pair that
    pending[i] used to separate would need a member after i that overlaps
    those qubits, so the deletion creates no new match and a second pass
    could never fire.
    """
    shift = 4 + bits
    mask = (1 << bits) - 1
    rule_at = _RULE_AT
    pending: list[int] = []
    dead: list[int] | None = [] if trace is not None else None
    stacks: defaultdict[int, list[int]] = defaultdict(list)
    for code in codes:
        # A merged gate keeps its qubits, so its stacks stay the same.
        if code & 8:
            stack, other = stacks[code >> 4 & mask], stacks[code >> shift]
        else:
            stack, other = stacks[code >> 4], None
        while stack:
            i = stack[-1]
            if other is not None and (not other or other[-1] != i):
                break
            partner = pending[i]
            if (partner ^ code) >> 4:
                break
            rule = rule_at[(partner & 15) << 4 | code & 15]
            if rule is None:
                break
            name, merged = rule
            if dead is not None:
                position = i - bisect_left(dead, i)
                trace.append(RuleFiring(name, position, decode(code, bits).qubits))
                insort(dead, i)
            pending[i] = -1
            stack.pop()
            if other is not None:
                other.pop()
            if merged < 0:
                code = -1
                break
            # A merged gate keeps walking: it may combine again.
            code = code >> 4 << 4 | merged
        if code >= 0:
            stack.append(len(pending))
            if other is not None:
                other.append(len(pending))
            pending.append(code)
    return [c for c in pending if c >= 0]


def _simplify(gates: Sequence[Gate], bits: int, trace: list[RuleFiring] | None) -> list[Gate]:
    """`rewrite` on the codes of `gates`. A gate the rules left alone comes
    back as the input's own object; only merged gates are decoded anew."""
    codes = encode(gates, bits)
    out = rewrite(codes, bits, trace)
    # Every firing shortens the list, so an unchanged length means none fired.
    if len(out) == len(codes):
        return list(gates)
    simplified = list(map(dict(zip(codes, gates)).get, out))
    # A merged gate whose code the input lacks reads None; a Gate is truthy.
    if not all(simplified):
        simplified = [g or decode(c, bits) for g, c in zip(simplified, out)]
    return simplified


def simplify_gates(gates: list[Gate], trace: list[RuleFiring] | None = None) -> list[Gate]:
    """Rewrite a raw gate list to its fixpoint in one pass, as `simplify`
    does a circuit; the qubit fields are sized from its highest qubit."""
    width = 1 + max((q for g in gates for q in g.qubits), default=0)
    return _simplify(gates, field_bits(width), trace)


def simplify(circuit: Circuit, trace: list[RuleFiring] | None = None) -> Circuit:
    """Apply the rule set until no rule fires; unitary preserved up to
    global phase, gate count never increases. With `trace`, append each
    firing to it. A circuit on which no rule fires is its own result."""
    gates = _simplify(circuit.gates, field_bits(circuit.num_qubits), trace)
    if len(gates) == len(circuit.gates):
        return circuit
    return Circuit(circuit.num_qubits, tuple(gates))
