"""Template-based local rewriting in a single left-to-right pass.

Two gates match a rule when they act on identical qubit tuples and every
gate between them touches disjoint qubits, i.e. the pair can be commuted
together. Each qubit keeps an index of the pending gates on it, so a
gate's candidate partner is found in constant time instead of by scanning
back. Rules only cancel inverse pairs or merge phase gates, so each
firing strictly shrinks the circuit. The single pass already leaves no
rule that could fire (see simplify_gates). The test suite proves each
rule against the dense simulator, so nothing re-proves them at run time.

Deliberately NOT exploited: algebraic commutations (e.g. Z-diagonal gates
through CNOT controls). This is the smallest engine that removes repeated
Hadamards and collapses swap-sequence overlap.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind


@dataclass(frozen=True)
class RewriteRule:
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

_RULE_BY_PAIR = {rule.pattern: rule for rule in RULES}


@dataclass(frozen=True)
class RuleFiring:
    """One applied rewrite: rule name, position in the evolving gate list,
    and the qubits involved."""

    rule: str
    position: int
    qubits: tuple[int, ...]


def simplify_gates(gates: list[Gate], trace: list[RuleFiring] | None = None) -> list[Gate]:
    """Rewrite a raw gate list to its fixpoint in one pass. Core of simplify().

    A gate's only possible partner is the last pending gate that touches
    any of its qubits. Each qubit keeps a stack of indices into `pending`
    for the gates on it, so that partner is found in constant time: the top
    of the qubit's stack for a 1-qubit gate, and for a CNOT the top shared
    by both stacks (different tops mean no match). A deleted gate becomes a
    `None` tombstone and leaves the stacks of its qubits, whose top it was.

    Invariant: no two gates in `pending` match. A firing deletes pending[i],
    and every gate after index i is disjoint from its qubits. A pair that
    pending[i] used to separate would need a member after i that overlaps
    those qubits, so the deletion creates no new match and a second pass
    could never fire.
    """
    pending: list[Gate | None] = []
    stacks: defaultdict[int, list[int]] = defaultdict(list)
    for gate in gates:
        qubits = gate.qubits
        while True:
            stack = stacks[qubits[0]]
            i = stack[-1] if stack else -1
            if i >= 0 and len(qubits) == 2:
                other = stacks[qubits[1]]
                if not other or other[-1] != i:
                    i = -1
            rule = None
            if i >= 0 and pending[i].qubits == qubits:
                rule = _RULE_BY_PAIR.get((pending[i].kind, gate.kind))
            if rule is None:
                for q in qubits:
                    stacks[q].append(len(pending))
                pending.append(gate)
                break
            if trace is not None:
                position = sum(g is not None for g in pending[:i])
                trace.append(RuleFiring(rule.name, position, qubits))
            pending[i] = None
            for q in qubits:
                stacks[q].pop()
            if not rule.replacement:
                break
            # Merged gate keeps walking: it may combine again.
            gate = Gate(rule.replacement[0], qubits)
    return [g for g in pending if g is not None]


def simplify(circuit: Circuit) -> Circuit:
    """Apply the rule set until no rule fires; unitary preserved up to
    global phase, gate count never increases."""
    return Circuit(circuit.num_qubits, tuple(simplify_gates(list(circuit.gates))))


def simplify_with_trace(circuit: Circuit) -> tuple[Circuit, list[RuleFiring]]:
    trace: list[RuleFiring] = []
    out = Circuit(circuit.num_qubits, tuple(simplify_gates(list(circuit.gates), trace)))
    return out, trace
