"""Exact equivalence of Clifford+T circuits as a sum over paths.

A circuit maps |x> to a normalized sum over Boolean path variables y of
w^P(x, y) |f(x, y)>, with w = e^(i pi / 4), a phase polynomial P over Z8 and
one Boolean polynomial f per output wire (Amy, arXiv:1805.06908). A monomial
is an int bit mask over variable indices, a Boolean polynomial is a set of
monomials added mod 2, and P maps each monomial to its coefficient mod 8.

To compare c1 with c2, the miter c1 . c2^dagger is grown from the middle
out (Burgholzer and Wille, arXiv:2004.08420): c1's gates are appended at
the output end, the inverses of c2's gates are pre-composed at the input
end, interleaved in proportion to the two lengths, so that equal circuits
keep the sum close to the identity throughout. After every gate three exact
rewrite rules remove path variables:

- Elim: a variable that occurs nowhere sums to a constant factor.
- HH: if y0 occurs only as 4 y0 (y1 + Q), with y1 a path variable that Q
  does not contain, summing y0 forces y1 = Q; both go and Q replaces y1.
- omega: if y0 occurs only as 2 y0 + 4 y0 Q (or 6 y0 + ...), summing it
  leaves the phase 1 - 2Q (or -1 + 2Q).

No rule applies to a variable that is still on an output wire. The sum is
the identity up to global phase exactly when no phase term is left and
every output is its wire's input variable. Only wires some gate touches get
variables, so time and memory follow the gate count, not the width.

`equivalent` (exported as `qxopt.equivalent`) is the one mapping check, run
by `placement.map_verified`, `qxopt verify` and `qxopt simplify`: the path
sum first, the dense simulator only for a pair it cannot prove. Its default
tolerance, `circuit.VERIFY_TOL`, is read only by that fallback, whose own
default it also is. The module imports only `circuit`, so a command that only
checks loads no search module.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .circuit import PHASE, VERIFY_TOL, Circuit, GateKind, check_placement, check_tolerance
from .circuit import inverse_of


def _variables(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _PathSum:
    def __init__(self) -> None:
        self.phase: dict[int, int] = {}  # monomial -> nonzero coefficient mod 8
        self.terms_with: dict[int, set[int]] = {}  # variable -> its phase monomials
        self.out: dict[int, set[int]] = {}  # wire -> output polynomial
        self.wires_with: dict[int, dict[int, int]] = {}  # variable -> {wire: monomials}
        self.inputs: dict[int, int] = {}  # wire -> its input variable
        self.paths: set[int] = set()
        self.queue: set[int] = set()  # variables whose occurrences changed
        self.count = 0

    def _fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def _wire(self, q: int) -> set[int]:
        if q not in self.out:
            x = self.inputs[q] = self._fresh()
            self.out[q] = {1 << x}
            self.wires_with[x] = {q: 1}
        return self.out[q]

    def _add(self, mono: int, coeff: int) -> None:
        """phase += coeff * mono; the constant monomial is a global phase."""
        if mono == 0:
            return
        old = self.phase.get(mono, 0)
        new = (old + coeff) & 7
        if new == old:
            return
        if new:
            self.phase[mono] = new
        else:
            del self.phase[mono]
        for v in _variables(mono):
            if not old:
                self.terms_with.setdefault(v, set()).add(mono)
            elif not new:
                self.terms_with[v].discard(mono)
            self.queue.add(v)

    def _add_lifted(self, coeff: int, poly: Iterable[int], factor: int = 0) -> None:
        """phase += coeff * factor * poly, the Boolean sum lifted to Z8 by
        a + b = a + b - 2ab over the integers: a product of more than three
        monomials has a coefficient divisible by 8, as has one of more than
        two when coeff is even, or of more than one when coeff is 4."""
        monos = list(poly)
        for i, a in enumerate(monos):
            self._add(a | factor, coeff)
            if coeff & 3:
                for j in range(i + 1, len(monos)):
                    ab = a | monos[j]
                    self._add(ab | factor, -2 * coeff)
                    if coeff & 1:
                        for c in monos[j + 1 :]:
                            self._add(ab | c | factor, 4 * coeff)

    def _toggle(self, q: int, mono: int) -> None:
        """Add `mono` to wire q's output polynomial, mod 2."""
        poly = self.out[q]
        step = -1 if mono in poly else 1
        poly.symmetric_difference_update((mono,))
        for v in _variables(mono):
            wires = self.wires_with.setdefault(v, {})
            left = wires.get(q, 0) + step
            if left:
                wires[q] = left
            else:
                del wires[q]
                if not wires:
                    self.queue.add(v)  # it left the outputs: maybe reducible now

    def _substitute(self, v: int, poly: Sequence[int]) -> None:
        """Replace variable v by the Boolean polynomial `poly` everywhere."""
        bit = 1 << v
        terms = [(m, self.phase[m]) for m in self.terms_with.get(v, ())]
        for m, c in terms:
            self._add(m, -c)
        for m, c in terms:
            self._add_lifted(c, poly, m ^ bit)
        for q in list(self.wires_with.get(v, ())):
            hits = [m for m in self.out[q] if m & bit]
            for m in hits:
                self._toggle(q, m)
            for m in hits:
                for p in poly:
                    self._toggle(q, (m ^ bit) | p)

    def append(self, kind: GateKind, qubits: tuple[int, ...]) -> None:
        """Apply a gate after the sum (at the output end)."""
        if kind is GateKind.CNOT:
            control, target = self._wire(qubits[0]), qubits[1]
            self._wire(target)
            for m in list(control):
                self._toggle(target, m)
            return
        (q,) = qubits
        poly = self._wire(q)
        if kind is GateKind.H:
            y = self._fresh()
            self.paths.add(y)
            self._add_lifted(4, poly, 1 << y)
            for m in list(poly):
                self._toggle(q, m)
            self._toggle(q, 1 << y)
        elif kind is GateKind.X or kind is GateKind.Y:
            if kind is GateKind.Y:  # Y = iXZ
                self._add_lifted(4, poly)
            self._toggle(q, 0)
        else:
            self._add_lifted(PHASE[kind], poly)

    def prepend(self, kind: GateKind, qubits: tuple[int, ...]) -> None:
        """Apply a gate before the sum (at the input end): substitute its
        action on the input variables."""
        for q in qubits:
            self._wire(q)
        x = self.inputs[qubits[-1]]
        if kind is GateKind.CNOT:
            self._substitute(x, (1 << x, 1 << self.inputs[qubits[0]]))
        elif kind is GateKind.H:
            # The old input variable becomes a path variable under a fresh input.
            self.paths.add(x)
            new = self.inputs[qubits[0]] = self._fresh()
            self._add((1 << x) | (1 << new), 4)
        elif kind is GateKind.X or kind is GateKind.Y:
            self._substitute(x, (1 << x, 0))
            if kind is GateKind.Y:  # Y |x> = i (-1)^x |x + 1>
                self._add(1 << x, 4)
        else:
            self._add(1 << x, PHASE[kind])

    def reduce(self) -> None:
        while self.queue:
            v = self.queue.pop()
            if v not in self.paths or self.wires_with.get(v):
                continue
            bit = 1 << v
            linear = 0
            rest: list[int] = []  # Q of a 4 v Q term set
            for m in self.terms_with.get(v, ()):
                c = self.phase[m]
                if c == 4:
                    rest.append(m ^ bit)
                elif m == bit:
                    linear = c
                else:
                    break
            else:
                if linear & 1:
                    continue
                if linear:  # omega
                    self._drop(v)
                    self._add_lifted(8 - linear, rest)
                elif not rest:  # Elim
                    self.paths.discard(v)
                else:
                    self._hh(v, rest)

    def _drop(self, v: int) -> None:
        for m in list(self.terms_with.get(v, ())):
            self._add(m, -self.phase[m])
        self.paths.discard(v)

    def _hh(self, v: int, rest: list[int]) -> None:
        for m in rest:
            y = m.bit_length() - 1
            if m & (m - 1) or y not in self.paths or any(o & m for o in rest if o != m):
                continue
            self._drop(v)
            self.paths.discard(y)
            self._substitute(y, [o for o in rest if o != m])
            return

    def is_identity(self) -> bool:
        return not self.phase and all(
            poly == {1 << self.inputs[q]} for q, poly in self.out.items()
        )


def proves_equal(c1: Circuit, c2: Circuit, perm: Sequence[int] | None = None) -> bool:
    """True only when c2's unitary is proven equal to c1's relabeled by
    `perm` (wire i of c1 is wire perm[i] of c2; default the identity), up to
    a global phase. False when that is not proven, including when the phase
    polynomial outgrows a budget of 64 terms plus one per gate; the caller
    decides what False means. A placement that does not fit raises
    `check_placement`'s ValueError."""
    check_placement(perm, c2.num_qubits, c1.num_qubits)
    s = _PathSum()
    n1, n2 = len(c1.gates), len(c2.gates)
    budget = 64 + n1 + n2
    i = j = 0
    while i < n1 or j < n2:
        # Take from whichever side is behind its share of the interleaving.
        if j == n2 or (i < n1 and i * n2 <= j * n1):
            g = c1.gates[i]
            i += 1
            s.append(g.kind, g.qubits if perm is None else tuple(perm[q] for q in g.qubits))
        else:
            g = c2.gates[j]
            j += 1
            s.prepend(inverse_of(g.kind), g.qubits)
        s.reduce()
        if len(s.phase) > budget:
            return False
    return s.is_identity()


def equivalent(
    c1: Circuit, c2: Circuit, perm: Sequence[int] | None = None, tol: float = VERIFY_TOL
) -> bool:
    """True when c2 equals c1 relabeled by `perm`, up to global phase:
    proven exactly by the path sum, or else decided by the dense simulator,
    with its width cap. Both check the miter c1 . c2^dagger; the dense one
    builds it as V = U2^dagger U1' and accepts when no entry of V - phi I
    exceeds `tol`, a bound that means the same at every width. A `tol` that
    is NaN, infinite or negative, and a placement that does not fit (by
    `check_placement`), are refused before either check runs. Only the
    dense fallback imports numpy."""
    check_tolerance(tol)
    if proves_equal(c1, c2, perm):
        return True
    from . import simulator

    return simulator.equivalent(c1, c2, perm, tol=tol)
