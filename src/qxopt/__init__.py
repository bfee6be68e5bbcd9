"""Clifford+T circuit optimizer for CNOT-restricted processor topologies.

Pipeline: parse a circuit, build (once per architecture) a table realizing
every CNOT under the device's directed coupling constraints, try every
logical-to-physical placement, peephole-simplify, keep the cheapest, and
verify the result against the original unitary. Analysis helpers compute
Mermin-polynomial values and state fidelities from measured distributions
and tomography matrices.
"""
from __future__ import annotations

import importlib
from operator import attrgetter

# Public name -> defining module. Names resolve on first use (PEP 562), so
# `import qxopt` loads no submodule, and numpy is imported only by a
# simulator name or when state-vector, density-matrix or fidelity code runs;
# the distribution and Mermin names never import it.
_EXPORTS = {
    "circuit": (
        "Circuit", "CostReport", "Gate", "GateKind", "cost_report", "gate_count",
        "inverse_of", "level_count", "relabel",
    ),
    "nonclassicality": (
        "MerminValue", "lhv_bound", "mermin3", "parity_expectation", "sanitize",
        "uhlmann_fidelity",
    ),
    "pathsum": ("equivalent",),
    "peephole": ("simplify",),
    "placement": ("MappingResult", "cost_of", "optimize"),
    "qasm": ("emit", "parse"),
    "realization": ("RealizationTable", "build_table", "lookup"),
    "simulator": ("measure_probs", "run_ideal", "run_noisy", "unitary_of"),
    "states": ("DensityMatrix", "NoiseSpec", "ProbabilityDistribution", "StateVector"),
    "topology": ("CouplingGraph", "allows", "builtin", "load"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


class RealizationError(Exception):
    """A realization-table entry is illegal on its device or fails its proof."""


class Record:
    """Base of the package's immutable value classes. Defining a subclass
    imports nothing and generates no code, so a command process pays next
    to nothing for its value classes at start-up.

    A subclass lists its fields in `__slots__`, in constructor order. A slot
    named with a leading underscore is not a field: it holds state that the
    subclass's `__init__` derives from the fields and sets with
    `object.__setattr__`, and repr, equality, hash, copy and pickle skip it.
    `Record.__init__` stores the fields, each given by position or by name,
    exactly once. A subclass that checks its values or has defaults defines
    an `__init__` that passes them to one `super().__init__(...)`. `Gate`
    and `Circuit` store their own fields instead: parsing, decoding and the
    table build make one per statement, code or entry, and the base's
    variadic call would make each a third to a half slower.

    Equality (same class only) and hash read the tuple of the fields named
    by the class keyword `compared`, by default all of them; repr is
    `Name(field=value, ...)` over every field. Assigning or deleting a
    field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named:
            # The fields after the positional values, each named once.
            rest = fields[len(values) :]
            if named.keys() != set(rest):
                raise TypeError(
                    f"{type(self).__qualname__}({', '.join(fields)}) got {len(values)} value(s) "
                    f"and the field(s) {', '.join(named)}"
                )
            values += tuple(named[name] for name in rest)
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__}({', '.join(fields)}) got {len(values)} value(s)")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, compared: tuple[str, ...] | None = None) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        names = compared or cls._fields
        get = attrgetter(*names)
        cls._key = staticmethod(get if len(names) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copy and pickle rebuild through `__init__`, which re-runs its
        # checks and derives the private slots again.
        return type(self), tuple(getattr(self, name) for name in self._fields)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
