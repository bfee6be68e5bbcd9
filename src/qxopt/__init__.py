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

# Public name -> defining module. Names resolve on first use (PEP 562), so
# `import qxopt` loads no submodule, and numpy is imported only by a
# simulator name or when state-vector, density-matrix or fidelity code runs;
# the distribution and Mermin names never import it.
_EXPORTS = {
    "circuit": (
        "Circuit", "CostReport", "Gate", "GateKind", "cost_report", "gate_count",
        "inverse_of", "level_count", "relabel",
    ),
    "bench": ("equivalent",),
    "nonclassicality": (
        "MerminValue", "lhv_bound", "mermin3", "parity_expectation", "sanitize",
        "uhlmann_fidelity",
    ),
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


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
