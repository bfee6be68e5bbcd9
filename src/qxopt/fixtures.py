"""Bundled example data and circuit fixtures.

Ships measured three-qubit probability distributions and tomography
matrices from public cloud-processor experiments (raw, as published,
including their transcription defects), the matching ideal state, and
small circuit fixtures used by the benchmark harness and the test suite.

The files in `qxopt/data` are the one list of what ships: each name tuple
below holds the sorted stems of the files with its suffix (`.probs`,
`.qasm`, `.dm`), read when this module loads.
"""
from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING

from .circuit import Circuit
from .qasm import parse
from .states import ProbabilityDistribution, parse_density_matrix, parse_distribution

if TYPE_CHECKING:
    import numpy as np

_FILES = sorted(entry.name for entry in resources.files("qxopt.data").iterdir())
DISTRIBUTIONS, CIRCUITS, DENSITY_MATRICES = (
    tuple(name.removesuffix(suffix) for name in _FILES if name.endswith(suffix))
    for suffix in (".probs", ".qasm", ".dm")
)


def data_text(filename: str) -> str:
    return resources.files("qxopt.data").joinpath(filename).read_text(encoding="utf-8")


def _named_text(name: str, names: tuple[str, ...], suffix: str, what: str) -> str:
    """Text of the bundled file `name + suffix`; refuses a name not in `names`."""
    if name not in names:
        raise KeyError(f"unknown {what} {name!r}")
    return data_text(name + suffix)


def load_distribution(name: str) -> ProbabilityDistribution:
    return parse_distribution(_named_text(name, DISTRIBUTIONS, ".probs", "distribution"))


def load_raw_density_matrix(name: str) -> np.ndarray:
    """Raw complex matrix as published; sanitize before analysis."""
    return parse_density_matrix(_named_text(name, DENSITY_MATRICES, ".dm", "density matrix"))


def load_circuit(name: str) -> Circuit:
    return parse(_named_text(name, CIRCUITS, ".qasm", "circuit"))
