"""Bundled example data and circuit fixtures.

Ships measured three-qubit probability distributions and tomography
matrices from public cloud-processor experiments (raw, as published,
including their transcription defects), the matching ideal state, and
small circuit fixtures used by the benchmark harness and the test suite.
"""
from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING

from .circuit import Circuit
from .qasm import parse
from .states import ProbabilityDistribution, parse_density_matrix, parse_distribution

if TYPE_CHECKING:
    import numpy as np

DISTRIBUTIONS = (
    "xxy_unoptimized_1024",
    "xxy_unoptimized_8192",
    "xxy_optimized_8192",
    "yyy_unoptimized_1024",
    "yyy_unoptimized_8192",
    "yyy_optimized_8192",
)

CIRCUITS = (
    "routing_example",
    "ghz",
    "mermin_xxy_unopt",
    "mermin_xxy_opt",
    "mermin_yyy_unopt",
    "mermin_yyy_opt",
)

DENSITY_MATRICES = (
    "xxy_ideal",
    "xxy_unoptimized_tomo",
    "xxy_optimized_tomo",
)


def data_text(filename: str) -> str:
    return resources.files("qxopt.data").joinpath(filename).read_text(encoding="utf-8")


def load_distribution(name: str) -> ProbabilityDistribution:
    if name not in DISTRIBUTIONS:
        raise KeyError(f"unknown distribution {name!r}")
    return parse_distribution(data_text(f"{name}.probs"))


def load_raw_density_matrix(name: str) -> np.ndarray:
    """Raw complex matrix as published; sanitize before analysis."""
    if name not in DENSITY_MATRICES:
        raise KeyError(f"unknown density matrix {name!r}")
    return parse_density_matrix(data_text(f"{name}.dm"))


def load_circuit(name: str) -> Circuit:
    if name not in CIRCUITS:
        raise KeyError(f"unknown circuit {name!r}")
    return parse(data_text(f"{name}.qasm"))
