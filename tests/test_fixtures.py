from importlib import resources

import pytest

from qxopt.fixtures import (
    CIRCUITS,
    DENSITY_MATRICES,
    DISTRIBUTIONS,
    load_circuit,
    load_distribution,
    load_raw_density_matrix,
)

DATA_FILES = sorted(entry.name for entry in resources.files("qxopt.data").iterdir())
KINDS = [
    (DISTRIBUTIONS, ".probs", load_distribution),
    (CIRCUITS, ".qasm", load_circuit),
    (DENSITY_MATRICES, ".dm", load_raw_density_matrix),
]


@pytest.mark.parametrize(
    "names,suffix,load", KINDS, ids=["distributions", "circuits", "density-matrices"]
)
def test_fixture_lists_are_the_data_files(names, suffix, load):
    assert names
    assert names == tuple(f[: -len(suffix)] for f in DATA_FILES if f.endswith(suffix))
    for name in names:
        load(name)


def test_every_data_file_is_in_a_fixture_list():
    listed = sorted(name + suffix for names, suffix, _ in KINDS for name in names)
    assert listed == DATA_FILES


@pytest.mark.parametrize(
    "load,name,message",
    [
        (load_distribution, "ghz", "unknown distribution 'ghz'"),
        (load_circuit, "xxy_ideal", "unknown circuit 'xxy_ideal'"),
        (load_raw_density_matrix, "ghz", "unknown density matrix 'ghz'"),
    ],
    ids=["distribution", "circuit", "density-matrix"],
)
def test_loaders_refuse_an_unknown_name(load, name, message):
    with pytest.raises(KeyError) as info:
        load(name)
    assert info.value.args[0] == message
