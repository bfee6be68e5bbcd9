"""The four text parsers refuse any input they cannot read with a
ValueError (QasmError is one), never with another exception."""
from functools import partial

from hypothesis import given, settings, strategies as st

from qxopt.qasm import parse
from qxopt.states import parse_density_matrix, parse_distribution
from qxopt.topology import load

# Fragments of all four formats, so joined draws reach past the first check.
_TOKENS = [
    "OPENQASM 2.0", "include", "qreg", "creg", "q", "c", "r", "[", "]", ";", ",", " ", "\n",
    "//", "#", "->", "h", "x", "cx", "tdg", "measure", "barrier", "qubits", "dm",
    "0", "1", "2", "3", "-1", "0.5", "1e400", "nan", "inf", "y",
]

_TEXT = st.one_of(st.text(max_size=200), st.lists(st.sampled_from(_TOKENS), max_size=80).map("".join))

_PARSERS = (parse, partial(parse, strict=True), load, parse_distribution, parse_density_matrix)


@settings(deadline=None, max_examples=300)
@given(_TEXT)
def test_parsers_refuse_only_with_value_errors(text):
    for read in _PARSERS:
        try:
            read(text)
        except ValueError:
            pass
