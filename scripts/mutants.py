#!/usr/bin/env python3
"""Check that the tests still catch every mutation they have caught before.

Each mutant names a module of `src/qxopt`, an exact text found once in it,
the text that replaces it, and the tests that must fail once it is
replaced. For each mutant the script copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, applies the replacement there
and runs `pytest -x` on the mutant's tests, which must fail. First it runs
every named test on an unmutated copy, where all must pass. It exits 1 if
a named test fails unmutated, if a mutant's text is not found exactly once,
or if a mutant survives: its tests pass, or pytest stops without running
them. It prints one line per mutant and takes no options:

    python scripts/mutants.py

The list is kept by three rules:
- A refactor that moves a mutant's text re-points the mutant, as it would
  re-point a test, and CHANGES.md names the mutant.
- A mutant is retired only with the code it mutates, and CHANGES.md says so.
- A mutation checked by hand on a throwaway copy, and reported in CHANGES.md,
  is added to the list.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/qxopt, without `.py`
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "stabilizer: a CNOT's sign rule inverted",
        "stabilizer",
        "sign ^= xa & zb & ~(xb ^ za)",
        "sign ^= xa & zb & (xb ^ za)",
        ("tests/test_stabilizer.py::test_verdicts_match_dense_simulator",),
    ),
    Mutant(
        "placement: the residue's phase sum taken mod 16",
        "placement",
        "if total % 8)",
        "if total % 16)",
        ("tests/test_placement.py::test_residue_counts_what_no_rewrite_removes_per_wire",),
    ),
    Mutant(
        "simulator: `_seam` without its early stop",
        "simulator",
        "        if not live:\n            break\n",
        "",
        ("tests/test_simulator.py::test_seam_stops_reading_c2_once_every_wire_is_blocked",),
    ),
    Mutant(
        "placement: a placement that a symmetry fixes skipped (`<` made `<=`)",
        "placement",
        "tuple(map(image, p)) < p",
        "tuple(map(image, p)) <= p",
        ("tests/test_placement.py::test_placement_that_a_symmetry_fixes_is_scored",),
    ),
    Mutant(
        "Record: unknown keywords accepted",
        "__init__",
        "if named.keys() != set(rest):",
        "if not set(rest) <= named.keys():",
        (
            "tests/test_records.py::"
            "test_constructors_refuse_a_missing_extra_unknown_or_doubled_field[MappingResult]",
        ),
    ),
    Mutant(
        "simulator: `_embed`'s field mask fixed at 1",
        "simulator",
        "    mask = (1 << bits) - 1\n    idx = np.arange",
        "    mask = 1\n    idx = np.arange",
        ("tests/test_simulator.py::test_derived_cnot_gather_matches_the_typed_one",),
    ),
    Mutant(
        "pathsum: Y's sign dropped in `prepend`",
        "pathsum",
        "            if kind is GateKind.Y:  # Y |x> = i (-1)^x |x + 1>\n                self._add(1 << x, 4)\n",
        "",
        ("tests/test_pathsum.py::test_phases_are_exact_and_global_phase_is_ignored",),
    ),
    Mutant(
        "peephole: `merge-tt-s` yields Z",
        "peephole",
        'RewriteRule("merge-tt-s", (GateKind.T, GateKind.T), (GateKind.S,))',
        'RewriteRule("merge-tt-s", (GateKind.T, GateKind.T), (GateKind.Z,))',
        ("tests/test_peephole.py::test_phase_merge_t_t_to_s",),
    ),
    Mutant(
        "placement: `_touched` drops a CNOT's target",
        "placement",
        "for q in {q for g in gates for q in g.qubits}",
        "for q in {g.qubits[0] for g in gates}",
        ("tests/test_realization.py::test_table_carries_its_entries_as_codes_and_blocks[qx2]",),
    ),
    Mutant(
        "placement: `_symmetries` accepts a map without comparing entries",
        "placement",
        "return tuple(sigma) if same else None",
        "return tuple(sigma)",
        ("tests/test_realization.py::test_symmetries_are_pinned[ring4-symmetries3]",),
    ),
    Mutant(
        "simulator: T and TDG let into the two-wire window",
        "simulator",
        "if on & ~window[1] or kind is GateKind.T or kind is GateKind.TDG:",
        "if on & ~window[1]:",
        ("tests/test_simulator.py::test_window_folds_only_a_monomial_product",),
    ),
    Mutant(
        "simulator: a given-up window skips its control's H step",
        "simulator",
        "        yield wires[0]\n",
        "",
        ("tests/test_simulator.py::test_equivalent_verdicts_match_dense_oracle",),
    ),
    Mutant(
        "simulator: a given-up window drops the gates it held",
        "simulator",
        "held[1:] +",
        "[] +",
        ("tests/test_simulator.py::test_equivalent_verdicts_match_dense_oracle",),
    ),
    Mutant(
        "simulator: a folded window's G put on swapped wires",
        "simulator",
        "frame |= (step[2] & 1) << wires[0] | (step[2] >> 1) << wires[1]",
        "frame |= (step[2] & 1) << wires[1] | (step[2] >> 1) << wires[0]",
        ("tests/test_simulator.py::test_window_folds_a_reversed_cnot_whose_h_gates_moved",),
    ),
    Mutant(
        "simulator: `_seam` cancels equal kinds instead of inverse kinds",
        "simulator",
        "head[stack[-1]] == (inverse_of(kind), qubits)",
        "head[stack[-1]] == (kind, qubits)",
        ("tests/test_simulator.py::test_seam_leaves_the_miter_product_unchanged",),
    ),
    Mutant(
        "simulator: `equivalent` ignores the placement",
        "simulator",
        "tuple([wire[q] for q in g.qubits])",
        "tuple([q for q in g.qubits])",
        ("tests/test_simulator.py::test_equivalent_verdicts_match_dense_oracle",),
    ),
    Mutant(
        "simulator: the dense check's default tolerance put back to 1e-9",
        "simulator",
        "    tol: float = VERIFY_TOL,\n) -> bool:",
        "    tol: float = 1e-9,\n) -> bool:",
        (
            "tests/test_simulator.py::"
            "test_every_mapping_check_defaults_to_the_one_verification_tolerance",
        ),
    ),
    Mutant(
        "placement: an X or a Y weighs 2 in `_residue`",
        "placement",
        "sums[g.qubits, g.kind] += 4",
        "sums[g.qubits, g.kind] += 2",
        ("tests/test_placement.py::test_residue_counts_what_no_rewrite_removes_per_wire",),
    ),
    Mutant(
        "placement: the skeleton never split into segments",
        "placement",
        "if new and part:",
        "if False:",
        ("tests/test_placement.py::test_pruned_search_matches_unpruned_oracle_on_ladder8",),
    ),
    Mutant(
        "placement: the 3-qubit rule for a circuit with a CNOT on every wire set at 2",
        "placement",
        "n - k < 3)",
        "n - k < 2)",
        (
            "tests/test_placement.py::"
            "test_circuit_with_a_cnot_on_every_wire_scores_every_injection",
        ),
    ),
    Mutant(
        "placement: the skip prunes a placement whose bound ties the best (`>` made `>=`)",
        "placement",
        "skeleton(placement) + residue > best",
        "skeleton(placement) + residue >= best",
        ("tests/test_placement.py::test_optimize_matches_eager_oracle_on_gate_count_ties",),
    ),
    Mutant(
        "peephole: `engine_state` copies a state shallowly",
        "peephole",
        "return [pending[:], link1[:], link2[:], top.copy(), dead]",
        "return [pending, link1, link2, top, dead]",
        ("tests/test_peephole.py::test_blocks_match_stack_oracle",),
    ),
    Mutant(
        "circuit: `decode` skips the equal-fields test of a CNOT",
        "circuit",
        "valid = code >= 0 and qubits[0] != qubits[1]",
        "valid = code >= 0",
        ("tests/test_circuit.py::test_decode_checks_only_the_codes_of_no_valid_gate",),
    ),
    Mutant(
        "circuit: T's and TDG's phase weights swapped",
        "circuit",
        "GateKind.T: 1, GateKind.TDG: 7",
        "GateKind.T: 7, GateKind.TDG: 1",
        ("tests/test_pathsum.py::test_phases_are_exact_and_global_phase_is_ignored",),
    ),
    Mutant(
        "cli: `bench` exits 0 with a row that is not verified",
        "cli",
        "    if unverified:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::"
            "test_bench_exits_two_after_its_report_when_a_row_is_not_verified",
        ),
    ),
)


def _copy(directory: Path) -> None:
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, directory / sub, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", directory)


def _pytest(directory: Path, tests: list[str]) -> int:
    """pytest's exit code for `tests`, run in `directory` on its own `src`."""
    env = dict(os.environ, PYTHONPATH=str(directory / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=directory, env=env, capture_output=True).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(clean, named) != 0:
            print(f"unmutated copy fails some of the {len(named)} named tests")
            return 1
        for i, mutant in enumerate(MUTANTS):
            start = time.perf_counter()
            copy = Path(tmp) / f"mutant{i}"
            _copy(copy)
            path = copy / "src" / "qxopt" / f"{mutant.module}.py"
            text = path.read_text(encoding="utf-8")
            found = text.count(mutant.text)
            if found != 1:
                verdict = f"TEXT FOUND {found} TIMES"
            else:
                path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
                # 1: the tests ran and some failed. Any other code means that
                # they passed or never ran.
                code = _pytest(copy, list(mutant.tests))
                verdict = "caught" if code == 1 else f"SURVIVED (pytest exit {code})"
            failures += verdict != "caught"
            print(f"{verdict}: {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            shutil.rmtree(copy)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
