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
