#!/usr/bin/env python3
"""Count the lines of Python modules by kind: code, docstring, comment and
blank.

A docstring line is any line of a docstring, the first statement of a
module, class or function when it is a string literal, blank lines inside
it included. Of the other lines, a blank line holds only whitespace, a
comment line is one whose first non-blank character is `#`, and every other
line is code. So the four counts of a file add up to its line count.

    python scripts/loc.py                 # every src/qxopt/*.py module
    python scripts/loc.py path/to/a.py    # the named files

It prints one row per file and a total row.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """Lines of `text`, a Python module's source, by kind."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def _cells(counts: dict[str, int]) -> list[str]:
    values = [counts[kind] for kind in KINDS] + [sum(counts.values())]
    return [f"{value:>{width},}" for value, width in zip(values, (6, 9, 7, 6, 6))]


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "qxopt").glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<20} {'code':>6} {'docstring':>9} {'comment':>7} {'blank':>6} {'lines':>6}")
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<20} " + " ".join(_cells(counts)))
    print(f"{'total':<20} " + " ".join(_cells(total)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
