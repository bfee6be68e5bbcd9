"""The directory report: every circuit file of a directory mapped and
checked by `placement.map_verified`, one `BenchRow` per file with the
parser's warnings about it, sorted by gate reduction, and rendered as CSV
or markdown. Every CSV report goes through one `csv.writer`, which quotes
fields per RFC 4180. Only `qxopt bench` and `qxopt optimize --report csv`
load this module.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path

from . import Record, realization
from .placement import MappingResult, map_verified
from .qasm import parse_report
from .topology import CouplingGraph


class BenchRow(Record):
    """One benchmarked file: its mapping, or the error that stopped it, and
    the parser's warnings about it, each led by the file's path."""

    __slots__ = ("name", "result", "verified", "error", "warnings")
    name: str
    result: MappingResult | None
    verified: bool
    error: str | None
    warnings: tuple[str, ...]


def bench_file(path: Path, table: realization.RealizationTable, strict: bool = False) -> BenchRow:
    warnings: list[str] = []
    try:
        circuit, warnings = parse_report(path.read_text(encoding="utf-8"), strict=strict)
        result, verified = map_verified(circuit, table)
        error = None
    except (OSError, ValueError, KeyError) as exc:
        result, verified, error = None, False, str(exc)
    return BenchRow(path.stem, result, verified, error, tuple(f"{path}: {w}" for w in warnings))


def bench_directory(directory: Path, graph: CouplingGraph, strict: bool = False) -> list[BenchRow]:
    """One row per `.qasm` file of `directory`, mapped onto `graph`, whose
    realization table is built only once a file is found."""
    files = sorted(directory.glob("*.qasm"))
    if not files:
        raise ValueError(f"no .qasm files in {directory}")
    table = realization.build_table(graph)
    rows = [bench_file(path, table, strict=strict) for path in files]
    # Most-improved first, then stable by name.
    rows.sort(
        key=lambda r: (r.result is None, -r.result.reduction_pct[0] if r.result else 0, r.name)
    )
    return rows


COST_COLUMNS = ["gates_in", "levels_in", "gates_out", "levels_out", "gates_pct", "levels_pct"]


def cost_cells(result: MappingResult) -> list[int]:
    """The values of `COST_COLUMNS` for one mapping."""
    initial, final = result.initial_cost, result.final_cost
    return [initial.gates, initial.levels, final.gates, final.levels, *result.reduction_pct]


def csv_text(lines: list[list]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    return out.getvalue()


def render_csv(rows: list[BenchRow]) -> str:
    lines: list[list] = [["name", "qubits", *COST_COLUMNS, "verified"]]
    for r in rows:
        if r.result is None:
            lines.append([r.name, "error", *[""] * 6, r.error])
        else:
            verified = "true" if r.verified else "false"
            lines.append([r.name, len(r.result.placement), *cost_cells(r.result), verified])
    return csv_text(lines)


def _markdown_line(cells: list) -> str:
    """One table row; a `|` inside a cell is escaped so it adds no column."""
    text = [str(c).replace("|", "\\|") for c in cells]
    return "|" + "|".join(f" {c} " if c != "" else " " for c in text) + "|"


def render_markdown(rows: list[BenchRow]) -> str:
    lines = [
        "| Name | Qubits | Initial gates | Initial levels | Final gates | Final levels "
        "| % gates | % levels | Verified |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        if r.result is None:
            lines.append(_markdown_line([r.name, f"error: {r.error}", *[""] * 7]))
        else:
            verified = "yes" if r.verified else "NO"
            cells = [r.name, len(r.result.placement), *cost_cells(r.result), verified]
            lines.append(_markdown_line(cells))
    return "\n".join(lines) + "\n"
