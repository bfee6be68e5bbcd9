"""Benchmark harness: optimize every circuit file in a directory and report
initial/final costs with reduction percentages, sorted by gate reduction.

Each row carries a `verified` flag from the simulator equivalence check
(skipped on devices wider than the dense-simulation cap, where rows stay
unverified).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .circuit import CostReport
from .placement import optimize
from .qasm import parse
from .realization import RealizationTable
from .simulator import MAX_STATE_QUBITS, equivalent


@dataclass(frozen=True)
class BenchRow:
    name: str
    qubits: int
    initial: CostReport
    final: CostReport
    reduction: tuple[int, int]
    verified: bool
    error: str | None = None


def bench_file(path: Path, table: RealizationTable, strict: bool = False) -> BenchRow:
    try:
        circuit = parse(path.read_text(encoding="utf-8"), strict=strict)
        result = optimize(circuit, table)
        verified = False
        if table.graph.num_physical <= MAX_STATE_QUBITS:
            verified = equivalent(circuit, result.mapped, list(result.placement), tol=1e-8)
        return BenchRow(
            name=path.stem,
            qubits=circuit.num_qubits,
            initial=result.initial_cost,
            final=result.final_cost,
            reduction=result.reduction_pct,
            verified=verified,
        )
    except (ValueError, KeyError) as exc:
        return BenchRow(
            name=path.stem,
            qubits=0,
            initial=CostReport(0, 0),
            final=CostReport(0, 0),
            reduction=(0, 0),
            verified=False,
            error=str(exc),
        )


def bench_directory(
    directory: Path, table: RealizationTable, strict: bool = False
) -> list[BenchRow]:
    files = sorted(directory.glob("*.qasm"))
    if not files:
        raise ValueError(f"no .qasm files in {directory}")
    rows = [bench_file(path, table, strict=strict) for path in files]
    # Most-improved first, then stable by name.
    rows.sort(key=lambda r: (r.error is not None, -r.reduction[0], r.name))
    return rows


CSV_HEADER = "name,qubits,gates_in,levels_in,gates_out,levels_out,gates_pct,levels_pct,verified"


def render_csv(rows: list[BenchRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        if r.error is not None:
            lines.append(f"{r.name},error,,,,,,,{r.error!r}")
            continue
        lines.append(
            f"{r.name},{r.qubits},{r.initial.gates},{r.initial.levels},"
            f"{r.final.gates},{r.final.levels},{r.reduction[0]},{r.reduction[1]},"
            f"{'true' if r.verified else 'false'}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(rows: list[BenchRow]) -> str:
    lines = [
        "| Name | Qubits | Initial gates | Initial levels | Final gates | Final levels | % gates | % levels | Verified |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        if r.error is not None:
            lines.append(f"| {r.name} | error: {r.error} | | | | | | | |")
            continue
        lines.append(
            f"| {r.name} | {r.qubits} | {r.initial.gates} | {r.initial.levels} "
            f"| {r.final.gates} | {r.final.levels} | {r.reduction[0]} | {r.reduction[1]} "
            f"| {'yes' if r.verified else 'NO'} |"
        )
    return "\n".join(lines) + "\n"
