"""Command-line front end.

Subcommands: optimize, simplify, verify, bench, mermin, fidelity, table dump.
Exit codes: 0 success, 1 usage error, 2 verification failure.

`optimize` and `simplify` check their output against the input before
writing it, and write nothing on a mismatch. `simplify` still writes a
circuit that neither checker can decide, the one case the check refuses
with `circuit.DenseCapError` (the path sum gave up and the circuit is past
the dense cap), and says on stderr that it is unverified; any other error of
the check reaches `main`, which exits 1 with nothing written. `bench` prints
its whole report, then fails if a row's mapping is not equivalent to its
file.
A command that builds a realization table fails if an entry fails its proof.
Every such failed check raises `VerificationError` (`RealizationError` is
the same class), and `main` alone prints it as one `error:` line and exits
2. The class is defined in the package root, which every process loads
already, so `main` catches it by name without loading the mapping modules
into commands that never build a table. Only `verify`, whose verdict is its
output, chooses exit 2 itself.

Every refusal of the input comes before the realization table is built:
`optimize` resolves the device, checks the search limit, reads the circuit
and checks that it fits; `bench` first finds the directory's circuits, and
`verify --random` checks `--qubits`.

`verify` refuses, as a usage error, an argument that its mode would drop:
circuit files, `--placement` and `--strict` under `--random`, and `--arch`,
`--qubits`, `--gates` and `--seed` without it.

Each handler imports only what it runs. `mermin` loads neither numpy nor the
mapping modules, and `fidelity` loads numpy but no mapping module. `simplify`
and a two-file `verify` load the parser and the check, `pathsum`, but not the
search; `simplify` adds `peephole`. `optimize`, `verify --random`, `bench`
and `table dump` load the search modules. Only `bench` and `optimize --report
csv` load the report module, `bench`, and `csv`. A mapping command loads
numpy only when the path sum cannot prove a pair within the dense cap and
`pathsum.equivalent` falls back to the dense simulator; a pair past the cap
is refused before numpy loads. No command loads the standard library's
data-class module or the `inspect` it imports: the value classes are
`__slots__` classes on `qxopt.Record`, which the package root defines.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

from . import VerificationError

if TYPE_CHECKING:
    from .circuit import Circuit
    from .topology import CouplingGraph

_T = TypeVar("_T")


# What `--help` and a bare `qxopt` print; the module docstring holds the
# implementation notes.
_DESCRIPTION = (
    "Map Clifford+T circuits onto CNOT-restricted devices and check the results. "
    "Subcommands: optimize, simplify, verify, bench, mermin, fidelity, table dump. "
    "Exit codes: 0 success, 1 usage error, 2 verification failure."
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _read_parsed(path: str, parse: Callable[[str], _T]) -> _T:
    """`parse` of the file's text. A ValueError from decoding or parsing it is
    raised again prefixed with the path; an OSError names the file already."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve_arch(arch: str) -> CouplingGraph:
    from .topology import builtin, load

    if arch.startswith("@"):
        path = arch[1:]
        return _read_parsed(path, lambda text: load(text, name=Path(path).stem))
    return builtin(arch)


def _read_circuit(path: str, strict: bool) -> Circuit:
    from .qasm import parse_report

    circuit, warnings = _read_parsed(path, lambda text: parse_report(text, strict=strict))
    for warning in warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return circuit


def _at_least(kind: type, minimum: int):
    """argparse type: a finite `kind` (int or float) of at least `minimum`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        # Not math.isfinite: it raises OverflowError on a huge int.
        if not minimum <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be at least {minimum} and finite, got {text}")
        return value

    return parse


def _searchable_graph(arch: str) -> CouplingGraph:
    """An architecture within the search limit, checked before its
    realization table is built."""
    from .placement import check_search_limit

    graph = _resolve_arch(arch)
    check_search_limit(graph)
    return graph


def _placement_arg(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--placement expects comma-separated integers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="qxopt", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("optimize", help="map a circuit onto an architecture")
    p.add_argument("--arch", required=True, help="qx2, qx4, or @coupling-file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", help="write the mapped circuit here")
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("simplify", help="peephole-rewrite a circuit")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile")
    p.add_argument("--trace", action="store_true", help="print each fired rule")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("verify", help="check unitary equivalence")
    p.add_argument("circuits", nargs="*", help="two circuit files to compare")
    p.add_argument("--placement", help="comma-separated physical target per logical qubit")
    # Default None stands for circuit.VERIFY_TOL, which every process would
    # otherwise import `circuit` to read while building the parser.
    p.add_argument(
        "--tol",
        type=_at_least(float, 0),
        help="dense fallback only: bound on each entry of U2^dagger U1 - phase * I",
    )
    p.add_argument("--arch", help="needed for --random, refused without it")
    p.add_argument(
        "--random", type=_at_least(int, 0), metavar="N", help="self-check N random circuits"
    )
    # Default None, so that a two-file verify can refuse them; --random
    # fills in 4, 20 and 0.
    p.add_argument("--qubits", type=_at_least(int, 1), help="with --random: width (default 4)")
    p.add_argument("--gates", type=_at_least(int, 0), help="with --random: length (default 20)")
    p.add_argument("--seed", type=int, help="with --random: generator seed (default 0)")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("bench", help="optimize every .qasm file in a directory")
    p.add_argument("directory")
    p.add_argument("--arch", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--keep-going", action="store_true", help="exit 0 despite row errors")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("mermin", help="Mermin polynomial from two distributions")
    p.add_argument("--xxy", required=True)
    p.add_argument("--yyy", required=True)

    p = sub.add_parser("fidelity", help="state overlap of two density-matrix files")
    p.add_argument("--a", dest="first", required=True)
    p.add_argument("--b", dest="second", required=True)

    p = sub.add_parser("table", help="realization-table utilities")
    table_sub = p.add_subparsers(dest="table_command")
    q = table_sub.add_parser("dump", help="print every realization with its cost")
    q.add_argument("--arch", required=True)

    return parser


def _cmd_optimize(args) -> int:
    import json

    from .placement import check_widths, map_verified
    from .qasm import emit
    from .realization import build_table

    graph = _searchable_graph(args.arch)
    circuit = _read_circuit(args.infile, args.strict)
    check_widths(circuit, graph)
    table = build_table(graph)
    result, verified = map_verified(circuit, table)
    if not verified:
        raise VerificationError(
            f"{args.infile}: mapped circuit is not equivalent to the input "
            f"under placement {list(result.placement)}; nothing written"
        )
    if args.outfile:
        Path(args.outfile).write_text(emit(result.mapped), encoding="utf-8")
    if args.report == "json":
        report = {
            "input": args.infile,
            "arch": table.graph.name,
            "placement": list(result.placement),
            "initial": {"gates": result.initial_cost.gates, "levels": result.initial_cost.levels},
            "final": {"gates": result.final_cost.gates, "levels": result.final_cost.levels},
            "reduction_pct": dict(zip(("gates", "levels"), result.reduction_pct)),
            "verified": True,
        }
        print(json.dumps(report, indent=2))
    else:
        from .bench import COST_COLUMNS, cost_cells, csv_text

        header = ["input", "arch", "placement", *COST_COLUMNS, "verified"]
        placement = "|".join(str(p) for p in result.placement)
        row = [args.infile, table.graph.name, placement, *cost_cells(result), "true"]
        print(csv_text([header, row]), end="")
    return 0


def _cmd_simplify(args) -> int:
    from .circuit import DenseCapError
    from .pathsum import equivalent
    from .peephole import RuleFiring, simplify
    from .qasm import emit

    circuit = _read_circuit(args.infile, args.strict)
    trace: list[RuleFiring] | None = [] if args.trace else None
    simplified = simplify(circuit, trace)
    try:
        verified = equivalent(circuit, simplified)
    except DenseCapError as exc:  # the path sum gave up, past the dense cap
        verified, undecided = None, exc
    if verified is False:
        raise VerificationError(
            f"{args.infile}: simplified circuit is not equivalent to the input; nothing written"
        )
    for firing in trace or ():
        print(f"{firing.rule} at {firing.position} on qubits {firing.qubits}")
    text = emit(simplified)
    if args.outfile:
        Path(args.outfile).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    print(f"gates: {len(circuit.gates)} -> {len(simplified.gates)}", file=sys.stderr)
    if verified is None:
        print(f"warning: {args.infile}: output unverified: {undecided}", file=sys.stderr)
    return 0


def _verify_random(args, tol: float) -> int:
    import random

    from .circuit import random_circuit
    from .placement import map_verified
    from .qasm import emit
    from .realization import build_table

    if args.circuits:
        raise UsageError(f"--random takes no circuit files, got {' '.join(args.circuits)}")
    if args.placement is not None:
        raise UsageError("--random takes no --placement")
    if args.strict:
        raise UsageError("--random takes no --strict")
    if not args.arch:
        raise UsageError("--random requires --arch")
    qubits = 4 if args.qubits is None else args.qubits
    gates = 20 if args.gates is None else args.gates
    seed = 0 if args.seed is None else args.seed
    graph = _searchable_graph(args.arch)
    if qubits > graph.num_physical:
        raise UsageError(f"--qubits exceeds the {graph.num_physical} qubits of {args.arch}")
    table = build_table(graph)
    rng = random.Random(seed)
    failures = 0
    for i in range(args.random):
        circuit = random_circuit(qubits, gates, rng)
        result, ok = map_verified(circuit, table, tol)
        if not ok:
            failures += 1
            print(
                f"case {i}: FAIL (seed {seed}, placement "
                f"{','.join(str(p) for p in result.placement)}); input circuit:"
            )
            print(emit(circuit), end="")
    print(f"{args.random - failures}/{args.random} random circuits verified")
    return 0 if failures == 0 else 2


def _cmd_verify(args) -> int:
    from .circuit import VERIFY_TOL
    from .pathsum import equivalent

    tol = VERIFY_TOL if args.tol is None else args.tol
    if args.random is not None:
        return _verify_random(args, tol)
    if len(args.circuits) != 2:
        raise UsageError("verify needs exactly two circuit files (or --random N)")
    for name in ("arch", "qubits", "gates", "seed"):
        if getattr(args, name) is not None:
            raise UsageError(f"verify without --random takes no --{name}")
    first = _read_circuit(args.circuits[0], args.strict)
    second = _read_circuit(args.circuits[1], args.strict)
    placement = None
    if args.placement is not None:
        placement = _placement_arg(args.placement)
    ok = equivalent(first, second, placement, tol=tol)
    print("equivalent" if ok else "NOT equivalent")
    return 0 if ok else 2


def _cmd_bench(args) -> int:
    from . import bench as bench_mod

    graph = _searchable_graph(args.arch)
    rows = bench_mod.bench_directory(Path(args.directory), graph, strict=args.strict)
    for warning in (w for r in rows for w in r.warnings):
        print(f"warning: {warning}", file=sys.stderr)
    render = bench_mod.render_csv if args.format == "csv" else bench_mod.render_markdown
    print(render(rows), end="")
    # An error row has no mapping to check.
    unverified = [r.name for r in rows if r.result is not None and not r.verified]
    if unverified:
        raise VerificationError(f"{len(unverified)} file(s) not verified: {', '.join(unverified)}")
    errors = [r for r in rows if r.error is not None]
    if errors and not args.keep_going:
        print(f"{len(errors)} file(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_mermin(args) -> int:
    from .nonclassicality import CLASSICAL_BOUND, QUANTUM_BOUND, mermin3
    from .states import parse_distribution

    xxy = _read_parsed(args.xxy, parse_distribution)
    yyy = _read_parsed(args.yyy, parse_distribution)
    value = mermin3(xxy, yyy)
    print(f"m3 = {value.m3:.3f}")
    print(f"violation = {value.violation:.3f}")
    print(f"classical bound = {CLASSICAL_BOUND:g}")
    print(f"quantum bound = {QUANTUM_BOUND:g}")
    return 0


def _cmd_fidelity(args) -> int:
    from .nonclassicality import sanitize, uhlmann_fidelity
    from .states import parse_density_matrix

    first = _read_parsed(args.first, parse_density_matrix)
    second = _read_parsed(args.second, parse_density_matrix)
    fid = uhlmann_fidelity(sanitize(first.real, first.imag), sanitize(second.real, second.imag))
    print(f"fidelity = {fid:.4f}")
    return 0


# A table builds a candidate per shortest path of each qubit pair: a 5x5 grid
# has 3,248 and builds in under a second, a 6x6 grid 13,024 in seconds.
_DUMP_PATH_LIMIT = 5000


def _cmd_table(args) -> int:
    if args.table_command != "dump":
        raise UsageError("usage: qxopt table dump --arch ...")
    from .realization import build_table, dump_text
    from .topology import path_count

    graph = _resolve_arch(args.arch)
    paths = path_count(graph)  # before any table is built
    if paths > _DUMP_PATH_LIMIT:
        raise ValueError(
            f"device has {paths} shortest paths between its qubit pairs; "
            f"table dump is limited to {_DUMP_PATH_LIMIT}"
        )
    print(dump_text(build_table(graph)), end="")
    return 0


_HANDLERS = {
    "optimize": _cmd_optimize,
    "simplify": _cmd_simplify,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "mermin": _cmd_mermin,
    "fidelity": _cmd_fidelity,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
