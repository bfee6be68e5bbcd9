#!/usr/bin/env python3
"""Fingerprint the command-line behavior of this checkout.

Runs a fixed list of `python -m qxopt` commands, with PYTHONPATH set to this
checkout's `src`, in a fresh temporary directory that holds copies of the
bundled data and a few malformed inputs, all named by relative paths. It
prints one line per run: the argv, the exit code, and the sha256 of stdout,
of stderr and of each file the run wrote or changed. Two checkouts that
behave alike print the same lines, so `diff` of two captures lists every
command whose output moved:

    python scripts/cli_capture.py > after.txt

The list covers every subcommand and report format on the bundled data,
`fidelity` with the pure ideal state first, second and as both arguments, one
malformed input for each file parser, a two-file `verify` with one bad
file, a two-file `verify` of a 10-qubit pair that only the dense check
decides, over many column blocks, one of a 9-qubit pair that `--tol 0.1`
tells apart, one of `ghz.qasm` against a copy with a leading T, which the
dense check decides on what is left of its miter once the shared gates
cancel, and mappings onto an 8-qubit ladder, among them ones on which
the search prunes placements. It takes no options.
"""
from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "qxopt" / "data"

CIRCUITS = (
    "ghz", "mermin_xxy_opt", "mermin_xxy_unopt", "mermin_yyy_opt", "mermin_yyy_unopt",
    "routing_example",
)
ARCHS = ("qx2", "qx4", "@line.graph")

_WIDE = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[10];\nh q[0];\nh q[3];\nh q[6];\nh q[9];\n'
    "cx q[0],q[1];\ncx q[3],q[4];\ncx q[6],q[7];\ncx q[9],q[8];\nt q[1];\ns q[4];\ntdg q[7];\n"
    "t q[8];\ncx q[1],q[2];\ncx q[4],q[5];\ncx q[7],q[8];\nh q[2];\nh q[5];\ncx q[2],q[3];\n"
    "cx q[5],q[6];\ncx q[8],q[9];\n"
)
_H9 = "qreg q[9];\n" + "".join(f"h q[{q}];\n" for q in range(9))

# Inputs written next to the bundled data: two devices, a circuit, and one
# malformed file per parser. The search prunes placements by their H and
# CNOT skeleton only where some wire carries neither gate and the device
# has qubits to spare: the circuit's wire 3 carries only T, TDG and X, and
# the 2x4 ladder (top row 0-3, bottom row 4-7) has 8 qubits.
INPUTS = {
    "line.graph": "qubits 5\n0 1\n1 2\n2 3\n3 4\n",
    "ladder.graph": "qubits 8\n0 1\n2 1\n2 3\n4 5\n6 5\n6 7\n0 4\n5 1\n2 6\n7 3\n",
    "idle_wire.qasm": (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\nh q[0];\nt q[3];\n'
        "cx q[0],q[1];\ns q[1];\ncx q[1],q[2];\nh q[2];\ntdg q[3];\ncx q[2],q[0];\n"
        "x q[3];\nh q[1];\ncx q[0],q[1];\n"
    ),
    # A 10-qubit pair that differs only on inputs with wire 9 set: the dense
    # check decides it past the first half of its column blocks.
    "wide.qasm": _WIDE,
    "wide_t.qasm": _WIDE.replace("qreg q[10];\n", "qreg q[10];\nt q[9];\n"),
    # A pair one T apart below nine H gates: entries of the unitaries differ
    # by 0.03, entries of the miter U2^dagger U1 - I by 0.77.
    "h9.qasm": _H9,
    "th9.qasm": _H9.replace("qreg q[9];\n", "qreg q[9];\nt q[0];\n"),
    # GHZ below one T: the path sum rejects it, so the dense check runs on
    # the miter that is left once the three shared gates cancel.
    "t_ghz.qasm": (DATA / "ghz.qasm").read_text().replace("creg", "t q[0];\ncreg"),
    "bad.graph": "qubits 3\n0 0\n",
    "gate_before_qreg.qasm": "OPENQASM 2.0;\nh q[0];\n",
    "no_qreg.qasm": "OPENQASM 2.0;\n",
    "bad.probs": "000 0.5\n111 x\n",
    "bad.dm": "dm 2\n1 0\n",
    "bad_entry.dm": "# tomography\ndm 1\n\nnan 0\n",
}

RUNS = (
    [
        ["optimize", "--arch", a, "--in", f"{c}.qasm", "--report", report]
        for report in ("json", "csv")
        for a in ARCHS
        for c in CIRCUITS
    ]
    + [
        ["optimize", "--arch", a, "--in", "mermin_yyy_unopt.qasm", "--out", f"mapped_{i}.qasm"]
        for i, a in enumerate(ARCHS)
    ]
    + [["optimize", "--arch", "qx4", "--in", "ghz.qasm", "--strict"]]
    + [
        ["optimize", "--arch", "@ladder.graph", "--in", f"{c}.qasm", "--report", "json"]
        for c in (*CIRCUITS, "idle_wire")
    ]
    + [["simplify", "--in", f"{c}.qasm"] for c in CIRCUITS]
    + [
        ["simplify", "--in", "mermin_yyy_unopt.qasm", "--trace"],
        ["simplify", "--in", "mermin_yyy_unopt.qasm", "--trace", "--out", "simplified.qasm"],
        ["verify", "mermin_xxy_unopt.qasm", "mermin_xxy_opt.qasm"],
        ["verify", "mermin_yyy_unopt.qasm", "mapped_0.qasm", "--placement", "0,1,2"],
        ["verify", "ghz.qasm", "ghz.qasm", "--tol", "0"],
        ["verify", "wide.qasm", "wide_t.qasm"],
        ["verify", "h9.qasm", "th9.qasm", "--tol", "0.1"],
        ["verify", "ghz.qasm", "t_ghz.qasm"],
        ["verify", "--random", "5", "--arch", "qx4", "--qubits", "3", "--gates", "10", "--seed", "1"],
        ["verify", "--random", "3", "--arch", "@line.graph", "--qubits", "5", "--seed", "2"],
        ["verify", "--random", "3", "--arch", "@ladder.graph", "--qubits", "5", "--seed", "3"],
        ["bench", "circuits", "--arch", "qx2"],
        ["bench", "circuits", "--arch", "qx4", "--format", "markdown"],
        ["bench", "mixed", "--arch", "qx2"],
        ["bench", "mixed", "--arch", "qx4", "--format", "markdown", "--keep-going"],
        ["table", "dump", "--arch", "qx2"],
        ["table", "dump", "--arch", "qx4"],
        ["table", "dump", "--arch", "@line.graph"],
        ["mermin", "--xxy", "xxy_unoptimized_1024.probs", "--yyy", "yyy_unoptimized_1024.probs"],
        ["mermin", "--xxy", "xxy_unoptimized_8192.probs", "--yyy", "yyy_unoptimized_8192.probs"],
        ["mermin", "--xxy", "xxy_optimized_8192.probs", "--yyy", "yyy_optimized_8192.probs"],
        ["fidelity", "--a", "xxy_ideal.dm", "--b", "xxy_unoptimized_tomo.dm"],
        ["fidelity", "--a", "xxy_ideal.dm", "--b", "xxy_optimized_tomo.dm"],
        # Indefinite tomography first, the pure ideal second: the closed form
        # waits for a certificate that this input fails. Then both pure.
        ["fidelity", "--a", "xxy_unoptimized_tomo.dm", "--b", "xxy_ideal.dm"],
        ["fidelity", "--a", "xxy_ideal.dm", "--b", "xxy_ideal.dm"],
        # Refusals: one malformed file per parser, then usage errors.
        ["optimize", "--arch", "qx2", "--in", "gate_before_qreg.qasm"],
        ["optimize", "--arch", "qx2", "--in", "no_qreg.qasm"],
        ["simplify", "--in", "no_qreg.qasm"],
        ["verify", "ghz.qasm", "no_qreg.qasm"],
        ["optimize", "--arch", "@bad.graph", "--in", "ghz.qasm"],
        ["table", "dump", "--arch", "@bad.graph"],
        ["mermin", "--xxy", "xxy_optimized_8192.probs", "--yyy", "bad.probs"],
        ["fidelity", "--a", "xxy_ideal.dm", "--b", "bad.dm"],
        ["fidelity", "--a", "xxy_ideal.dm", "--b", "bad_entry.dm"],
        ["optimize", "--arch", "qx2", "--in", "missing.qasm"],
        ["optimize", "--arch", "qx9", "--in", "ghz.qasm"],
        ["verify", "ghz.qasm"],
        ["verify", "ghz.qasm", "ghz.qasm", "--placement", ""],
        ["verify", "ghz.qasm", "ghz.qasm", "--placement", "0,,1,2"],
        ["verify", "--random", "3"],
        ["verify", "ghz.qasm", "ghz.qasm", "--random", "2", "--arch", "qx2"],
        ["verify", "--random", "2", "--arch", "qx2", "--placement", "0,1,2"],
        ["verify", "--random", "2", "--arch", "qx2", "--strict"],
        ["verify", "ghz.qasm", "ghz.qasm", "--arch", "qx9"],
        ["verify", "ghz.qasm", "ghz.qasm", "--qubits", "3"],
        ["verify", "ghz.qasm", "ghz.qasm", "--gates", "10"],
        ["verify", "ghz.qasm", "ghz.qasm", "--seed", "1"],
        ["table"],
        ["--help"],
        [],
    ]
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): _digest(path.read_bytes())
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _populate(directory: Path) -> None:
    for path in DATA.iterdir():
        shutil.copy(path, directory / path.name)
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    for sub, extra in (("circuits", ()), ("mixed", ("no_qreg.qasm",))):
        (directory / sub).mkdir()
        for name in (*(f"{c}.qasm" for c in CIRCUITS), *extra):
            shutil.copy(directory / name, directory / sub / name)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        _populate(cwd)
        for argv in RUNS:
            before = _files(cwd)
            proc = subprocess.run(
                [sys.executable, "-m", "qxopt", *argv], cwd=cwd, env=env, capture_output=True
            )
            after = _files(cwd)
            written = [f"{name} {after[name]}" for name in after if before.get(name) != after[name]]
            fields = [
                shlex.join(["qxopt", *argv]),
                f"exit {proc.returncode}",
                f"stdout {_digest(proc.stdout)}",
                f"stderr {_digest(proc.stderr)}",
                *written,
            ]
            print(" | ".join(fields), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
