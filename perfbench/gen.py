"""Seeded input generator.

Everything the program under test receives is made here as text: OpenQASM 2
circuits and coupling-file descriptions of the devices. The same workload
and seed always give the same texts.

The circuits of each workload are drawn once from a fixed generator seed
(BASE_SEED); the run's seed then relabels the logical qubits of every
circuit with its own seeded permutation. Relabeling changes every input
text, the winning placements and the order in which the search meets them,
but exhaustive placement, peephole simplification and dense simulation do
the same amount of work on a relabeled circuit and reach the same gate and
level counts. So the run seed moves no metric except through the program,
and two seeds compare like with like.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

SINGLE_QUBIT_GATES = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")

# Device texts in the program's coupling-file format ("qubits N", then one
# directed "control target" pair per line). qx2 and qx4 list the directed
# couplings of the two 5-qubit QX processors; ladder8 is a 2x4 ladder
# (top row 0-3, bottom row 4-7) whose rails and rungs alternate direction.
DEVICES = {
    "qx2": "qubits 5\n0 1\n0 2\n1 2\n3 2\n4 2\n4 3\n",
    "qx4": "qubits 5\n1 0\n2 0\n2 1\n2 4\n3 2\n3 4\n",
    "ladder8": (
        "qubits 8\n"
        "# rails\n0 1\n2 1\n2 3\n4 5\n6 5\n6 7\n"
        "# rungs\n0 4\n5 1\n2 6\n7 3\n"
    ),
}

BASE_SEED = 2018

FIXTURES = (
    "routing_example",
    "ghz",
    "mermin_xxy_unopt",
    "mermin_xxy_opt",
    "mermin_yyy_unopt",
    "mermin_yyy_opt",
)


@dataclass(frozen=True)
class Case:
    """One circuit to map: a name, its QASM text and the device it targets."""

    name: str
    qasm: str
    device: str


def random_qasm(rng: random.Random, num_qubits: int, num_gates: int, num_cnots: int) -> str:
    """Clifford+T circuit with exactly `num_cnots` CNOTs among `num_gates` gates."""
    kinds = ["cx"] * num_cnots + [
        rng.choice(SINGLE_QUBIT_GATES) for _ in range(num_gates - num_cnots)
    ]
    rng.shuffle(kinds)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    for kind in kinds:
        if kind == "cx":
            control, target = rng.sample(range(num_qubits), 2)
            lines.append(f"cx q[{control}],q[{target}];")
        else:
            lines.append(f"{kind} q[{rng.randrange(num_qubits)}];")
    return "\n".join(lines) + "\n"


_QUBIT = re.compile(r"\bq\[(\d+)\]")


def relabel_qasm(text: str, perm: list[int]) -> str:
    """Rename qubit q[i] to q[perm[i]] in every statement but the declarations."""
    lines = []
    for line in text.splitlines():
        if not line.lstrip().startswith(("qreg", "creg")):
            line = _QUBIT.sub(lambda m: f"q[{perm[int(m.group(1))]}]", line)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _width(text: str) -> int:
    return int(re.search(r"qreg\s+q\[(\d+)\]", text).group(1))


def relabeled(texts: list[str], workload: str, seed: int) -> list[str]:
    """Each text with its logical qubits permuted; one permutation per text."""
    out = []
    for k, text in enumerate(texts):
        perm = list(range(_width(text)))
        random.Random(f"{workload}:{seed}:{k}").shuffle(perm)
        out.append(relabel_qasm(text, perm))
    return out


def fixture_text(src: Path, name: str) -> str:
    return (src / "qxopt" / "data" / f"{name}.qasm").read_text(encoding="utf-8")


def fixtures_cases(src: Path, seed: int) -> list[Case]:
    """The six bundled fixture circuits, relabeled, on qx2 and on qx4."""
    texts = relabeled([fixture_text(src, n) for n in FIXTURES], "fixtures-cli", seed)
    return [
        Case(f"{name}@{arch}", text, arch)
        for arch in ("qx2", "qx4")
        for name, text in zip(FIXTURES, texts)
    ]


def random5_cases(seed: int) -> list[Case]:
    """5-qubit circuits of 20, 100 and 400 gates (a quarter of them CNOTs),
    each on qx2 and on qx4."""
    rng = random.Random(f"random5:{BASE_SEED}")
    sizes = (20, 100, 400)
    base = [random_qasm(rng, 5, size, size // 4) for size in sizes]
    return [
        Case(f"r5_{size}@{arch}", text, arch)
        for size, text in zip(sizes, relabeled(base, "random5", seed))
        for arch in ("qx2", "qx4")
    ]


# (logical qubits, gates, CNOTs) of the limit8 circuits: 6,720 and 20,160
# placements on the 8-qubit ladder.
LIMIT8_SHAPES = ((5, 20, 4), (6, 20, 3))


def limit8_cases(seed: int) -> list[Case]:
    """The LIMIT8_SHAPES circuits on the 8-qubit ladder."""
    rng = random.Random(f"limit8:{BASE_SEED}")
    base = [random_qasm(rng, n, gates, cnots) for n, gates, cnots in LIMIT8_SHAPES]
    return [
        Case(f"l8_{shape[0]}q_{k}@ladder8", text, "ladder8")
        for k, (shape, text) in enumerate(zip(LIMIT8_SHAPES, relabeled(base, "limit8", seed)))
    ]


def noise_circuits(seed: int) -> tuple[list[str], list[str]]:
    """Seeded circuits for noise-sim: two 6-qubit circuits for the noise
    sweep (the density-matrix cap) and one 9-qubit circuit whose simplified
    form makes a wide equivalence pair."""
    rng = random.Random(f"noise-sim:{BASE_SEED}")
    base = [random_qasm(rng, 6, 30, 8) for _ in range(2)] + [random_qasm(rng, 9, 30, 8)]
    texts = relabeled(base, "noise-sim", seed)
    return texts[:2], texts[2:]
