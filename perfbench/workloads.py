"""The four workloads and the measurement loop.

A run sets up once in this process and measures set-up again in fresh
probe processes, then repeats whole rounds until its time is up. A round
maps (or, in noise-sim, simplifies) every corpus circuit, runs the noise
sweep, the wide equivalence checks and the workload's CLI commands. Each
timed operation runs at least once per round and is bracketed by speed
calibration samples (see CAL_REF_S); a metric sums, over the operations,
each operation's time at the reference speed, which keeps the host's
changing speed out of the figures.

Every output is checked: mapped circuits by the reference checker, noisy
states by the properties a density matrix must have, analysis values by
independent computation and by the figures the paper publishes.
"""
from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import permutations
from pathlib import Path

import numpy as np

from qxopt import nonclassicality, peephole, placement, qasm, realization, simulator, states, topology
from qxopt import fixtures as qfixtures

import gen
import refcheck
from spans import Tracer

clock = time.perf_counter

# Depolarizing strengths at noise scale 1 (single-qubit, per qubit of a CNOT).
P1, P2 = 0.001, 0.01
SWEEP_SCALES = {"noise-sim": (0.0, 0.5, 1.0, 2.0, 5.0)}
DEFAULT_SCALES = (1.0,)

# Published figures: Mermin values of the three measured data sets and the
# tomography fidelities of the unoptimized and optimized preparations.
MERMIN_DATA = (
    ("xxy_unoptimized_1024", "yyy_unoptimized_1024", 2.855),
    ("xxy_unoptimized_8192", "yyy_unoptimized_8192", 3.009),
    ("xxy_optimized_8192", "yyy_optimized_8192", 3.126),
)
TOMOGRAPHY = (("xxy_unoptimized_tomo", 0.72), ("xxy_optimized_tomo", 0.90))

# Repeats per round of the map, sweep and re-verify stages, where one pass
# is too short to time well against the rest of the round.
REPEATS = {"fixtures-cli": (10, 10, 0), "random5": (1, 3, 0), "limit8": (1, 10, 4), "noise-sim": (10, 4, 0)}
# Set-up samples: this process's own set-up plus fresh probe processes, at
# least SETUP_SAMPLES and more while the probes have taken under 3 s.
SETUP_SAMPLES = 3
COST_SAMPLES = 3


class Workload:
    """Inputs, set-up and one round of a workload; `Run` drives it."""

    def __init__(self, name: str, seed: int, src: Path):
        self.name = name
        self.seed = seed
        self.src = src
        self.mapping = name != "noise-sim"
        self.wide_texts: list[str] = []
        self.wide: list[tuple] = []
        self.tables: dict = {}
        self.mapped: dict = {}
        self.cli_verb = "optimize"
        if name == "fixtures-cli":
            self.cases = gen.fixtures_cases(src, seed)
            self.cli_cases = [c.name for c in self.cases]
        elif name == "random5":
            self.cases = gen.random5_cases(seed)
            self.cli_cases = ["r5_20@qx2", "r5_20@qx4", "r5_100@qx2", "r5_100@qx4"]
        elif name == "limit8":
            self.cases = gen.limit8_cases(seed)
            # A limit8 `optimize` process spends seconds re-verifying the
            # table, too long to repeat; `verify` of each result is not.
            self.cli_cases = [c.name for c in self.cases]
            self.cli_verb = "verify"
        elif name == "noise-sim":
            sweep, wide = gen.noise_circuits(seed)
            self.cases = [gen.Case(f"sweep_{k}", text, "") for k, text in enumerate(sweep)]
            self.wide_texts = wide
            self.cli_cases = []
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.scales = SWEEP_SCALES.get(name, DEFAULT_SCALES)

    # ---- set-up: what setup_s times ------------------------------------

    def setup(self) -> None:
        if self.mapping:
            devices = sorted({c.device for c in self.cases})
            self.tables = {
                d: realization.build_table(topology.load(gen.DEVICES[d], name=d)) for d in devices
            }
            self.sweep_texts = list(dict.fromkeys(c.qasm for c in self.cases))
        else:
            pair = ("mermin_xxy_unopt", "mermin_xxy_opt")
            self.sweep_texts = [c.qasm for c in self.cases] + [gen.fixture_text(self.src, n) for n in pair]
        self.sweep_inputs = [qasm.parse(text) for text in self.sweep_texts]
        if self.mapping:
            return
        self.distributions = [
            (qfixtures.load_distribution(a), qfixtures.load_distribution(b)) for a, b, _ in MERMIN_DATA
        ]
        raw = qfixtures.load_raw_density_matrix("xxy_ideal")
        self.rho_ideal = nonclassicality.sanitize(raw.real, raw.imag)
        self.tomography = []
        for name, pub in TOMOGRAPHY:
            raw = qfixtures.load_raw_density_matrix(name)
            self.tomography.append((name, nonclassicality.sanitize(raw.real, raw.imag), pub))
        for text in self.wide_texts:
            c = qasm.parse(text)
            s = peephole.simplify(c)
            s_t = qasm.parse(qasm.emit(s) + "t q[0];\n")
            self.wide.append((c, s, s_t))

    # ---- one round, in this process --------------------------------------

    def map_stage(self, rec: "Recorder") -> dict:
        outputs = {}
        for case in self.cases:
            t0 = rec.start()
            c = qasm.parse(case.qasm)
            if self.mapping:
                res = placement.optimize(c, self.tables[case.device])
                mapped, place, cost = res.mapped, res.placement, res.final_cost
            else:
                mapped, place = peephole.simplify(c), tuple(range(c.num_qubits))
                cost = None
            text = qasm.emit(mapped)
            t1 = clock()
            same = simulator.equivalent(c, mapped, list(place), tol=1e-8)
            t2 = clock()
            rec.add("map", case.name, t2 - t0)
            if self.mapping:
                rec.add("verify", case.name, t2 - t1)
                self.mapped[case.name] = (c, mapped, list(place))
            outputs[case.name] = (text, tuple(place), same, cost)
        return outputs

    def reverify_stage(self, rec: "Recorder") -> list[bool]:
        """Check the last mapped circuits again: more samples of the
        `equivalent` share of map_s."""
        verdicts = []
        for name, (c, mapped, place) in self.mapped.items():
            t0 = rec.start()
            verdicts.append(simulator.equivalent(c, mapped, place, tol=1e-8))
            rec.add("verify", name, clock() - t0)
        return verdicts

    def sweep_stage(self, rec: "Recorder") -> list:
        values = []
        for k, c in enumerate(self.sweep_inputs):
            t0 = rec.start()
            psi = simulator.run_ideal(c).amplitudes
            ideal = states.DensityMatrix(np.outer(psi, psi.conj()))
            row = []
            for scale in self.scales:
                rho = simulator.run_noisy(c, states.NoiseSpec(P1 * scale, P2 * scale))
                row.append((nonclassicality.uhlmann_fidelity(rho, ideal), rho.matrix))
            rec.add("sweep", f"circuit{k}", clock() - t0)
            values.append((psi, row))
        if not self.mapping:
            t0 = rec.start()
            mermin = [nonclassicality.mermin3(a, b).m3 for a, b in self.distributions]
            fid = [nonclassicality.uhlmann_fidelity(self.rho_ideal, rho) for _, rho, _ in self.tomography]
            rec.add("sweep", "analysis", clock() - t0)
            values.append((mermin, fid))
        return values

    def wide_stage(self, rec: "Recorder") -> list:
        verdicts = []
        for k, (c, s, s_t) in enumerate(self.wide):
            t0 = rec.start()
            verdicts.append((simulator.equivalent(c, s), simulator.equivalent(c, s_t)))
            rec.add("verify", f"wide{k}", clock() - t0)
        return verdicts


# Speed calibration. The cores of the shared host switch, millisecond by
# millisecond, between a fast state and one about 1.7x slower, and the slow
# share drifts from about 0.2 to 0.9 over seconds and minutes. Raw times of
# the same code therefore spread by 30% between runs. Every timed operation
# is bracketed by calibration samples, a fixed loop of interpreter and small
# matrix work that never touches qxopt, and its time is reported at the
# reference speed: seconds x CAL_REF_S / (calibration time at that moment).
# CAL_REF_S is the loop's time on the reference machine in its fast state,
# so the figures read as that machine's seconds. A change to the program
# moves the operation's time and not the calibration's. A single pass is too
# short to catch the slow share of a long operation, so calibration runs for
# CAL_SHARE of the time measured since the last one, and at least one pass,
# whenever that is CAL_EVERY_S or more.
CAL_REF_S = 0.0053
CAL_EVERY_S = 0.05
CAL_SHARE = 0.1
_rng = np.random.default_rng(0)
_CAL_MATRIX = (_rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))) / 12


def calibration() -> float:
    """Time of one pass of the fixed calibration loop, in seconds."""
    t0 = clock()
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3
    for _ in range(8):
        _CAL_MATRIX @ _CAL_MATRIX
    return clock() - t0


def calibrate_for(seconds: float) -> float:
    """Mean time of calibration passes run for `seconds`, one pass at least."""
    end = clock() + seconds
    passes = [calibration()]
    while clock() < end:
        passes.append(calibration())
    return sum(passes) / len(passes)


class Recorder:
    """Per-operation timings of a run, keyed by stage and operation, each
    with the calibration samples taken just before and just after it."""

    def __init__(self, calibrated: bool = True) -> None:
        self.samples: dict[str, dict[str, list[tuple[float, int]]]] = {}
        self.cals: list[float] = []
        self.last_cal: float | None = None
        self.calibrated = calibrated

    def calibrate(self) -> None:
        since = CAL_EVERY_S if self.last_cal is None else clock() - self.last_cal
        self.cals.append(calibrate_for(CAL_SHARE * since))
        self.last_cal = clock()

    def start(self) -> float:
        """Calibrate if the last calibration is CAL_EVERY_S old or older,
        then return the start time of the next operation."""
        if self.calibrated and (self.last_cal is None or clock() - self.last_cal >= CAL_EVERY_S):
            self.calibrate()
        return clock()

    def add(self, stage: str, op: str, seconds: float) -> None:
        # The calibration sample after this one, when it comes, is cals[i].
        self.samples.setdefault(stage, {}).setdefault(op, []).append((seconds, len(self.cals)))

    def _speed(self, i: int) -> float:
        """Mean calibration time around the operation recorded at index i."""
        around = self.cals[max(i - 1, 0) : i + 1]
        return sum(around) / len(around)

    def op_time(self, samples: list[tuple[float, int]]) -> float:
        """An operation's time at reference speed: its total time over the
        total calibration time around it, times CAL_REF_S."""
        return CAL_REF_S * sum(s for s, _ in samples) / sum(self._speed(i) for _, i in samples)

    def total(self, stage: str) -> float:
        """Sum over the stage's operations of each one's time at reference speed."""
        return sum(self.op_time(v) for v in self.samples.get(stage, {}).values())

    def per_op(self, stage: str) -> list[float]:
        return [self.op_time(v) for v in self.samples.get(stage, {}).values()]


def timed_setup(w: Workload) -> float:
    """Run the workload's set-up; its time at reference speed."""
    calibration()  # warm-up: the first pass in a process is slower
    before = calibrate_for(CAL_EVERY_S)
    t0 = clock()
    w.setup()
    seconds = clock() - t0
    after = calibrate_for(max(CAL_EVERY_S, CAL_SHARE * seconds))
    return CAL_REF_S * seconds / ((before + after) / 2)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, root: Path):
        self.root = root
        self.src = root / "src"
        self.w = Workload(workload, seed, self.src)
        self.seconds = seconds
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.out_dir = root / ".perfbench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=self.out_dir))
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    # ---- checks ------------------------------------------------------------

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def check_tables(self) -> None:
        for device, table in self.w.tables.items():
            text = gen.DEVICES[device]
            n = refcheck.parse_device(text)[0]
            if len(table.entries) != n * (n - 1):
                self.problem(f"{device}: table has {len(table.entries)} entries, expected {n * (n - 1)}")
            for (control, target), entry in sorted(table.entries.items()):
                seq = [(g.kind.value, g.qubits) for g in entry.sequence.gates]
                for p in refcheck.check_entry(control, target, seq, entry.total_gates, text, self.seed):
                    self.problem(f"{device}: {p}")

    def check_map_outputs(self, outputs: dict) -> None:
        rng = random.Random(self.seed)
        for case in self.w.cases:
            text, place, same, cost = outputs[case.name]
            if not same:
                self.problem(f"{case.name}: the program's equivalent() rejects its own output")
            if not self.w.mapping:
                if not refcheck.equal_circuits(case.qasm, text, self.seed):
                    self.problem(f"{case.name}: simplified circuit differs from its input")
                continue
            gates, levels = cost.gates, cost.levels
            device = gen.DEVICES[case.device]
            for p in refcheck.check_mapping(case.qasm, text, place, device, gates, levels, self.seed):
                self.problem(f"{case.name}: {p}")
            circuit = qasm.parse(case.qasm)
            table = self.w.tables[case.device]
            pool = list(permutations(range(table.graph.num_physical), circuit.num_qubits))
            for other in rng.sample(pool, COST_SAMPLES):
                bound = placement.cost_of(circuit, other, table).gates
                if gates > bound:
                    self.problem(f"{case.name}: {gates} gates, but placement {other} gives {bound}")

    @staticmethod
    def _levels(circuit) -> int:
        return refcheck.depth([(g.kind.value, g.qubits) for g in circuit.gates])

    def check_sweep(self, values: list) -> None:
        mapping = self.w.mapping
        for k, ((psi, row), text) in enumerate(zip(values, self.w.sweep_texts)):
            ref = refcheck.ideal_state(text)
            if abs(abs(np.vdot(ref, psi)) - 1.0) > 1e-9:
                self.problem(f"sweep circuit {k}: run_ideal differs from the reference state")
            for scale, (fid, rho) in zip(self.w.scales, row):
                herm = float(np.max(np.abs(rho - rho.conj().T)))
                trace = float(np.trace(rho).real)
                low = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
                if herm > 1e-10 or abs(trace - 1.0) > 1e-10 or low < -1e-9:
                    self.problem(f"sweep circuit {k} scale {scale}: not a density matrix")
                expected = float(np.sqrt(max(np.vdot(ref, rho @ ref).real, 0.0)))
                if abs(fid - expected) > 1e-6:
                    self.problem(f"sweep circuit {k} scale {scale}: fidelity {fid} != {expected}")
                if scale == 0.0 and abs(fid - 1.0) > 1e-6:
                    self.problem(f"sweep circuit {k}: fidelity {fid} at zero noise")
        if mapping:
            return
        long_row, short_row = values[-3][1], values[-2][1]
        for scale, (f12, _), (f4, _) in zip(self.w.scales, long_row, short_row):
            if scale > 0 and not f4 > f12:
                self.problem(f"scale {scale}: 4-gate fidelity {f4} does not beat 12-gate {f12}")
        mermin, fid = values[-1]
        data = self.src / "qxopt" / "data"
        for m3, (a, b, pub) in zip(mermin, MERMIN_DATA):
            independent = 3 * _parity(data / f"{a}.probs") - _parity(data / f"{b}.probs")
            if abs(m3 - independent) > 1e-9 or abs(m3 - pub) > 5e-4:
                self.problem(f"Mermin value {m3} (independent {independent}, published {pub})")
        weights, vectors = np.linalg.eigh(self.w.rho_ideal.matrix)
        if abs(weights[-1] - 1.0) > 1e-6:
            self.problem(f"ideal tomography state is not pure: top eigenvalue {weights[-1]}")
        top = vectors[:, -1]
        for f, (name, rho, pub) in zip(fid, self.w.tomography):
            # For a pure ideal state |v>, F = sqrt(<v|rho|v>).
            independent = float(np.sqrt(max(np.vdot(top, rho.matrix @ top).real, 0.0)))
            if abs(f - independent) > 1e-6 or abs(f - pub) > 5e-3:
                self.problem(f"{name}: fidelity {f} (independent {independent}, published {pub})")

    def check_wide(self, verdicts: list) -> None:
        for k, ((same, same_t), (c, s, s_t)) in enumerate(zip(verdicts, self.w.wide)):
            text = self.w.wide_texts[k]
            ref = refcheck.equal_circuits(text, qasm.emit(s), self.seed)
            ref_t = refcheck.equal_circuits(text, qasm.emit(s_t), self.seed)
            if (same, same_t, ref, ref_t) != (True, False, True, False):
                self.problem(f"wide pair {k}: verdicts {same}/{same_t}, reference {ref}/{ref_t}")

    # ---- subprocesses --------------------------------------------------------

    def _commands(self, outputs: dict) -> dict[str, list[str]]:
        """Write each CLI case, its device and (for verify) the library's
        mapped circuit to disk; argv per case."""
        for device, text in gen.DEVICES.items():
            (self.tmp / f"{device}.txt").write_text(text, encoding="utf-8")
        commands = {}
        by_name = {c.name: c for c in self.w.cases}
        for k, name in enumerate(self.w.cli_cases):
            case = by_name[name]
            src = self.tmp / f"in{k}.qasm"
            src.write_text(case.qasm, encoding="utf-8")
            if self.w.cli_verb == "optimize":
                commands[name] = [
                    "optimize", "--arch", f"@{self.tmp / (case.device + '.txt')}",
                    "--in", str(src), "--out", str(self.tmp / f"out{k}.qasm"), "--report", "json",
                ]
            elif name in outputs:
                text, place = outputs[name][:2]
                mapped = self.tmp / f"mapped{k}.qasm"
                mapped.write_text(text, encoding="utf-8")
                placement_arg = ",".join(str(p) for p in place)
                commands[name] = ["verify", str(src), str(mapped), "--placement", placement_arg]
        if not self.w.mapping:
            data = self.src / "qxopt" / "data"
            for a, b, _ in MERMIN_DATA:
                commands[f"mermin:{a}"] = ["mermin", "--xxy", str(data / f"{a}.probs"), "--yyy", str(data / f"{b}.probs")]
            for name, _ in TOMOGRAPHY:
                commands[f"fidelity:{name}"] = [
                    "fidelity", "--a", str(data / "xxy_ideal.dm"), "--b", str(data / f"{name}.dm"),
                ]
        return commands

    def _python(self, args: list[str], timeout: float = 120) -> tuple[float, subprocess.CompletedProcess]:
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, *args], env=self.env, cwd=self.root,
            capture_output=True, text=True, timeout=timeout,
        )
        return clock() - t0, proc

    def cli_stage(self, rec: Recorder, commands: dict, reference: dict) -> None:
        for name, argv in commands.items():
            self.attempted += 1
            rec.start()
            seconds, proc = self._python(["-m", "qxopt", *argv])
            if proc.returncode != 0:
                self.failed += 1
                self.problem(f"cli {name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
                continue
            rec.add("cli", name, seconds)
            if argv[0] == "mermin":
                value = float(proc.stdout.split("m3 =")[1].split()[0])
                published = {a: pub for a, _, pub in MERMIN_DATA}[name.split(":", 1)[1]]
                if abs(value - published) > 5e-4:
                    self.problem(f"cli {name} prints {value}, published {published}")
            elif argv[0] == "fidelity":
                value = float(proc.stdout.split("fidelity =")[1].split()[0])
                published = dict(TOMOGRAPHY)[name.split(":", 1)[1]]
                if abs(value - published) > 5e-3:
                    self.problem(f"cli {name} prints {value}, published {published}")
            elif argv[0] == "verify":
                if proc.stdout.strip() != "equivalent":
                    self.problem(f"cli {name}: verify prints {proc.stdout.strip()!r}")
            else:
                report = json.loads(proc.stdout)
                text = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
                want = reference.get(name)
                if want is None or (text, tuple(report["placement"])) != want[:2]:
                    self.problem(f"cli {name}: output differs from the library call")

    def probe_setup(self) -> float:
        """Set-up time, at reference speed, of a fresh process."""
        seconds, proc = self._python(
            [str(Path(__file__).with_name("run.py")), "--setup-probe",
             "--workload", self.w.name, "--seed", str(self.seed)]
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    # ---- the run -------------------------------------------------------------

    def inprocess_round(self, rec: Recorder) -> tuple:
        maps, sweeps, verifies = REPEATS.get(self.w.name, (1, 1, 0))
        ops = (maps + verifies) * len(self.w.cases)
        ops += sweeps * (len(self.w.sweep_inputs) + (0 if self.w.mapping else 1))
        ops += 2 * len(self.w.wide_texts)
        self.attempted += ops
        try:
            outputs = [self.w.map_stage(rec) for _ in range(maps)]
            values = [self.w.sweep_stage(rec) for _ in range(sweeps)]
            verdicts = self.w.wide_stage(rec)
            for _ in range(verifies):
                if not all(self.w.reverify_stage(rec)):
                    self.problem("equivalent() rejects a mapped circuit it accepted before")
        except (ValueError, KeyError, AssertionError) as exc:
            self.failed += ops
            self.problem(f"round failed: {exc!r}")
            return None
        return outputs, values, verdicts

    def check_round(self, result: tuple | None, first: tuple | None) -> None:
        """Check the first round's outputs; later ones must repeat them."""
        if result is None:
            return
        outputs, values, verdicts = result
        if first is None:
            self.check_map_outputs(outputs[0])
            self.check_wide(verdicts)
            first = result
        if any(out != first[0][0] for out in outputs) or verdicts != first[2]:
            self.problem("a repeated operation produced different outputs")
        for v in values:
            self.check_sweep(v)

    def setup_in_process(self) -> float:
        self.attempted += 1
        seconds = timed_setup(self.w)
        self.check_tables()
        return seconds

    def measure(self) -> dict:
        setup = [self.setup_in_process()]
        t0 = clock()
        while len(setup) < SETUP_SAMPLES or (len(setup) < 2 * SETUP_SAMPLES + 1 and clock() - t0 < 3.0):
            self.attempted += 1
            setup.append(self.probe_setup())
        problems = refcheck.self_test()
        for p in problems:
            self.problem(f"reference checker self-test: {p}")
        rec = Recorder()
        commands = None
        first = None
        start = clock()
        while self.rounds < 2 or clock() - start < self.seconds:
            result = self.inprocess_round(rec)
            self.check_round(result, first)
            first = first or result
            reference = first[0][0] if first else {}
            commands = commands or self._commands(reference)
            self.cli_stage(rec, commands, reference)
            self.rounds += 1
        outputs = first[0][0] if first else {}
        mapped = [qasm.parse(out[0]) for out in outputs.values()]
        rec.calibrate()
        cli = rec.per_op("cli")
        return {
            "setup_s": statistics.median(setup),
            "map_s": rec.total("map"),
            "cli_p50_s": statistics.median(cli) if cli else 0.0,
            "mapped_gates": sum(len(c.gates) for c in mapped),
            "mapped_levels": sum(self._levels(c) for c in mapped),
            "sweep_s": rec.total("sweep"),
            "wide_verify_s": rec.total("verify"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def measure_traced(self) -> dict:
        tracer = Tracer()
        tracer.install()
        mark = tracer.mark()
        self.setup_in_process()
        setup_layers = tracer.layer_totals(mark)
        tracer.uninstall()
        layers: dict[str, list[float]] = {}
        walls = {"traced": [], "plain": []}
        first = None
        start = clock()
        while self.rounds < 2 or clock() - start < self.seconds:
            traced = self.rounds % 2 == 1
            if traced:
                tracer.install()
            mark = tracer.mark()
            t0 = clock()
            result = self.inprocess_round(Recorder(calibrated=False))
            walls["traced" if traced else "plain"].append(clock() - t0)
            if traced:
                tracer.uninstall()
                for key, value in tracer.layer_totals(mark).items():
                    layers.setdefault(key, []).append(value)
            self.check_round(result, first)
            first = first or result
            self.rounds += 1
        interpreter = min(self._python(["-c", "pass"])[0] for _ in range(5))
        imported = min(self._python(["-c", "import qxopt.cli"])[0] for _ in range(5))
        self.attempted += 10
        metrics = {key: min(values) for key, values in layers.items()}
        for key in ("realization.build_s", "realization.verify_s", "realization.construct_s", "realization.entries"):
            metrics[key] = setup_layers.get(key, 0.0)
        metrics["cli.interpreter_s"] = interpreter
        metrics["cli.import_s"] = imported - interpreter
        metrics["trace.overhead_s"] = min(walls["traced"]) - min(walls["plain"])
        tracer.write(
            self.out_dir / f"trace-{self.w.name}-seed{self.seed}.json",
            {"workload": self.w.name, "seed": self.seed, "layers": metrics},
        )
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _parity(path: Path) -> float:
    """Parity expectation read straight from a `bitstring probability` file."""
    total = 0.0
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("#", 1)[0].split()
        if len(fields) == 2:
            total += float(fields[1]) * (-1) ** fields[0].count("1")
    return total

