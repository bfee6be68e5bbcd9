import argparse
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import qxopt.circuit
import qxopt.cli
import qxopt.pathsum
import qxopt.peephole
import qxopt.placement
import qxopt.realization
import qxopt.topology
from qxopt.bench import bench_directory, bench_file, render_csv, render_markdown
from qxopt.circuit import Circuit, GateKind, cnot, gate1, random_circuit
from qxopt.cli import main
from qxopt.fixtures import data_text
from qxopt.placement import MappingResult, optimize
from qxopt.qasm import emit, parse
from qxopt.realization import build_table
from qxopt.topology import load

ROUTING = data_text("routing_example.qasm")


@pytest.fixture()
def routing_file(tmp_path):
    path = tmp_path / "routing_example.qasm"
    path.write_text(ROUTING)
    return path


def test_unknown_flag_exits_one(capsys):
    assert main(["optimize", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_no_subcommand_prints_help_and_exits_one(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [["--help"], []])
def test_help_shows_usage_not_implementation_notes(argv, capsys):
    main(argv)
    out = " ".join(capsys.readouterr().out.split())
    assert "Exit codes: 0 success, 1 usage error, 2 verification failure." in out
    assert "RealizationError" not in out


def test_optimize_json_report(routing_file, tmp_path, capsys):
    out = tmp_path / "mapped.qasm"
    code = main(
        ["optimize", "--arch", "qx2", "--in", str(routing_file), "--out", str(out), "--report", "json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["placement"] == [0, 1, 2]
    assert report["final"] == {"gates": 2, "levels": 2}
    assert report["verified"] is True
    mapped = parse(out.read_text())
    assert mapped.num_qubits == 5


def test_optimize_csv_report(routing_file, capsys):
    assert main(["optimize", "--arch", "qx4", "--in", str(routing_file), "--report", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("input,arch,placement")
    assert lines[0].endswith(",verified")
    assert lines[1].endswith(",true")
    assert len(lines) == 2


OPTIMIZE_JSON_QX2 = """{
  "input": "%s",
  "arch": "qx2",
  "placement": [
    0,
    1,
    2
  ],
  "initial": {
    "gates": 2,
    "levels": 2
  },
  "final": {
    "gates": 2,
    "levels": 2
  },
  "reduction_pct": {
    "gates": 0,
    "levels": 0
  },
  "verified": true
}
"""

OPTIMIZE_CSV_QX2 = (
    "input,arch,placement,gates_in,levels_in,gates_out,levels_out,gates_pct,levels_pct,verified\n"
    "%s,qx2,0|1|2,2,2,2,2,0,0,true\n"
)


@pytest.mark.parametrize("fmt,expected", [("json", OPTIMIZE_JSON_QX2), ("csv", OPTIMIZE_CSV_QX2)])
def test_optimize_report_stdout_pinned(fmt, expected, routing_file, capsys):
    assert main(["optimize", "--arch", "qx2", "--in", str(routing_file), "--report", fmt]) == 0
    assert capsys.readouterr().out == expected % routing_file


def test_optimize_refuses_to_emit_unverified_result(routing_file, tmp_path, monkeypatch, capsys):
    def corrupted(circuit, table):
        result = optimize(circuit, table)
        extra = gate1(GateKind.X, result.placement[0])
        mapped = Circuit(result.mapped.num_qubits, result.mapped.gates + (extra,))
        return MappingResult(
            placement=result.placement,
            mapped=mapped,
            initial_cost=result.initial_cost,
            final_cost=result.final_cost,
            reduction_pct=result.reduction_pct,
        )

    monkeypatch.setattr(qxopt.placement, "optimize", corrupted)
    out = tmp_path / "mapped.qasm"
    assert main(["optimize", "--arch", "qx2", "--in", str(routing_file), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "not equivalent" in captured.err
    assert captured.err == (
        f"error: {routing_file}: mapped circuit is not equivalent to the input "
        "under placement [0, 1, 2]; nothing written\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_optimize_with_coupling_file(routing_file, tmp_path, capsys):
    arch = tmp_path / "line.graph"
    arch.write_text("qubits 3\n0 1\n1 2\n")
    assert main(["optimize", "--arch", f"@{arch}", "--in", str(routing_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["arch"] == "line"
    assert report["final"]["gates"] == 2


def test_optimize_missing_file_exits_one(capsys):
    assert main(["optimize", "--arch", "qx2", "--in", "/nonexistent.qasm"]) == 1


def test_optimize_unknown_arch_exits_one(capsys):
    assert main(["optimize", "--arch", "qx9", "--in", "x.qasm"]) == 1
    assert "qx9" in capsys.readouterr().err


def test_simplify_command(tmp_path, capsys):
    src = tmp_path / "c.qasm"
    src.write_text("qreg q[1];\nh q[0];\nh q[0];\nt q[0];\n")
    out = tmp_path / "out.qasm"
    assert main(["simplify", "--in", str(src), "--out", str(out), "--trace"]) == 0
    assert "cancel-hh" in capsys.readouterr().out
    assert parse(out.read_text()).gates == parse("qreg q[1]; t q[0];").gates


@pytest.mark.parametrize("flags", [[], ["--trace"]], ids=["plain", "trace"])
def test_simplify_refuses_to_emit_unverified_result(flags, routing_file, tmp_path, monkeypatch, capsys):
    simplify = qxopt.peephole.simplify

    def dropping(circuit, trace=None):
        out = simplify(circuit, trace)
        return Circuit(out.num_qubits, out.gates[:-1])

    monkeypatch.setattr(qxopt.peephole, "simplify", dropping)
    out = tmp_path / "out.qasm"
    assert main(["simplify", "--in", str(routing_file), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert "not equivalent" in captured.err
    assert captured.err == (
        f"error: {routing_file}: simplified circuit is not equivalent to the input; "
        "nothing written\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_simplify_marks_output_no_checker_decides_as_unverified(tmp_path, monkeypatch, capsys):
    # Eleven qubits is past the dense cap, and the path sum is made to give up.
    monkeypatch.setattr(qxopt.pathsum, "proves_equal", lambda *args: False)
    src = tmp_path / "wide.qasm"
    src.write_text("qreg q[11];\nh q[10];\nh q[10];\nt q[0];\n")
    out = tmp_path / "out.qasm"
    assert main(["simplify", "--in", str(src), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "unverified" in err and "dense-simulation cap" in err
    assert parse(out.read_text()).gates == (gate1(GateKind.T, 0),)


def test_verify_reflexive_through_pipeline(routing_file, tmp_path, capsys):
    mapped = tmp_path / "mapped.qasm"
    assert main(["optimize", "--arch", "qx2", "--in", str(routing_file), "--out", str(mapped)]) == 0
    report = json.loads(capsys.readouterr().out)
    placement = ",".join(str(p) for p in report["placement"])
    code = main(["verify", str(routing_file), str(mapped), "--placement", placement])
    assert code == 0
    assert "equivalent" in capsys.readouterr().out


def test_verify_detects_mismatch(tmp_path, capsys):
    a = tmp_path / "a.qasm"
    b = tmp_path / "b.qasm"
    a.write_text("qreg q[1]; h q[0];")
    b.write_text("qreg q[1]; x q[0];")
    assert main(["verify", str(a), str(b)]) == 2
    assert "NOT equivalent" in capsys.readouterr().out


def test_verify_random_self_check(capsys):
    code = main(
        ["verify", "--random", "5", "--arch", "qx4", "--qubits", "3", "--gates", "10", "--seed", "1"]
    )
    assert code == 0
    assert "5/5" in capsys.readouterr().out


def test_verify_random_failure_prints_reproducer(qx4_table, monkeypatch, capsys):
    monkeypatch.setattr(qxopt.placement, "equivalent", lambda *args, **kwargs: False)
    code = main(
        ["verify", "--random", "2", "--arch", "qx4", "--qubits", "3", "--gates", "6", "--seed", "7"]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "0/2 random circuits verified" in out
    first = out.split("case 1:")[0]
    assert first.startswith("case 0: FAIL (seed 7, placement ")
    expected = random_circuit(3, 6, random.Random(7))
    assert parse(first.split("input circuit:\n", 1)[1]) == expected
    placement = [int(p) for p in first.split("placement ")[1].split(")")[0].split(",")]
    assert placement == list(optimize(expected, qx4_table).placement)


def test_verify_needs_two_files(capsys):
    assert main(["verify", "one.qasm"]) == 1


def test_verify_random_needs_arch(capsys):
    assert main(["verify", "--random", "3"]) == 1
    assert capsys.readouterr().err == "error: --random requires --arch\n"


@pytest.mark.parametrize(
    "extra,message",
    [
        (["a.qasm", "b.qasm"], "error: --random takes no circuit files, got a.qasm b.qasm\n"),
        (["--placement", "0,1"], "error: --random takes no --placement\n"),
    ],
    ids=["circuit-files", "placement"],
)
def test_verify_random_refuses_arguments_it_would_ignore(extra, message, capsys):
    # Checking random circuits instead of the pair asked about would answer
    # another question; the files need not exist to be refused.
    assert main(["verify", *extra, "--random", "2", "--arch", "qx2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_verify_random_refuses_strict(capsys):
    # The random circuits are generated, never parsed, so --strict would
    # check nothing.
    assert main(["verify", "--random", "2", "--arch", "qx2", "--strict"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --random takes no --strict\n"
    assert captured.out == ""


def test_two_file_verify_refuses_arch(capsys):
    # A two-file check reads no device; the files need not exist to be refused.
    assert main(["verify", "a.qasm", "b.qasm", "--arch", "qx9"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: verify without --random takes no --arch\n"
    assert captured.out == ""


@pytest.mark.parametrize("option,value", [("--qubits", "3"), ("--gates", "10"), ("--seed", "1")])
def test_two_file_verify_refuses_random_only_options(option, value, capsys):
    # Only --random generates circuits, so a two-file check would drop these.
    assert main(["verify", "a.qasm", "b.qasm", option, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: verify without --random takes no {option}\n"
    assert captured.out == ""


def test_verify_random_defaults_to_four_qubits_twenty_gates_seed_zero(monkeypatch, capsys):
    made = []
    real = qxopt.circuit.random_circuit

    def recording(num_qubits, num_gates, rng):
        made.append(real(num_qubits, num_gates, rng))
        return made[-1]

    monkeypatch.setattr(qxopt.circuit, "random_circuit", recording)
    assert main(["verify", "--random", "2", "--arch", "qx4"]) == 0
    rng = random.Random(0)
    assert made == [real(4, 20, rng) for _ in range(2)]


_BEFORE_QREG = "line 1, column 1: gate statement before qreg declaration"


@pytest.mark.parametrize(
    "argv,content,message",
    [
        (["verify", "{good}", "{bad}"], b"h q[0];\n", _BEFORE_QREG),
        (["optimize", "--arch", "qx2", "--in", "{bad}"], b"h q[0];\n", _BEFORE_QREG),
        (
            ["optimize", "--arch", "@{bad}", "--in", "{good}"],
            b"h q[0];\n",
            "line 1: expected 'qubits N' header",
        ),
        (
            ["mermin", "--xxy", "{bad}", "--yyy", "{bad}"],
            b"\xff",
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    ],
    ids=["verify-second", "optimize", "coupling-file", "undecodable"],
)
def test_refusal_names_the_file_it_parses(argv, content, message, routing_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    assert main([a.format(good=routing_file, bad=bad) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {message}\n"
    assert captured.out == ""


def test_mermin_command(tmp_path, capsys):
    # The paper's three Mermin values, unoptimized at 1024 and 8192 shots and
    # optimized at 8192, pinned byte for byte.
    published = (
        ("unoptimized_1024", "2.855", "0.855"),
        ("unoptimized_8192", "3.009", "1.009"),
        ("optimized_8192", "3.126", "1.126"),
    )
    for shots, m3, violation in published:
        xxy = tmp_path / "xxy.probs"
        yyy = tmp_path / "yyy.probs"
        xxy.write_text(data_text(f"xxy_{shots}.probs"))
        yyy.write_text(data_text(f"yyy_{shots}.probs"))
        assert main(["mermin", "--xxy", str(xxy), "--yyy", str(yyy)]) == 0
        assert capsys.readouterr().out == (
            f"m3 = {m3}\nviolation = {violation}\nclassical bound = 2\nquantum bound = 4\n"
        )


def test_fidelity_command(tmp_path, capsys):
    a = tmp_path / "a.dm"
    b = tmp_path / "b.dm"
    a.write_text(data_text("xxy_ideal.dm"))
    for tomography, fidelity in (("unoptimized", "0.7183"), ("optimized", "0.8955")):
        b.write_text(data_text(f"xxy_{tomography}_tomo.dm"))
        assert main(["fidelity", "--a", str(a), "--b", str(b)]) == 0
        assert capsys.readouterr().out == f"fidelity = {fidelity}\n"


@pytest.mark.parametrize(
    "command,flag,text,position",
    [
        ("mermin", "--xxy", "000 0.5\n111 x\n", "line 2"),
        ("mermin", "--yyy", "000 0.5\n111 x\n", "line 2"),
        ("fidelity", "--a", "dm 1\n1 y\n", "line 2: entry 0"),
        ("fidelity", "--b", "dm -1\n", "malformed 'dm N' header"),
        ("fidelity", "--a", "dm 1 3\n1 0\n", "malformed 'dm N' header 'dm 1 3'"),
        ("fidelity", "--a", "dm 2\ninf 0\n0 0\n0 0\n1 0\n", "line 2: entry 0: 'inf 0' is not finite"),
        ("fidelity", "--b", "dm 2\n1 0\n0 0\n0 0\n0 nan\n", "line 5: entry 3: '0 nan' is not finite"),
        ("fidelity", "--b", "# tomo\ndm 1\n\nnan 0\n", "line 4: entry 0: 'nan 0' is not finite"),
    ],
)
def test_analysis_commands_report_bad_value_position(
    command, flag, text, position, tmp_path, capsys
):
    good = {
        "--xxy": data_text("xxy_optimized_8192.probs"),
        "--yyy": data_text("yyy_optimized_8192.probs"),
        "--a": data_text("xxy_ideal.dm"),
        "--b": data_text("xxy_optimized_tomo.dm"),
    }
    flags = ("--xxy", "--yyy") if command == "mermin" else ("--a", "--b")
    argv = [command]
    for f in flags:
        path = tmp_path / f.strip("-")
        path.write_text(text if f == flag else good[f])
        argv += [f, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / flag.strip('-')}: ")
    assert position in err


def test_table_dump(capsys):
    assert main(["table", "dump", "--arch", "qx4"]) == 0
    out = capsys.readouterr().out
    assert out.count("cnot q[") == 20
    assert "gates=1" in out


def test_table_without_action_exits_one():
    assert main(["table"]) == 1


def _write_bench_dir(tmp_path):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "routing_example.qasm").write_text(ROUTING)
    (d / "pair.qasm").write_text(emit(Circuit(2, (cnot(0, 1), cnot(0, 1)))))
    return d


def test_bench_csv_output(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    assert main(["bench", str(d), "--arch", "qx2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("name,qubits,gates_in")
    assert len(lines) == 3
    # Sorted by descending gate reduction: the canceling pair tops the list.
    assert lines[1].startswith("pair,")
    assert lines[1].endswith("true")


def test_bench_markdown_output(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    assert main(["bench", str(d), "--arch", "qx4", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Name |")
    assert "| yes |" in out


BENCH_CSV_QX2 = (
    "name,qubits,gates_in,levels_in,gates_out,levels_out,gates_pct,levels_pct,verified\n"
    "pair,2,2,2,0,0,100,100,true\n"
    "routing_example,3,2,2,2,2,0,0,true\n"
)

BENCH_MARKDOWN_QX4 = (
    "| Name | Qubits | Initial gates | Initial levels | Final gates | Final levels "
    "| % gates | % levels | Verified |\n"
    "|---|---|---|---|---|---|---|---|---|\n"
    "| pair | 2 | 2 | 2 | 0 | 0 | 100 | 100 | yes |\n"
    "| routing_example | 3 | 2 | 2 | 2 | 2 | 0 | 0 | yes |\n"
)


# The paper's fixture cost table: the bundled circuits on each device.
FIXTURES_MARKDOWN_QX2 = (
    "| Name | Qubits | Initial gates | Initial levels | Final gates | Final levels "
    "| % gates | % levels | Verified |\n"
    "|---|---|---|---|---|---|---|---|---|\n"
    "| mermin_yyy_unopt | 3 | 14 | 8 | 9 | 5 | 36 | 38 | yes |\n"
    "| mermin_xxy_unopt | 3 | 12 | 7 | 8 | 5 | 33 | 29 | yes |\n"
    "| mermin_yyy_opt | 3 | 10 | 6 | 8 | 5 | 20 | 17 | yes |\n"
    "| ghz | 3 | 3 | 3 | 3 | 3 | 0 | 0 | yes |\n"
    "| mermin_xxy_opt | 3 | 4 | 3 | 4 | 3 | 0 | 0 | yes |\n"
    "| routing_example | 3 | 2 | 2 | 2 | 2 | 0 | 0 | yes |\n"
)

FIXTURES_CSV_QX4 = (
    "name,qubits,gates_in,levels_in,gates_out,levels_out,gates_pct,levels_pct,verified\n"
    "mermin_yyy_unopt,3,14,8,9,5,36,38,true\n"
    "mermin_xxy_unopt,3,12,7,8,5,33,29,true\n"
    "mermin_yyy_opt,3,10,6,8,5,20,17,true\n"
    "ghz,3,3,3,3,3,0,0,true\n"
    "mermin_xxy_opt,3,4,3,4,3,0,0,true\n"
    "routing_example,3,2,2,2,2,0,0,true\n"
)

FIXTURE_DIR = Path(qxopt.__file__).with_name("data")


@pytest.mark.parametrize(
    "arch,fmt,expected",
    [
        ("qx2", "csv", BENCH_CSV_QX2),
        ("qx4", "markdown", BENCH_MARKDOWN_QX4),
        pytest.param("qx2", "markdown", FIXTURES_MARKDOWN_QX2, id="fixtures-qx2-markdown"),
        pytest.param("qx4", "csv", FIXTURES_CSV_QX4, id="fixtures-qx4-csv"),
    ],
)
def test_bench_stdout_pinned(arch, fmt, expected, tmp_path, capsys):
    fixture_tables = (FIXTURES_MARKDOWN_QX2, FIXTURES_CSV_QX4)
    d = FIXTURE_DIR if expected in fixture_tables else _write_bench_dir(tmp_path)
    assert main(["bench", str(d), "--arch", arch, "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_bench_warns_of_each_file_s_dropped_statements(tmp_path, capsys):
    # As `optimize` does, one line per file and kind on stderr; the report on
    # stdout is the one for the same files without those statements.
    d = _write_bench_dir(tmp_path)
    assert main(["bench", str(d), "--arch", "qx2"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    measured = emit(Circuit(2, (cnot(0, 1), cnot(0, 1)))) + "creg c[2];\nmeasure q[0] -> c[0];\n"
    (d / "pair.qasm").write_text(measured)
    (d / "routing_example.qasm").write_text(ROUTING + "barrier q[0],q[1];\nbarrier q[2];\n")
    assert main(["bench", str(d), "--arch", "qx2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert captured.err == (
        f"warning: {d / 'pair.qasm'}: dropped 1 measure statement(s)\n"
        f"warning: {d / 'routing_example.qasm'}: dropped 2 barrier statement(s)\n"
    )


def test_bench_exits_two_after_its_report_when_a_row_is_not_verified(tmp_path, monkeypatch, capsys):
    # The whole report is printed first. An error row has no mapping, so it
    # is not counted, and the failed check outranks the row errors' exit 1.
    text = data_text("mermin_yyy_opt.qasm")
    refused, real = parse(text), qxopt.placement.equivalent
    monkeypatch.setattr(
        qxopt.placement, "equivalent", lambda c1, *args, **kw: c1 != refused and real(c1, *args, **kw)
    )
    d = _write_bench_dir(tmp_path)
    (d / "mermin_yyy_opt.qasm").write_text(text)
    (d / "broken.qasm").write_text("qreg q[2]; rx q[0];")
    for flags in ([], ["--keep-going"]):
        assert main(["bench", str(FIXTURE_DIR), "--arch", "qx4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == FIXTURES_CSV_QX4.replace("17,true", "17,false")
        assert captured.err == (
            f"warning: {FIXTURE_DIR / 'ghz.qasm'}: dropped 3 measure statement(s)\n"
            "error: 1 file(s) not verified: mermin_yyy_opt\n"
        )
        assert main(["bench", str(d), "--arch", "qx4", *flags]) == 2
        captured = capsys.readouterr()
        assert "\nbroken,error," in captured.out
        assert captured.err == "error: 1 file(s) not verified: mermin_yyy_opt\n"


def test_bench_empty_directory_errors(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["bench", str(d), "--arch", "qx2"]) == 1


def test_bench_keep_going_with_bad_file(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    (d / "broken.qasm").write_text("qreg q[2]; rx q[0];")
    assert main(["bench", str(d), "--arch", "qx2"]) == 1
    capsys.readouterr()
    assert main(["bench", str(d), "--arch", "qx2", "--keep-going"]) == 0
    out = capsys.readouterr().out
    assert "broken,error" in out


def test_bench_keep_going_turns_unreadable_entry_into_error_row(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    (d / "folder.qasm").mkdir()
    assert main(["bench", str(d), "--arch", "qx2"]) == 1
    capsys.readouterr()
    assert main(["bench", str(d), "--arch", "qx2", "--keep-going"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("folder,error,")
    assert "Is a directory" in lines[-1]


def test_bench_csv_error_rows_read_back_as_nine_fields(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    (d / "rx.qasm").write_text("qreg q[2]; rx q[0];")
    (d / "same.qasm").write_text("qreg q[2]; cx q[0],q[0];")
    (d / "range.qasm").write_text("qreg q[1];\nh q[3];\n")
    assert main(["bench", str(d), "--arch", "qx2", "--format", "csv", "--keep-going"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    assert all(len(row) == 9 for row in rows)
    errors = {row[0]: row[8] for row in rows if row[1] == "error"}
    assert errors["same"] == "line 1, column 12: duplicate qubit in cx: q[0],q[0]"
    assert errors["rx"].startswith("line 1, column 12: ")


def test_bench_markdown_escapes_pipe_in_error_cell(tmp_path, capsys):
    d = _write_bench_dir(tmp_path)
    (d / "pipe.qasm").write_text("qreg q[1];\nh q[0]|x;\n")
    assert main(["bench", str(d), "--arch", "qx4", "--format", "markdown", "--keep-going"]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.startswith("| pipe | error: ")
    assert "q[0]\\|x" in row
    # Cells split on every `|` that is not escaped.
    cells = re.split(r"(?<!\\)\|", row)[1:-1]
    assert len(cells) == 9


def test_bench_rows_reparse_and_reverify(tmp_path, qx2_table):
    d = _write_bench_dir(tmp_path)
    rows = bench_directory(d, qx2_table)
    assert all(r.verified for r in rows)
    csv = render_csv(rows)
    md = render_markdown(rows)
    assert csv.count("\n") == len(rows) + 1
    assert md.count("\n") == len(rows) + 2


def test_bench_verifies_six_qubit_row(tmp_path):
    graph = load("qubits 6\n0 1\n1 2\n2 3\n3 4\n4 5\n", name="line6")
    path = tmp_path / "ghz6.qasm"
    gates = (gate1(GateKind.H, 0),) + tuple(cnot(q, q + 1) for q in range(5))
    path.write_text(emit(Circuit(6, gates)))
    row = bench_file(path, build_table(graph))
    assert row.error is None
    assert len(row.result.placement) == 6
    assert row.verified is True


@pytest.fixture()
def grid6x6_file(tmp_path):
    edges = [(q, q + 1) for q in range(36) if q % 6 != 5] + [(q, q + 6) for q in range(30)]
    path = tmp_path / "grid6x6.txt"
    path.write_text("qubits 36\n" + "".join(f"{c} {t}\n" for c, t in edges))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--in", "{qasm}"],
        ["bench", "{dir}"],
        ["verify", "--random", "1"],
    ],
    ids=["optimize", "bench", "verify-random"],
)
def test_search_limit_refused_before_table_is_built(
    argv, grid6x6_file, routing_file, monkeypatch, capsys
):
    def no_table(graph):
        raise AssertionError("realization table built for a device over the search limit")

    monkeypatch.setattr(qxopt.realization, "build_table", no_table)
    argv = [a.format(qasm=routing_file, dir=routing_file.parent) for a in argv]
    assert main(argv + ["--arch", f"@{grid6x6_file}"]) == 1
    assert "exhaustive search is limited to 8" in capsys.readouterr().err


def test_table_dump_still_builds_beyond_search_limit(tmp_path, capsys):
    path = tmp_path / "line9.txt"
    path.write_text("qubits 9\n" + "".join(f"{q} {q + 1}\n" for q in range(8)))
    assert main(["table", "dump", "--arch", f"@{path}"]) == 0
    assert "9 qubits" in capsys.readouterr().out


def test_table_dump_refuses_a_device_with_too_many_shortest_paths(grid6x6_file, monkeypatch, capsys):
    def no_table(graph, verify=True):
        raise AssertionError("realization table built for a device over the dump limit")

    monkeypatch.setattr(qxopt.realization, "build_table", no_table)
    assert main(["table", "dump", "--arch", f"@{grid6x6_file}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: device has 13024 shortest paths between its qubit pairs; table dump is limited to 5000\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag,value",
    [("--random", "-1"), ("--qubits", "-1"), ("--qubits", "0"), ("--gates", "-1")],
)
def test_verify_random_rejects_out_of_range_counts(flag, value, capsys):
    argv = ["verify", "--random", "2", "--arch", "qx4", "--qubits", "3", "--gates", "4"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "must be at least" in err


def test_verify_non_integer_placement_is_usage_error(routing_file, capsys):
    code = main(["verify", str(routing_file), str(routing_file), "--placement", "a,b"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--placement" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
def test_verify_rejects_bad_tolerance(value, routing_file, capsys):
    for argv in (
        ["verify", str(routing_file), str(routing_file), "--tol", value],
        ["verify", "--random", "2", "--arch", "qx2", "--tol", value],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "--tol" in captured.err
        assert "FAIL" not in captured.out and "NOT equivalent" not in captured.out


@pytest.mark.parametrize(
    "first,second,extra,message",
    [
        ("wide", "narrow", [], "error: placement (identity on 3 qubits) outside 0..1\n"),
        ("huge", "narrow", [], "error: placement (identity on 100000 qubits) outside 0..1\n"),
        ("narrow", "wide", ["--placement", "0,9"], "error: placement (0, 9) outside 0..2\n"),
        ("narrow", "narrow", ["--placement", "0,0"], "error: placement is not injective: (0, 0)\n"),
        (
            "narrow",
            "wide",
            ["--placement", "0,1,2,3,4,5,6"],
            "error: placement covers 7 qubits, circuit has 2\n",
        ),
        # An empty placement is not the identity, and no empty token is skipped.
        *(
            (
                "narrow",
                "narrow",
                ["--placement", value],
                f"error: --placement expects comma-separated integers, got {value!r}\n",
            )
            for value in ("", " , ", "0,,1", ",0,1", "0,1,")
        ),
    ],
    ids=[
        "wide-narrow-extra0", "huge-narrow", "narrow-wide-extra1", "not-injective", "narrow-wide-extra2",
        "empty", "blank-tokens", "empty-middle-token", "empty-first-token", "empty-last-token",
    ],
)
def test_verify_placement_that_does_not_fit_is_usage_error(first, second, extra, message, tmp_path):
    (tmp_path / "huge.qasm").write_text("qreg q[100000]; cx q[0],q[99999];")
    (tmp_path / "wide.qasm").write_text("qreg q[3]; cx q[0],q[2];")
    (tmp_path / "narrow.qasm").write_text("qreg q[2]; cx q[0],q[1];")
    argv = ["verify", str(tmp_path / f"{first}.qasm"), str(tmp_path / f"{second}.qasm"), *extra]
    # Refused before either check runs, so numpy is never imported.
    proc = _run_lean(argv, 1)
    assert proc.stderr == message
    assert len(proc.stderr) < 200


def test_verify_random_refuses_too_many_qubits_before_generating(monkeypatch, capsys):
    def no_circuit(*args):
        raise AssertionError("random circuit generated for a width the device cannot hold")

    def no_table(graph):
        raise AssertionError("realization table built for a width the device cannot hold")

    monkeypatch.setattr(qxopt.circuit, "random_circuit", no_circuit)
    monkeypatch.setattr(qxopt.realization, "build_table", no_table)
    huge = "1" + "0" * 400
    for argv in (
        ["verify", "--random", "1", "--arch", "qx2", "--qubits", huge],
        ["verify", "--random", "1", "--arch", "qx2", "--qubits", "6"],
        ["verify", "--random", huge, "--arch", "qx2", "--qubits", "9"],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --qubits")
        assert "Traceback" not in err


def test_verify_tol_bounds_the_same_measure_at_every_width(tmp_path, capsys):
    # Below nine H gates, one T moves entries of the unitary by at most
    # 0.77 / 2^4.5 = 0.03, but entries of U2^dagger U1 - I by 0.77.
    h9 = "qreg q[9];\n" + "".join(f"h q[{q}];\n" for q in range(9))
    (tmp_path / "h9.qasm").write_text(h9)
    (tmp_path / "th9.qasm").write_text(h9.replace("qreg q[9];\n", "qreg q[9];\nt q[0];\n"))
    assert main(["verify", str(tmp_path / "h9.qasm"), str(tmp_path / "th9.qasm"), "--tol", "0.1"]) == 2
    assert capsys.readouterr().out == "NOT equivalent\n"


def test_verify_tol_zero_accepts_exactly_equal_circuits(tmp_path, capsys):
    # The path sum proves these exactly; the dense check read `t t` against
    # `s` as unequal at tolerance 0 through float rounding.
    (tmp_path / "tt.qasm").write_text("qreg q[1]; t q[0]; t q[0];")
    (tmp_path / "s.qasm").write_text("qreg q[1]; s q[0];")
    assert main(["verify", str(tmp_path / "tt.qasm"), str(tmp_path / "s.qasm"), "--tol", "0"]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    # Twelve qubits is past the dense cap; the path sum still proves equality.
    ladder = "qreg q[12];\n" + "".join(f"h q[{q}];\ncx q[{q}],q[{q + 1}];\nt q[{q + 1}];\n" for q in range(11))
    padded = ladder.replace("t q[5];", "t q[5];\nt q[3];\ntdg q[3];").replace("h q[7];", "tdg q[7];\nt q[7];\nh q[7];")
    different = ladder.replace("t q[5];", "tdg q[5];")
    for name, text in (("ladder", ladder), ("padded", padded), ("different", different)):
        (tmp_path / f"{name}.qasm").write_text(text)
    assert main(["verify", str(tmp_path / "ladder.qasm"), str(tmp_path / "padded.qasm"), "--tol", "0"]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    # A pair the path sum cannot prove still meets the dense cap.
    assert main(["verify", str(tmp_path / "ladder.qasm"), str(tmp_path / "different.qasm")]) == 1
    assert "exceeds the dense-simulation cap of 10" in capsys.readouterr().err


def test_package_exports_resolve_on_first_use():
    import qxopt

    for name in qxopt.__all__:
        value = getattr(qxopt, name)
        assert getattr(sys.modules[value.__module__], name) is value
    # The package's equivalence check is the one the CLI runs.
    assert qxopt.equivalent is qxopt.pathsum.equivalent
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        qxopt.frobnicate


_UNIMPORTED = """
import sys
from qxopt.cli import main
code = main(sys.argv[3:])
assert code == int(sys.argv[1]), f"exit code {code}"
loaded = [name for name in sys.argv[2].split(",") if name in sys.modules]
assert not loaded, f"imported {', '.join(loaded)}"
"""


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` with this checkout's package first
    on its path."""
    src = str(Path(qxopt.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_unimported(argv: list[str], code: int, modules: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Run `qxopt argv` in a fresh interpreter that fails unless it exits
    with `code` and leaves each of `modules` unimported."""
    proc = _run_python(["-c", _UNIMPORTED, str(code), ",".join(modules), *argv])
    assert proc.returncode == 0, proc.stderr
    return proc


# No command that can run without numpy imports it, nor `dataclasses` and
# the `inspect` it loads, which cost a process more than its search.
_LEAN = ("numpy", "dataclasses", "inspect")


def _run_lean(argv: list[str], code: int) -> subprocess.CompletedProcess:
    return _run_unimported(argv, code, _LEAN)


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--arch", "qx4", "--in", "{qasm}", "--report", "json"],
        ["optimize", "--arch", "qx2", "--in", "{qasm}", "--report", "csv"],
        ["simplify", "--in", "{qasm}"],
        ["simplify", "--in", "{qasm}", "--out", "{dir}/simplified.qasm", "--trace"],
        ["table", "dump", "--arch", "qx4"],
        ["verify", "{qasm}", "{mapped}", "--placement", "{placement}"],
        ["verify", "--random", "5", "--arch", "qx2", "--seed", "3"],
        ["bench", "{dir}", "--arch", "qx4"],
        ["optimize", "--arch", "@{ladder8}", "--in", "{five}", "--report", "json"],
        ["verify", "{qasm}", "{qasm}"],
        ["verify", "--random", "20", "--arch", "qx4", "--seed", "7"],
        ["verify", "--random", "20", "--arch", "qx2", "--qubits", "4", "--gates", "20", "--seed", "7"],
        ["bench", "{fixtures}", "--arch", "qx2"],
    ],
    ids=[
        "optimize-json",
        "optimize-csv",
        "simplify",
        "simplify-out-trace",
        "table-dump",
        "verify",
        "verify-random",
        "bench",
        "optimize-ladder8",
        "verify-unplaced",
        "verify-random-qx4",
        "verify-random-qx2",
        "bench-fixtures",
    ],
)
def test_mapping_commands_leave_numpy_unimported(argv, tmp_path, capsys):
    qasm = tmp_path / "mermin.qasm"
    qasm.write_text(data_text("mermin_yyy_unopt.qasm"))
    mapped = tmp_path / "mapped.qasm"
    assert main(["optimize", "--arch", "qx4", "--in", str(qasm), "--out", str(mapped)]) == 0
    placement = ",".join(str(p) for p in json.loads(capsys.readouterr().out)["placement"])
    # The 2x4 ladder of perfbench (rails and rungs alternate direction) and a
    # 5-qubit circuit on it: 6,720 placements at the search limit.
    ladder8 = tmp_path / "ladder8.graph"
    ladder8.write_text("qubits 8\n0 1\n2 1\n2 3\n4 5\n6 5\n6 7\n0 4\n5 1\n2 6\n7 3\n")
    five = tmp_path / "five.qasm"
    five.write_text(
        "qreg q[5];\nh q[0];\ncx q[0],q[1];\nt q[1];\ncx q[1],q[2];\nh q[3];\n"
        "cx q[3],q[4];\ns q[4];\ncx q[2],q[4];\ncx q[0],q[3];\ntdg q[2];\n"
    )
    files = dict(qasm=qasm, mapped=mapped, dir=tmp_path, ladder8=ladder8, five=five, fixtures=FIXTURE_DIR)
    argv = [a.format(placement=placement, **files) for a in argv]
    _run_lean(argv, 0)


_MAPPING_STACK = tuple(
    f"qxopt.{name}"
    for name in ("bench", "circuit", "qasm", "topology", "peephole", "placement", "realization", "pathsum", "stabilizer")
)


@pytest.mark.parametrize(
    "argv,modules",
    [
        (
            ["mermin", "--xxy", "{data}/xxy_optimized_8192.probs", "--yyy", "{data}/yyy_optimized_8192.probs"],
            (*_LEAN, *_MAPPING_STACK),
        ),
        (
            ["fidelity", "--a", "{data}/xxy_ideal.dm", "--b", "{data}/xxy_optimized_tomo.dm"],
            ("dataclasses", *_MAPPING_STACK),
        ),
    ],
    ids=["mermin", "fidelity"],
)
def test_analysis_commands_load_only_what_they_run(argv, modules):
    # `mermin` sums two dicts and needs neither numpy nor the mapping
    # modules; `fidelity` needs numpy for its matrix algebra only, and
    # numpy itself imports `inspect`.
    _run_unimported([a.format(data=FIXTURE_DIR) for a in argv], 0, modules)


_REPORT = ("csv", "qxopt.bench")
_SEARCH = tuple(f"qxopt.{name}" for name in ("placement", "realization", "topology", "stabilizer"))


@pytest.mark.parametrize(
    "argv,code,modules",
    [
        (["optimize", "--arch", "qx4", "--in", "{data}/ghz.qasm", "--report", "json"], 0, _REPORT),
        (["simplify", "--in", "{data}/mermin_yyy_unopt.qasm"], 0, (*_REPORT, *_SEARCH)),
        (
            ["verify", "{data}/ghz.qasm", "{data}/ghz.qasm", "--placement", "0,1,2"],
            0,
            (*_REPORT, *_SEARCH, "qxopt.peephole"),
        ),
        # Refuted by the dense fallback, which loads numpy but not the search.
        (
            ["verify", "{data}/mermin_xxy_unopt.qasm", "{data}/mermin_xxy_opt.qasm"],
            2,
            (*_REPORT, *_SEARCH, "qxopt.peephole"),
        ),
    ],
    ids=["optimize-json", "simplify", "verify-placement", "verify-refuted"],
)
def test_mapping_commands_load_no_report_or_search_they_do_not_run(argv, code, modules):
    # The report (`bench`, `csv`) is loaded only by `bench` and `optimize
    # --report csv`; the check lives in `pathsum`, so checking a pair loads
    # neither the search nor the peephole pass.
    _run_unimported([a.format(data=FIXTURE_DIR) for a in argv], code, modules)


def test_fixture_distributions_reach_mermin3_without_numpy():
    code = (
        "import sys\n"
        "from qxopt import fixtures, nonclassicality\n"
        "xxy, yyy = (fixtures.load_distribution(f'{b}_optimized_8192') for b in ('xxy', 'yyy'))\n"
        "print(f'{nonclassicality.mermin3(xxy, yyy).m3:.3f}')\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3.126\n"


def test_python_m_qxopt_prints_what_main_prints(tmp_path, capsys):
    two_way = tmp_path / "two_way.graph"
    two_way.write_text("qubits 3\n0 1\n1 0\n1 2\n")
    argv = ["table", "dump", "--arch", f"@{two_way}"]
    proc = _run_python(["-m", "qxopt", *argv])
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["table", "dump", "--arch", "qx2"], ["optimize", "--arch", "qx2", "--in", "{qasm}"]],
    ids=["table-dump", "optimize"],
)
def test_table_entry_that_fails_its_proof_exits_two(argv, routing_file, monkeypatch, capsys):
    monkeypatch.setattr(qxopt.realization, "equivalent", lambda *args: False)
    assert main([a.format(qasm=routing_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: entry (0,1) does not implement its CNOT\n"
    assert captured.out == ""


def test_table_dump_refuses_an_entry_with_an_illegal_cnot(monkeypatch, capsys):
    # The plain CNOT passes its proof; only the legality check refuses it.
    monkeypatch.setattr(
        qxopt.realization,
        "_candidates",
        lambda graph, control, target: [
            [qxopt.circuit.cnot_code(control, target, qxopt.circuit.field_bits(graph.num_physical))]
        ],
    )
    assert main(["table", "dump", "--arch", "qx2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: entry (0,3) uses illegal CNOT(0, 3)\n"
    assert captured.out == ""


def test_coupling_header_beyond_its_edges_is_refused_at_once(routing_file, tmp_path, monkeypatch, capsys):
    def no_search(graph, source):
        raise AssertionError("searched a device whose header outnumbers its edges")

    # At a trillion qubits a search would exhaust memory before it refused.
    monkeypatch.setattr(qxopt.topology, "bfs", no_search)
    arch = tmp_path / "huge.graph"
    arch.write_text("qubits 1000000000000\n0 1\n")
    assert main(["optimize", "--arch", f"@{arch}", "--in", str(routing_file)]) == 1
    assert capsys.readouterr().err == f"error: {arch}: coupling graph is not connected\n"


# For every option of every subcommand, two runs that differ only in that
# option. Their exit codes, output or written files must differ; a refusal
# counts, so an option a mode would drop is refused there. A new option
# without an entry fails `test_every_option_has_a_run_that_it_changes`.
_MAP = ["--in", "ghz.qasm"]
_SIMPLIFY = ["simplify", "--in", "mermin_yyy_unopt.qasm"]
_PAIR = ["verify", "ghz.qasm", "ghz.qasm"]
_BENCH = ["bench", "circuits", "--arch", "qx2"]
_MERMIN = ["xxy_unoptimized_1024.probs", "yyy_unoptimized_1024.probs"]
_TOMO = ["xxy_ideal.dm", "xxy_optimized_tomo.dm"]
_OPTION_RUNS = {
    ("optimize", "--arch"): (
        ["optimize", "--arch", "qx2", *_MAP],
        ["optimize", "--arch", "qx4", *_MAP],
    ),
    ("optimize", "--in"): (
        ["optimize", "--arch", "qx2", *_MAP],
        ["optimize", "--arch", "qx2", "--in", "routing_example.qasm"],
    ),
    ("optimize", "--out"): (
        ["optimize", "--arch", "qx2", *_MAP],
        ["optimize", "--arch", "qx2", *_MAP, "--out", "mapped.qasm"],
    ),
    ("optimize", "--report"): (
        ["optimize", "--arch", "qx2", *_MAP],
        ["optimize", "--arch", "qx2", *_MAP, "--report", "csv"],
    ),
    ("optimize", "--strict"): (
        ["optimize", "--arch", "qx2", *_MAP],
        ["optimize", "--arch", "qx2", *_MAP, "--strict"],
    ),
    ("simplify", "--in"): (_SIMPLIFY, ["simplify", "--in", "mermin_xxy_unopt.qasm"]),
    ("simplify", "--out"): (_SIMPLIFY, [*_SIMPLIFY, "--out", "simplified.qasm"]),
    ("simplify", "--trace"): (_SIMPLIFY, [*_SIMPLIFY, "--trace"]),
    ("simplify", "--strict"): (["simplify", *_MAP], ["simplify", *_MAP, "--strict"]),
    ("verify", "--placement"): (_PAIR, [*_PAIR, "--placement", "2,1,0"]),
    # No entry of the miter V - phi I exceeds 2, V unitary and |phi| = 1.
    ("verify", "--tol"): (
        ["verify", "ghz.qasm", "mermin_xxy_opt.qasm"],
        ["verify", "ghz.qasm", "mermin_xxy_opt.qasm", "--tol", "3"],
    ),
    ("verify", "--arch"): (_PAIR, [*_PAIR, "--arch", "qx2"]),
    ("verify", "--random"): (
        ["verify", "--random", "1", "--arch", "qx2"],
        ["verify", "--random", "2", "--arch", "qx2"],
    ),
    ("verify", "--qubits"): (_PAIR, [*_PAIR, "--qubits", "3"]),
    ("verify", "--gates"): (_PAIR, [*_PAIR, "--gates", "10"]),
    ("verify", "--seed"): (_PAIR, [*_PAIR, "--seed", "1"]),
    ("verify", "--strict"): (_PAIR, [*_PAIR, "--strict"]),
    # On qx2 and qx4 every bundled circuit maps to the same costs.
    ("bench", "--arch"): (_BENCH, ["bench", "circuits", "--arch", "@line.graph"]),
    ("bench", "--format"): (_BENCH, [*_BENCH, "--format", "markdown"]),
    ("bench", "--keep-going"): (  # without it, the row error is an exit 1
        ["bench", "mixed", "--arch", "qx2", "--keep-going"],
        ["bench", "mixed", "--arch", "qx2"],
    ),
    ("bench", "--strict"): (_BENCH, [*_BENCH, "--strict"]),
    ("mermin", "--xxy"): (
        ["mermin", "--xxy", _MERMIN[0], "--yyy", _MERMIN[1]],
        ["mermin", "--xxy", "xxy_optimized_8192.probs", "--yyy", _MERMIN[1]],
    ),
    ("mermin", "--yyy"): (
        ["mermin", "--xxy", _MERMIN[0], "--yyy", _MERMIN[1]],
        ["mermin", "--xxy", _MERMIN[0], "--yyy", "yyy_optimized_8192.probs"],
    ),
    ("fidelity", "--a"): (
        ["fidelity", "--a", _TOMO[0], "--b", _TOMO[1]],
        ["fidelity", "--a", "xxy_unoptimized_tomo.dm", "--b", _TOMO[1]],
    ),
    ("fidelity", "--b"): (
        ["fidelity", "--a", _TOMO[0], "--b", _TOMO[1]],
        ["fidelity", "--a", _TOMO[0], "--b", "xxy_unoptimized_tomo.dm"],
    ),
    ("table dump", "--arch"): (
        ["table", "dump", "--arch", "qx2"],
        ["table", "dump", "--arch", "qx4"],
    ),
}


def _parser_options():
    """(subcommand, option) for every option a subcommand's parser accepts."""
    found = set()

    def walk(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, f"{command} {name}".strip())
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                found.add((command, action.option_strings[0]))

    walk(qxopt.cli._build_parser(), "")
    return found


def test_every_option_has_a_run_that_it_changes():
    assert _parser_options() == set(_OPTION_RUNS)


@pytest.fixture()
def data_dir(tmp_path, monkeypatch):
    """The bundled data, a 5-qubit line device, `circuits/` with the bundled
    circuits and `mixed/` with those and a file without a qreg, as the
    working directory."""
    names = sorted(entry.name for entry in resources.files("qxopt.data").iterdir())
    for name in names:
        (tmp_path / name).write_text(data_text(name))
    (tmp_path / "line.graph").write_text("qubits 5\n0 1\n1 2\n2 3\n3 4\n")
    for sub, extra in (("circuits", {}), ("mixed", {"no_qreg.qasm": "OPENQASM 2.0;\n"})):
        (tmp_path / sub).mkdir()
        for name in names:
            if name.endswith(".qasm"):
                (tmp_path / sub / name).write_text(data_text(name))
        for name, text in extra.items():
            (tmp_path / sub / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("key", sorted(_OPTION_RUNS), ids=" ".join)
def test_setting_an_option_changes_the_outcome_or_is_refused(key, data_dir, capsys):
    outcomes = []
    for argv in _OPTION_RUNS[key]:
        before = {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()}
        code = main(argv)
        captured = capsys.readouterr()
        written = {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()}
        written = {p: data for p, data in written.items() if before.get(p) != data}
        outcomes.append((code, captured.out, captured.err, written))
    assert outcomes[0][0] in (0, 2)  # the first run is a request the command answers
    assert outcomes[0] != outcomes[1]
