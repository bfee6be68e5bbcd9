import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import qxopt.cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_noise_vs_gates_exits_1_when_the_short_preparation_does_not_win(monkeypatch, capsys):
    script = _load("noise_vs_gates")
    assert script.main() == 0
    table = capsys.readouterr().out
    assert len(table.splitlines()) == 6

    # Equal fidelities: the 4-gate circuit does not beat the 12-gate one.
    monkeypatch.setattr(script, "uhlmann_fidelity", lambda rho, ideal: 0.5)
    assert script.main() == 1
    err = capsys.readouterr().err
    assert err == (
        "the 4-gate preparation does not beat the 12-gate one at scale 0.5, 1.0, 2.0, 5.0, 10.0\n"
    )


def test_cli_capture_covers_every_subcommand_and_input():
    capture = _load("cli_capture")
    assert {argv[0] for argv in capture.RUNS if argv} >= set(qxopt.cli._HANDLERS)
    args = [arg for argv in capture.RUNS for arg in argv]
    for report in ("json", "csv", "markdown"):
        assert report in args
    for name in capture.INPUTS:
        assert any(name in arg for arg in args), name


def test_every_benchmark_binding_resolves_to_a_function():
    # The benchmark's tracer replaces these names where each caller binds
    # them; a rename in `qxopt` would otherwise surface only in a traced run.
    spans = _load("spans", ROOT / "perfbench")
    for module, name, _layer in spans.BINDINGS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


LOC_SAMPLE = "\n".join(
    [
        '"""A module docstring',
        "",
        'over three lines."""',
        "import os  # a trailing comment makes a code line",
        "",
        "# a comment line",
        "",
        "",
        "def f():",
        '    """One line."""',
        "    return os.sep  # code",
        "",
        "",
        "class C:",
        '    """Two',
        "",
        '    blank-line docstring."""',
        "",
        '    x = "not a docstring"',
        "    # indented comment",
    ]
)


def test_loc_counts_each_kind_of_line(tmp_path):
    script = _load("loc")
    counts = script.count(LOC_SAMPLE)
    assert counts == {"code": 5, "docstring": 7, "comment": 2, "blank": 6}
    assert sum(counts.values()) == len(LOC_SAMPLE.splitlines())
    path = tmp_path / "sample.py"
    path.write_text(LOC_SAMPLE)
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "loc.py"), str(path)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[1].split() == ["sample.py", "5", "7", "2", "6", "20"]
    assert out[2].split() == ["total", "5", "7", "2", "6", "20"]


def test_every_mutant_text_is_found_once_in_its_module():
    script = _load("mutants")
    for mutant in script.MUTANTS:
        text = (ROOT / "src" / "qxopt" / f"{mutant.module}.py").read_text(encoding="utf-8")
        assert text.count(mutant.text) == 1, mutant.name
        assert mutant.tests and all(test.startswith("tests/test_") for test in mutant.tests)
