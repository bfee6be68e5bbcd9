import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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
