"""Config files through the parser and the wigsolve command line."""

import importlib
from pathlib import Path

import pytest

from wigsolve.config import build_simulation_config, config_echo, parse_config_text
from wigsolve.errors import ParameterError

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TINY_2D = """\
grid.dims = 1
grid.X_L = -10.0
grid.X_R = 10.0
grid.Q = 4
grid.M = 7
grid.N_k = 16
time.dt = 0.05
time.t_final = 0.1
potential.kind = delta
potential.H = 1.0
init.x0 = -3.0
init.k0 = 1.0
init.sigma = 1.5
observables.N_um = 50
"""

TINY_4D = """\
grid.dims = 2
grid.X_L = -10.0
grid.X_R = 10.0
grid.Q = 3
grid.M = 5
grid.N_k = 8
consts.hbar = 0.658211899
consts.mass = 0.38093718722
time.dt = 0.01
time.t_final = 0.02
potential.kind = multi_delta_2d
potential.H = 1.0
potential.points = 0 0
init.kind = fermi_dirac
"""


def _scripts() -> dict[str, str]:
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _target(spec: str):
    module, _, attr = spec.partition(":")
    return getattr(importlib.import_module(module), attr)


def test_every_declared_script_imports():
    scripts = _scripts()
    assert scripts
    for name, spec in scripts.items():
        assert callable(_target(spec)), name


@pytest.mark.parametrize("text", [TINY_2D, TINY_4D], ids=["2d", "4d"])
def test_run_prints_echo_and_final_mass(text, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    for spec in _scripts().values():
        assert _target(spec)(["run", str(path)]) == 0
        out = capsys.readouterr().out
        # the printed echo is itself a config file that resolves to the same run
        reparsed = build_simulation_config(parse_config_text(out))
        assert config_echo(reparsed) == config_echo(build_simulation_config(parse_config_text(text)))
        last = out.strip().splitlines()[-1]
        assert last.startswith("# total_mass at t = ")
        assert float(last.split(":")[-1]) > 0.0


def test_run_reports_a_bad_config(tmp_path, capsys):
    from wigsolve.cli import main

    path = tmp_path / "bad.cfg"
    path.write_text(TINY_2D + "grid.bogus = 1\n")
    assert main(["run", str(path)]) == 2
    assert "grid.bogus" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("old, new, message", [
    ("grid.Q = 4\n", "", "missing required config key 'grid.Q'"),
    ("", "grid.bogus = 1\n", "unknown config keys: grid.bogus"),
    ("", "threads = 0\n", "unknown config keys: threads"),  # a removed key
    ("grid.N_k = 16", "grid.N_k = sixteen", "'grid.N_k': not a number"),
    ("grid.Q = 4", "grid.Q = inf", "'grid.Q': not a finite number"),
    ("grid.Q = 4", "grid.Q = nan", "'grid.Q': not a finite number"),
    ("", "time.snapshots = 0.05 soon\n", "'time.snapshots': not a number"),
    ("time.dt = 0.05", "time.dt = nan", "'time.dt': not a finite number"),
    ("time.t_final = 0.1", "time.t_final = inf", "'time.t_final': not a finite number"),
    ("grid.M = 7", "grid.M = 1", "need Q >= 1 and M >= 3"),  # grids fail before the echo
    ("grid.N_k = 16", "grid.N_k = 15", "N_k must be even"),
], ids=["missing", "unknown", "threads", "non-number", "inf", "nan", "snapshot", "dt-nan",
        "t_final-inf", "M-1", "N_k-odd"])
def test_run_reports_each_config_error_in_one_line(old, new, message, tmp_path, capsys):
    from wigsolve.cli import main

    text = TINY_2D.replace(old, new) if old else TINY_2D + new
    assert text != TINY_2D
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("wigsolve: ") and err.count("\n") == 1
    assert message in err


def test_config_rejects_a_malformed_point():
    text = TINY_4D.replace("potential.points = 0 0", "potential.points = 0 0; 1 x")
    with pytest.raises(ParameterError, match="'potential.points': not a number: 'x'"):
        build_simulation_config(parse_config_text(text))


def test_config_rejects_multi_delta_in_one_dimension():
    text = TINY_2D.replace("potential.kind = delta", "potential.kind = multi_delta_2d")
    text += "potential.points = 0 0\n"
    with pytest.raises(ParameterError, match="spatial dimension"):
        build_simulation_config(parse_config_text(text))


def test_config_rejects_fermi_dirac_without_matching_constants():
    # without consts.* the transport would run with hbar = m = 1
    text = "\n".join(line for line in TINY_4D.splitlines() if not line.startswith("consts."))
    with pytest.raises(ParameterError, match="effective mass"):
        build_simulation_config(parse_config_text(text))
