"""Config files through the parser and the wigsolve command line."""

import importlib
from pathlib import Path

import pytest

from wigsolve.config import build_simulation_config, config_echo, parse_config_text
from wigsolve.errors import AccuracyError, CapacityError, DivergenceError, ParameterError

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
    ("", "threads = 0\n", "unknown config keys: threads"),  # removed keys
    ("", "observables.record = 0\n", "unknown config keys: observables.record"),
    ("", "potential.poisson_dy = 0\n", "unknown config keys: potential.poisson_dy"),
    ("", "potential.poisson_offset = 0.5\n", "unknown config keys: potential.poisson_offset"),
    ("init.kind = fermi_dirac", "init.kind = fermi_dirac\ninit.mass_ratio = 0.067",
     "unknown config keys: init.mass_ratio"),
    ("init.kind = fermi_dirac", "init.kind = fermi_dirac\ninit.m_e = 5.68562966",
     "unknown config keys: init.m_e"),
    ("init.kind = fermi_dirac", "init.kind = fermi_dirac\ninit.k_B = 8.6e-5",
     "unknown config keys: init.k_B"),
    ("grid.N_k = 16", "grid.N_k = sixteen", "'grid.N_k': not a number"),
    ("grid.Q = 4", "grid.Q = inf", "'grid.Q': not a finite number"),
    ("grid.Q = 4", "grid.Q = nan", "'grid.Q': not a finite number"),
    ("", "time.snapshots = 0.05 soon\n", "'time.snapshots': not a number"),
    ("time.dt = 0.05", "time.dt = nan", "'time.dt': not a finite number"),
    ("time.t_final = 0.1", "time.t_final = inf", "'time.t_final': not a finite number"),
    ("time.dt = 0.05", "time.dt = 1e-320", "t_final 0.1 is not a finite number of steps"),
    ("time.dt = 0.05", "time.dt = 1e-300",
     "t_final 0.1 is not a finite number of steps of dt = 1e-300 below 2**53"),
    ("grid.M = 7", "grid.M = 1", "need Q >= 1 and M >= 3"),  # grids fail before the echo
    ("grid.N_k = 16", "grid.N_k = 15", "N_k must be even"),
    ("kind = delta", "kind = cubic", "'potential.kind': unknown kind 'cubic'"),
    ("", "time.scheme = rk4\n", "config key 'time.scheme': unknown value 'rk4'"),
    ("", "potential.route = discrete\n", "config key 'potential.route': unknown value 'discrete'"),
    ("", "advect.inflow = wall\n", "config key 'advect.inflow': unknown value 'wall'"),
    ("", "advect.edge = x\n", "config key 'advect.edge': unknown value 'x'"),
    # configs the discrete-sum route cannot tabulate fail before the echo
    ("", "potential.route = poisson\n", "discrete-sum route supports"),
    # runs that evolve would refuse fail before the echo too
    ("", "time.snapshots = 0.015\n", "snapshot time 0.015 is not on the step lattice"),
    ("", "time.snapshots = 0.1, 0.05\n", "snapshot_times must fall on strictly increasing steps"),
    ("time.t_final = 0.1", "time.t_final = 0.12", "t_final 0.12 is not on the step lattice"),
    ("time.t_final = 0.1", "time.t_final = 0.02", "t_final 0.02 is not on the step lattice"),
    ("time.dt = 0.05\ntime.t_final = 0.1", "time.dt = 20.0\ntime.t_final = 20.0",
     "exceeds the configured bound"),
    ("potential.points = 0 0", "potential.points = 20 0", "delta point (20.0, 0.0) outside"),
    ("", "grid.k_min = -3.0\ngrid.k_max = 3.5\nadvect.edge = symmetrized\n",
     "edge_transport = 'symmetrized' needs a symmetric wavenumber domain"),
    ("observables.N_um = 50", "observables.N_um = 0", "N_um must be positive, got 0"),
    ("", "grid.N_k = 32\n", "line 15: config key 'grid.N_k' repeats line 6"),
], ids=["missing", "unknown", "threads", "record", "poisson-dy-0", "poisson-offset",
        "mass-ratio", "m_e", "k_B", "non-number", "inf", "nan", "snapshot", "dt-nan",
        "t_final-inf", "dt-subnormal", "dt-1e-300", "M-1", "N_k-odd", "kind", "scheme", "route",
        "inflow", "edge", "poisson-delta", "snapshot-lattice", "snapshot-order", "t_final-lattice",
        "t_final-below-one-step", "stage-length", "point-outside",
        "symmetrized-asymmetric-k", "N_um-zero", "repeated-key"])
def test_run_reports_each_config_error_in_one_line(old, new, message, tmp_path, capsys):
    from wigsolve.cli import main

    base = TINY_2D if old in TINY_2D else TINY_4D  # an edit only the 4-D file holds
    text = base.replace(old, new) if old else base + new
    assert text != base
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("wigsolve: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("error", [
    DivergenceError("non-finite field after step 3"),
    CapacityError("working set 9.9 GB exceeds the memory budget"),
    AccuracyError("continued fraction stalled at relative change 1.000e-10"),
], ids=["divergence", "capacity", "accuracy"])
def test_run_reports_a_failed_run_in_one_line(error, tmp_path, capsys, monkeypatch):
    from wigsolve import cli

    def fail(cfg):
        raise error

    monkeypatch.setattr(cli, "evolve", fail)
    path = tmp_path / "run.cfg"
    path.write_text(TINY_2D)
    assert cli.main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("grid.")  # the echo came first
    assert err == f"wigsolve: {error}\n"


def test_run_lets_any_other_error_through(tmp_path, monkeypatch):
    from wigsolve import cli

    def fail(cfg):
        raise ZeroDivisionError("a bug, not a failed run")

    monkeypatch.setattr(cli, "evolve", fail)
    path = tmp_path / "run.cfg"
    path.write_text(TINY_2D)
    with pytest.raises(ZeroDivisionError):
        cli.main(["run", str(path)])


def test_config_rejects_a_malformed_point():
    text = TINY_4D.replace("potential.points = 0 0", "potential.points = 0 0; 1 x")
    with pytest.raises(ParameterError, match="'potential.points': not a number: 'x'"):
        build_simulation_config(parse_config_text(text))


def test_config_rejects_multi_delta_in_one_dimension():
    text = TINY_2D.replace("potential.kind = delta", "potential.kind = multi_delta_2d")
    text += "potential.points = 0 0\n"
    with pytest.raises(ParameterError, match="spatial dimension"):
        build_simulation_config(parse_config_text(text))


def test_config_rejects_scalar_potential_in_two_dimensions():
    text = TINY_4D.replace("potential.kind = multi_delta_2d", "potential.kind = delta")
    text = text.replace("potential.points = 0 0\n", "")
    with pytest.raises(ParameterError, match="'grid.dims' = 2: potential.kind = 'delta'"):
        build_simulation_config(parse_config_text(text))


def test_four_d_file_without_grid_dims_builds_a_four_d_config():
    cfg = build_simulation_config(parse_config_text(TINY_4D.replace("grid.dims = 2\n", "")))
    assert cfg.spatial_dims == 2
    assert cfg == build_simulation_config(parse_config_text(TINY_4D))


_FAMILY_LINES = {
    "delta": "potential.kind = delta\npotential.H = 1.0\n",
    "log": "potential.kind = log\npotential.H = -0.5\n",
    "inverse_power": "potential.kind = inverse_power\npotential.H = 0.3\npotential.alpha = 0.5\n",
    "inverse_square": "potential.kind = inverse_square\npotential.H = 0.2\n",
    "gaussian": "potential.kind = gaussian\npotential.H = 1.0\npotential.a = 0.5\n",
}
_PLANE = TINY_2D.replace(_FAMILY_LINES["delta"], "")
# every optional key of a 2-D file, none at its default; the symmetrized
# edge needs a symmetric wavenumber domain, so it has a case of its own
_OPTIONAL = """\
grid.k_min = -3.0
grid.k_max = 3.5
consts.hbar = 0.5
consts.mass = 2.0
time.snapshots = 0.05, 0.1
time.scheme = strang
advect.inflow = background
"""
_SYMMETRIZED = """\
grid.k_min = -3.5
grid.k_max = 3.5
advect.edge = symmetrized
"""
_FERMI_KEYS = """\
init.T = 77.0
init.E_F = 0.2
"""


def _round_trip_texts() -> dict[str, str]:
    texts = {}
    for family, lines in _FAMILY_LINES.items():
        texts[f"{family}-exact"] = _PLANE + lines + "potential.route = exact\n"
    texts["multi_delta_2d-exact"] = TINY_4D + "potential.route = exact\n"
    for family in ("log", "gaussian"):  # the families the discrete-sum route samples
        texts[f"{family}-poisson"] = _PLANE + _FAMILY_LINES[family] + "potential.route = poisson\n"
    texts["circle"] = TINY_4D.replace(
        "potential.points = 0 0", "potential.circle_radius = 2.0\npotential.circle_count = 8"
    )
    texts["gaussian-4d"] = TINY_4D.replace(
        "init.kind = fermi_dirac", "init.kind = gaussian\ninit.x0 = 1.0\ninit.k0 = -0.5\ninit.sigma = 1.5"
    )
    texts["fermi-keys"] = TINY_4D.replace("consts.mass = 0.38093718722", "consts.mass = 0.25") + _FERMI_KEYS
    texts["optional"] = TINY_2D.replace("observables.N_um = 50", "observables.N_um = 80") + _OPTIONAL
    texts["symmetrized"] = TINY_2D + _SYMMETRIZED
    return texts


_ROUND_TRIP = _round_trip_texts()


@pytest.mark.parametrize("text", _ROUND_TRIP.values(), ids=_ROUND_TRIP.keys())
def test_echo_reparses_to_an_equal_config_and_echo(text):
    cfg = build_simulation_config(parse_config_text(text))
    echo = config_echo(cfg)
    again = build_simulation_config(echo)
    assert again == cfg
    assert config_echo(again) == echo
