"""Flat key = value run configuration files.

Lines hold dotted keys ("grid.N_k = 512"), '#' starts a comment, blank lines
are skipped; a key given on two lines is refused, naming both.  Each key is
declared once, in _KEYS, as a SimulationConfig field and a value type;
build_simulation_config and config_echo both walk that one table.  The
potential, the initial data and the physical constants are spec
dataclasses, read and written field by field under their prefix
("potential.H", "init.sigma", "consts.hbar"); "<prefix>kind" picks the class.
The mass and hbar are read once, under "consts.": the transport, the kernel
and both kinds of initial data use them.  A Gaussian packet ("init.x0",
"init.k0", "init.sigma") lies along every spatial dimension; Fermi-Dirac data
take only "init.T" and "init.E_F".
Defaults live on the dataclasses only: a key that is absent takes its field's
default, and a field without a default makes its key required.  The potential
fixes the number of spatial dimensions; grid.dims may be given and is then
checked against it.  A value is a name or a number: each named setting
takes one of its dynamics.NAMED_SETTINGS values.  Errors fail loudly,
naming the key where the parser finds them; SimulationConfig refuses every
config that evolve would refuse, so a bad file fails before the echo.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields

from .dynamics import NAMED_SETTINGS, SimulationConfig, _check_named, _spatial_dims
from .errors import ParameterError
from .kernels import (
    DeltaPotential,
    GaussianBarrier,
    InversePowerPotential,
    InverseSquarePotential,
    LogPotential,
    MultiDeltaPotential2D,
    PhysicalConstants,
    annulus_points,
)
from .observables import FermiDiracSpec, GaussianPacketSpec

__all__ = ["parse_config_text", "load_config", "build_simulation_config", "config_echo"]

# "<prefix>kind" -> spec class; the None entry is the class used when the
# kind key is left out (a prefix without it requires the key)
_POTENTIALS = {
    "delta": DeltaPotential,
    "log": LogPotential,
    "inverse_power": InversePowerPotential,
    "inverse_square": InverseSquarePotential,
    "gaussian": GaussianBarrier,
    "multi_delta_2d": MultiDeltaPotential2D,
}
_INITIAL = {"gaussian": GaussianPacketSpec, "fermi_dirac": FermiDiracSpec, None: GaussianPacketSpec}

# config key -> (SimulationConfig field, value type).  A key ending in "." is
# the prefix of a spec dataclass with its kind map: each spec field is a
# float key of its own, named after the field.  A tuple of names is the value
# type of a setting that takes one of them.
_KEYS = {
    "grid.X_L": ("x_lo", float),
    "grid.X_R": ("x_hi", float),
    "grid.Q": ("num_elements", int),
    "grid.M": ("points_per_element", int),
    "grid.k_min": ("k_min", float),
    "grid.k_max": ("k_max", float),
    "grid.N_k": ("num_modes", int),
    "consts.": ("consts", {None: PhysicalConstants}),
    "time.dt": ("dt", float),
    "time.t_final": ("t_final", float),
    "time.snapshots": ("snapshot_times", tuple),
    "time.scheme": ("scheme", NAMED_SETTINGS["scheme"]),
    "potential.": ("potential", _POTENTIALS),
    "potential.route": ("kernel_route", NAMED_SETTINGS["kernel_route"]),
    "init.": ("initial", _INITIAL),
    "advect.inflow": ("inflow", NAMED_SETTINGS["inflow"]),
    "advect.edge": ("edge_transport", NAMED_SETTINGS["edge_transport"]),
    "observables.N_um": ("n_uniform", int),
}


def parse_config_text(text: str) -> dict[str, str]:
    """{key: value text} of a config file; a key given twice is refused."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in line_of:
            raise ParameterError(f"line {lineno}: config key {key!r} repeats line {line_of[key]}")
        line_of[key] = lineno
        out[key] = value
    return out


def load_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _finite(key: str, text: str) -> float:
    try:
        out = float(text)
    except ValueError:
        raise ParameterError(f"config key {key!r}: not a number: {text!r}") from None
    if not math.isfinite(out):
        raise ParameterError(f"config key {key!r}: not a finite number: {text!r}")
    return out


def _parse(key: str, text: str, kind):
    if isinstance(kind, tuple):
        _check_named(f"config key {key!r}", text, kind)
        return text
    if kind is str:
        return text
    if kind is tuple:
        return tuple(_finite(key, t) for t in text.replace(",", " ").split())
    num = _finite(key, text)
    if kind is float:
        return num
    if num != int(num):
        raise ParameterError(f"config key {key!r}: expected an integer, got {num}")
    return int(num)


def _show(value, kind) -> str:
    if kind is tuple:
        return " ".join(repr(t) for t in value)
    return repr(value) if kind is float else str(value)


def _required(f) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


class _Reader:
    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self.used: set[str] = set()

    def get(self, key: str, kind, required: bool = False):
        """The parsed value of key, or None when it is absent and optional."""
        if key not in self.raw:
            if required:
                raise ParameterError(f"missing required config key {key!r}")
            return None
        self.used.add(key)
        return _parse(key, self.raw[key], kind)

    def spec(self, prefix: str, kinds: dict):
        kind = self.get(prefix + "kind", str, None not in kinds)
        if kind not in kinds:
            raise ParameterError(f"config key {prefix + 'kind'!r}: unknown kind {kind!r}")
        cls = kinds[kind]
        values = {}
        for f in fields(cls):
            key = prefix + f.name
            value = self.points() if key == "potential.points" else self.get(key, float, _required(f))
            if value is not None:
                values[f.name] = value
        return cls(**values)

    def points(self) -> tuple[tuple[float, float], ...]:
        text = self.get("potential.points", str)
        if text is not None:
            return _parse_points(text)
        radius = self.get("potential.circle_radius", float)
        count = self.get("potential.circle_count", int)
        if radius is None or count is None:
            raise ParameterError(
                "multi_delta_2d needs potential.points or potential.circle_radius"
                " plus potential.circle_count"
            )
        return annulus_points(radius, count)


def _parse_points(text: str) -> tuple[tuple[float, float], ...]:
    pts = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.replace(",", " ").split()
        if len(parts) != 2:
            raise ParameterError(f"potential.points: expected 'x1 x2' pairs, got {chunk!r}")
        pts.append(tuple(_finite("potential.points", p) for p in parts))
    if not pts:
        raise ParameterError("potential.points: no points given")
    return tuple(pts)


def build_simulation_config(raw: dict[str, str]) -> SimulationConfig:
    """The SimulationConfig of a parsed config file (see the module docstring)."""
    r = _Reader(raw)
    values = {}
    for key, (name, kind) in _KEYS.items():
        if isinstance(kind, dict):
            values[name] = r.spec(key, kind)
            continue
        value = r.get(key, kind, _required(SimulationConfig.__dataclass_fields__[name]))
        if value is not None:
            values[name] = value
    dims = _spatial_dims(values["potential"])
    given = r.get("grid.dims", int)
    if given is not None and given != dims:
        raise ParameterError(
            f"config key 'grid.dims' = {given}: potential.kind = {raw['potential.kind']!r}"
            f" lives in {dims} spatial dimension(s)"
        )
    leftover = sorted(set(raw) - r.used)
    if leftover:
        raise ParameterError(f"unknown config keys: {', '.join(leftover)}")
    return SimulationConfig(**values)


def _spec_echo(prefix: str, kinds: dict, spec) -> dict[str, str]:
    names = [kind for kind, cls in kinds.items() if cls is type(spec)]
    if not names:
        raise ParameterError(f"no config file expresses {type(spec).__name__}")
    out = {} if names[0] is None else {prefix + "kind": names[0]}
    for f in fields(spec):
        key, value = prefix + f.name, getattr(spec, f.name)
        out[key] = "; ".join(f"{p} {q}" for p, q in value) if key == "potential.points" else repr(value)
    return out


def config_echo(cfg: SimulationConfig) -> dict[str, str]:
    """Every key of cfg, resolved, as a config file that re-parses to cfg.

    An empty snapshot tuple is left out.  A spec of a class that no config
    file names raises ParameterError.
    """
    out = {"grid.dims": str(cfg.spatial_dims)}
    for key, (name, kind) in _KEYS.items():
        value = getattr(cfg, name)
        if isinstance(kind, dict):
            out.update(_spec_echo(key, kind, value))
        elif value != ():
            out[key] = _show(value, kind)
    return out
