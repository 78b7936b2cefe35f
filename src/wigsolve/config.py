"""Flat key = value run configuration files.

Lines hold dotted keys ("grid.N_k = 512"), '#' starts a comment, blank lines
are skipped.  Parsing into a SimulationConfig names the offending key on any
error so batch scripts fail loudly.
"""

from __future__ import annotations

import math

from .dynamics import SimulationConfig, SplitScheme
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


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


class _Reader:
    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        self.used: set[str] = set()

    def get(self, key: str, default=None, required: bool = False) -> str | None:
        if key in self.raw:
            self.used.add(key)
            return self.raw[key]
        if required:
            raise ParameterError(f"missing required config key {key!r}")
        return default

    def number(self, key: str, default=None, required: bool = False) -> float | None:
        val = self.get(key, None, required)
        return default if val is None else _finite(key, val)

    def integer(self, key: str, default=None, required: bool = False) -> int | None:
        val = self.number(key, None, required)
        if val is None:
            return default
        if val != int(val):
            raise ParameterError(f"config key {key!r}: expected an integer, got {val}")
        return int(val)

    def unused(self) -> list[str]:
        return sorted(set(self.raw) - self.used)


def _finite(key: str, text: str) -> float:
    try:
        out = float(text)
    except ValueError:
        raise ParameterError(f"config key {key!r}: not a number: {text!r}") from None
    if not math.isfinite(out):
        raise ParameterError(f"config key {key!r}: not a finite number: {text!r}")
    return out


def _parse_points(text: str) -> tuple[tuple[float, float], ...]:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 2:
            raise ParameterError(f"potential.points: expected 'x1 x2' pairs, got {chunk!r}")
        pts.append((_finite("potential.points", parts[0]), _finite("potential.points", parts[1])))
    if not pts:
        raise ParameterError("potential.points: no points given")
    return tuple(pts)


def _potential(r: _Reader):
    kind = r.get("potential.kind", required=True)
    H = r.number("potential.H", required=True)
    if kind == "delta":
        return DeltaPotential(H=H)
    if kind == "log":
        return LogPotential(H=H)
    if kind == "inverse_power":
        return InversePowerPotential(H=H, alpha=r.number("potential.alpha", required=True))
    if kind == "inverse_square":
        return InverseSquarePotential(H=H)
    if kind == "gaussian":
        return GaussianBarrier(H=H, a=r.number("potential.a", required=True))
    if kind == "multi_delta_2d":
        pts_text = r.get("potential.points")
        if pts_text is not None:
            pts = _parse_points(pts_text)
        else:
            radius = r.number("potential.circle_radius")
            count = r.integer("potential.circle_count")
            if radius is None or count is None:
                raise ParameterError(
                    "multi_delta_2d needs potential.points or potential.circle_radius"
                    " plus potential.circle_count"
                )
            pts = annulus_points(radius, count)
        return MultiDeltaPotential2D(H=H, points=pts)
    raise ParameterError(f"config key 'potential.kind': unknown family {kind!r}")


def _initial(r: _Reader, dims: int):
    kind = r.get("init.kind", "gaussian")
    if kind == "gaussian":
        spec = GaussianPacketSpec(
            x0=r.number("init.x0", required=True),
            k0=r.number("init.k0", required=True),
            sigma=r.number("init.sigma", required=True),
        )
        return spec if dims == 1 else (spec, spec)
    if kind == "fermi_dirac":
        return FermiDiracSpec(
            effective_mass_ratio=r.number("init.mass_ratio", 0.067),
            m_e=r.number("init.m_e", 5.68562966),
            k_B=r.number("init.k_B", 8.61734279e-5),
            T=r.number("init.T", 300.0),
            E_F=r.number("init.E_F", 0.1),
        )
    raise ParameterError(f"config key 'init.kind': unknown initial data {kind!r}")


def build_simulation_config(raw: dict[str, str], **overrides) -> SimulationConfig:
    r = _Reader(raw)
    dims = r.integer("grid.dims", 1)
    t_final = r.number("time.t_final", required=True)
    snaps_text = r.get("time.snapshots", "")
    snapshots = tuple(_finite("time.snapshots", t) for t in snaps_text.replace(",", " ").split())
    cfg = dict(
        x_lo=r.number("grid.X_L", required=True),
        x_hi=r.number("grid.X_R", required=True),
        num_elements=r.integer("grid.Q", required=True),
        points_per_element=r.integer("grid.M", required=True),
        k_min=r.number("grid.k_min", -math.pi),
        k_max=r.number("grid.k_max", math.pi),
        num_modes=r.integer("grid.N_k", required=True),
        spatial_dims=dims,
        consts=PhysicalConstants(
            hbar=r.number("consts.hbar", 1.0), mass=r.number("consts.mass", 1.0)
        ),
        potential=_potential(r),
        initial=_initial(r, dims),
        dt=r.number("time.dt", required=True),
        t_final=t_final,
        snapshot_times=snapshots,
        n_uniform=r.integer("observables.N_um", 600),
        scheme=SplitScheme.named(r.get("time.scheme", "yoshida4")),
        kernel_route=r.get("potential.route", "exact"),
        poisson_delta_y=r.number("potential.poisson_dy", None),
        poisson_offset=r.number("potential.poisson_offset", 0.0),
        inflow=r.get("advect.inflow", "zero"),
        edge_transport=r.get("advect.edge", "one_sided"),
        record_observables=r.integer("observables.record", 1) != 0,
    )
    cfg.update(overrides)
    leftover = r.unused()
    if leftover:
        raise ParameterError(f"unknown config keys: {', '.join(leftover)}")
    return SimulationConfig(**cfg)


def config_echo(cfg: SimulationConfig) -> dict[str, str]:
    """Fully resolved key = value view sufficient to re-run."""
    pot = cfg.potential
    out = {
        "grid.dims": str(cfg.spatial_dims),
        "grid.X_L": repr(cfg.x_lo),
        "grid.X_R": repr(cfg.x_hi),
        "grid.Q": str(cfg.num_elements),
        "grid.M": str(cfg.points_per_element),
        "grid.k_min": repr(cfg.k_min),
        "grid.k_max": repr(cfg.k_max),
        "grid.N_k": str(cfg.num_modes),
        "consts.hbar": repr(cfg.consts.hbar),
        "consts.mass": repr(cfg.consts.mass),
        "time.dt": repr(cfg.dt),
        "time.t_final": repr(cfg.t_final),
        "time.scheme": cfg.scheme.name,
        "observables.N_um": str(cfg.n_uniform),
        "observables.record": "1" if cfg.record_observables else "0",
        "potential.route": cfg.kernel_route,
        "advect.inflow": cfg.inflow,
        "advect.edge": cfg.edge_transport,
    }
    if cfg.snapshot_times:
        out["time.snapshots"] = " ".join(repr(t) for t in cfg.snapshot_times)
    if cfg.poisson_delta_y is not None:
        out["potential.poisson_dy"] = repr(cfg.poisson_delta_y)
    if cfg.poisson_offset:
        out["potential.poisson_offset"] = repr(cfg.poisson_offset)
    if isinstance(pot, DeltaPotential):
        out.update({"potential.kind": "delta", "potential.H": repr(pot.H)})
    elif isinstance(pot, LogPotential):
        out.update({"potential.kind": "log", "potential.H": repr(pot.H)})
    elif isinstance(pot, InversePowerPotential):
        out.update({"potential.kind": "inverse_power", "potential.H": repr(pot.H),
                    "potential.alpha": repr(pot.alpha)})
    elif isinstance(pot, InverseSquarePotential):
        out.update({"potential.kind": "inverse_square", "potential.H": repr(pot.H)})
    elif isinstance(pot, GaussianBarrier):
        out.update({"potential.kind": "gaussian", "potential.H": repr(pot.H),
                    "potential.a": repr(pot.a)})
    elif isinstance(pot, MultiDeltaPotential2D):
        out.update({
            "potential.kind": "multi_delta_2d",
            "potential.H": repr(pot.H),
            "potential.points": "; ".join(f"{p} {q}" for p, q in pot.points),
        })
    init = cfg.initial
    if isinstance(init, FermiDiracSpec):
        out.update({
            "init.kind": "fermi_dirac",
            "init.mass_ratio": repr(init.effective_mass_ratio),
            "init.m_e": repr(init.m_e),
            "init.k_B": repr(init.k_B),
            "init.T": repr(init.T),
            "init.E_F": repr(init.E_F),
        })
    else:
        g = init if isinstance(init, GaussianPacketSpec) else init[0]
        out.update({
            "init.kind": "gaussian",
            "init.x0": repr(g.x0),
            "init.k0": repr(g.k0),
            "init.sigma": repr(g.sigma),
        })
    return out
