"""The benchmark's workloads: seeded config texts and their output checks.

Every workload is a list of ``key = value`` config texts that go through the
package's own parser (``parse_config_text`` and ``build_simulation_config``),
so the benchmark enters the solver the way a config file does.  The seed
moves the packet centre, the potential strength and the annulus radius, but
never the grid, the step or the run length, so every seed does the same work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from wigsolve.config import build_simulation_config, config_echo, parse_config_text

# Grids are fixed by the workload definition; the quick grids only serve the
# self-test, which needs every path to run in seconds.
_PLANE_GRID = {False: {"Q": 20, "M": 21, "N_k": 128}, True: {"Q": 10, "M": 9, "N_k": 32}}
_TENSOR_GRID = {False: {"Q": 5, "M": 9, "N_k": 16}, True: {"Q": 3, "M": 5, "N_k": 8}}

_PLANE = """\
grid.dims = 1
grid.X_L = -30.0
grid.X_R = 30.0
grid.Q = {Q}
grid.M = {M}
grid.N_k = {N_k}
consts.hbar = 1.0
consts.mass = 1.0
time.dt = 0.01
time.t_final = {t_final!r}
time.scheme = yoshida4
observables.N_um = {N_um}
init.kind = gaussian
init.x0 = {x0!r}
init.k0 = {k0!r}
init.sigma = 2.0
"""

# potential lines per config of the 2-D workloads
_FAMILIES = {
    "delta": "potential.kind = delta\npotential.H = {H!r}\n",
    "log": "potential.kind = log\npotential.H = {H!r}\n",
    "log_poisson": "potential.kind = log\npotential.H = {H!r}\npotential.route = poisson\n",
    "inverse_power": "potential.kind = inverse_power\npotential.H = {H!r}\npotential.alpha = 0.5\n",
    "inverse_square": "potential.kind = inverse_square\npotential.H = {H!r}\n",
    "gaussian": "potential.kind = gaussian\npotential.H = {H!r}\npotential.a = 0.5\n",
    "gaussian_poisson": (
        "potential.kind = gaussian\npotential.H = {H!r}\npotential.a = 0.5\n"
        "potential.route = poisson\n"
    ),
}

# Fermi-Dirac initial data ignores consts.*: it always uses hbar = 0.658211899
# and the effective mass 0.067 m_e of its own spec (known defect, still open).
# The transport constants are spelled out so that they match the data.
_TENSOR = """\
grid.dims = 2
grid.X_L = -10.0
grid.X_R = 10.0
grid.Q = {Q}
grid.M = {M}
grid.N_k = {N_k}
consts.hbar = 0.658211899
consts.mass = {mass!r}
time.dt = 0.01
time.t_final = {t_final!r}
time.scheme = yoshida4
potential.kind = multi_delta_2d
potential.H = {H!r}
potential.circle_radius = {radius!r}
potential.circle_count = 8
init.kind = fermi_dirac
advect.inflow = background
advect.edge = symmetrized
"""
_FERMI_MASS = 0.067 * 5.68562966

# |m(T) - m(0)| per 2-D config, about 10x the largest drift seen over seeds
# 0-9 on the full grids.  Transport interpolation is not exactly
# conservative; the singular families drift most.
MASS_DRIFT_BOUND = {
    ("stream2d", "delta"): 5e-6,
    ("families2d", "delta"): 5e-6,
    ("families2d", "log"): 2e-6,
    ("families2d", "log_poisson"): 5e-6,
    ("families2d", "inverse_power"): 5e-6,
    ("families2d", "inverse_square"): 2e-4,
    ("families2d", "gaussian"): 1e-10,
    ("families2d", "gaussian_poisson"): 1e-10,
}
QUICK_MASS_DRIFT_BOUND = 1e-4  # the quick grids are under-resolved

# Seed-0 values at t_final on the full grids.  The tolerance admits the
# round-off of a reordered but equivalent computation and rejects a change of
# scheme, step or grid.  These anchor regressions; they do not validate the
# physics.
PINNED_RTOL = 1e-9
SYMMETRY_RTOL = 1e-12
PINNED = {
    "stream2d": {
        "delta": {
            "total_mass": 0.999996379619409,
            "partial_mass": 2.810280546652193e-06,
            "uncertainty": 0.501093590403218,
        },
    },
    "families2d": {
        "delta": {
            "total_mass": 0.999996420825103,
            "partial_mass": 7.903979218427253e-07,
            "uncertainty": 0.5001968238494482,
        },
        "log": {
            "total_mass": 0.9999961109649369,
            "partial_mass": 8.251878604079066e-07,
            "uncertainty": 0.5005633866946071,
        },
        "log_poisson": {
            "total_mass": 0.9999961653284299,
            "partial_mass": 8.262372230216088e-07,
            "uncertainty": 0.5010000417955499,
        },
        "inverse_power": {
            "total_mass": 0.9999963845100676,
            "partial_mass": 7.715440185030241e-07,
            "uncertainty": 0.500158939137202,
        },
        "inverse_square": {
            "total_mass": 0.9999909751189692,
            "partial_mass": 3.9169115809115906e-07,
            "uncertainty": 0.5013271502347701,
        },
        "gaussian": {
            "total_mass": 0.9999961857147416,
            "partial_mass": 7.864829014803826e-07,
            "uncertainty": 0.500203257922806,
        },
        "gaussian_poisson": {
            "total_mass": 0.9999961857147349,
            "partial_mass": 7.864829014809628e-07,
            "uncertainty": 0.5002032579229374,
        },
    },
    "fermi4d": {
        "multi_delta_2d": {
            "total_mass": 20.566800965240173,
        },
    },
}


def seeded_parameters(seed: int) -> dict[str, float]:
    """Packet centre, strength and annulus radius; seed 0 is the base case.

    The ranges keep the packet's tails inside the x and k windows (no
    initial-data warning) and the annulus inside the 4-D domain.
    """
    if seed == 0:
        return {"x0": -10.0, "k0": 2.0, "H": 1.0, "radius": 2.0}
    rng = random.Random(seed)
    return {
        "x0": rng.uniform(-12.0, -8.0),
        "k0": rng.uniform(1.8, 2.2),
        "H": rng.uniform(0.8, 1.2),
        "radius": rng.uniform(1.5, 2.5),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]  # 2-D configs; empty for the 4-D workload
    t_final: float
    quick_t_final: float

    def config_texts(self, seed: int, quick: bool = False) -> dict[str, str]:
        p = seeded_parameters(seed)
        t_final = self.quick_t_final if quick else self.t_final
        if not self.families:
            fields = dict(_TENSOR_GRID[quick], mass=_FERMI_MASS, t_final=t_final, **p)
            return {"multi_delta_2d": _TENSOR.format(**fields)}
        fields = dict(_PLANE_GRID[quick], N_um=100 if quick else 600, t_final=t_final, **p)
        return {f: _PLANE.format(**fields) + _FAMILIES[f].format(**p) for f in self.families}

    def configs(self, seed: int, quick: bool = False):
        """{config name: SimulationConfig} parsed from the config texts."""
        return {
            name: build_simulation_config(parse_config_text(text))
            for name, text in self.config_texts(seed, quick).items()
        }


# Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream2d", ("delta",), t_final=0.5, quick_t_final=0.05),
        Workload("families2d", tuple(_FAMILIES), t_final=0.2, quick_t_final=0.05),
        Workload("fermi4d", (), t_final=0.02, quick_t_final=0.02),
    )
}


def echo(configs) -> dict[str, dict[str, str]]:
    return {name: config_echo(cfg) for name, cfg in configs.items()}


def _close(value: float, expect: float) -> bool:
    return abs(value - expect) <= PINNED_RTOL * abs(expect)


def check(workload: str, name: str, cfg, output, seed: int, quick: bool) -> tuple[list[str], dict]:
    """Problems found in one run's output, and its diagnostics.

    The invariant checks apply to every seed; the pinned values to seed 0 on
    the full grids only.
    """
    snapshots, series = output
    problems: list[str] = []
    if cfg.spatial_dims == 1:
        field = snapshots[-1].values
        mass = series.column("total_mass")
        final = {
            "total_mass": float(mass[-1]),
            "partial_mass": float(series.partial_mass[-1]),
            "uncertainty": float(series.uncertainty[-1]),
        }
        drift = abs(final["total_mass"] - float(mass[0]))
        bound = QUICK_MASS_DRIFT_BOUND if quick else MASS_DRIFT_BOUND[workload, name]
        if not drift <= bound:
            problems.append(f"{name}: mass drift {drift:.3e} above {bound:.0e}")
        diagnostics = {
            "mass_drift": drift,
            # Delta x Delta p may dip below hbar/2 on an under-resolved run;
            # this is reported, not checked
            "min_uncertainty_excess": float(series.column("uncertainty").min())
            - 0.5 * cfg.consts.hbar,
        }
    else:
        field = snapshots[-1][1]
        final = {"total_mass": float(series.total_mass[-1])}
        scale = float(np.abs(field).max())
        images = {"parity": field[::-1, ::-1], "quarter_turn": np.rot90(field), "transpose": field.T}
        diagnostics = {}
        for label, image in images.items():
            err = float(np.abs(field - image).max()) / scale if scale > 0 else math.inf
            diagnostics[f"{label}_error"] = err
            if not err <= SYMMETRY_RTOL:
                problems.append(f"{name}: marginal {label} error {err:.3e}")
    if not np.isfinite(field).all():
        problems.append(f"{name}: non-finite field at t_final")
    if seed == 0 and not quick:
        for key, expect in PINNED[workload][name].items():
            if not _close(final[key], expect):
                problems.append(f"{name}: {key} {final[key]!r} != pinned {expect!r}")
    diagnostics.update(final)
    return problems, diagnostics
