"""Outside-in layer trace: wrap each layer's entry points and record spans.

Nothing in the package is edited.  Each entry point is replaced, for the
length of a traced pass, by a wrapper installed where its caller looks the
name up (a module global or a class attribute), and restored afterwards.
A span holds its name, its parent span, start and end; a layer's self time
is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from wigsolve import kernels

# class name of a potential -> family name used in the table metrics
_FAMILY = {
    "DeltaPotential": "delta",
    "LogPotential": "log",
    "InversePowerPotential": "inverse_power",
    "InverseSquarePotential": "inverse_square",
    "GaussianBarrier": "gaussian",
    "MultiDeltaPotential2D": "multi_delta_2d",
}
TABLE_FAMILIES = (
    "delta", "log", "log_poisson", "inverse_power", "inverse_square",
    "gaussian", "gaussian_poisson", "multi_delta_2d",
)


def _table_info(route):
    def info(args, kwargs, result, before, after):
        family = _FAMILY.get(type(args[0]).__name__, type(args[0]).__name__)
        return {
            "family": family if route == "exact" else f"{family}_{route}",
            "built": after > before,
            "bytes": result.multipliers.nbytes if after > before else 0,
        }
    return info


def _table_cache_size():
    return len(kernels._TABLE_CACHE)


def _points(args, kwargs, result, before, after):
    return {"points": int(np.size(args[0]))}


def _sweep_flop(args, kwargs, result, before, after):
    # two (M x M) @ (M x Q*R) products per wavenumber slice, plus the
    # mirrored edge slice when the symmetrized transport is on
    plan, work = args[0], args[1]
    nk, m, q, r = work.shape
    slices = nk + (plan.edge is not None)
    return {"flop": 4 * m * m * q * r * slices}


def _multiplier_count(args, kwargs, result, before, after):
    return {"multipliers": len(getattr(args[0], "mults", ()))}


@dataclass(frozen=True)
class Entry:
    module: str
    attr: str  # "name" or "Class.method"
    info: Callable | None = None  # (args, kwargs, result, before, after) -> dict
    probe: Callable | None = None  # state read before and after the call


# Every traced entry point, wrapped where its caller looks it up.
ENTRY_POINTS = (
    Entry("wigsolve.kernels", "kernel_coefficients", _table_info("exact"), _table_cache_size),
    Entry("wigsolve.dynamics", "kernel_coefficients", _table_info("exact"), _table_cache_size),
    Entry("wigsolve.dynamics", "poisson_kernel_coefficients", _table_info("poisson"),
          _table_cache_size),
    Entry("wigsolve.kernels", "cos_power_integral", _points),
    Entry("wigsolve.kernels", "cosine_integral", _points),
    Entry("wigsolve.dynamics", "_SweepPlan.__init__"),
    Entry("wigsolve.dynamics", "_SweepPlan.apply", _sweep_flop),
    Entry("wigsolve.dynamics", "_Stepper2D.__init__", _multiplier_count),
    Entry("wigsolve.dynamics", "_Stepper2D.advance"),
    Entry("wigsolve.dynamics", "advect"),
    Entry("wigsolve.dynamics", "apply_kernel"),
    Entry("wigsolve.dynamics", "step"),
    Entry("wigsolve.dynamics", "_multipliers_half_4d"),
    Entry("wigsolve.dynamics", "evolve"),
    Entry("wigsolve.dynamics", "evolve_4d"),
    Entry("wigsolve.observables", "_initial_state"),
    Entry("wigsolve.observables", "UniformMeshQuadrature.__init__"),
    Entry("wigsolve.observables", "UniformMeshQuadrature.append_row_from_work"),
    Entry("wigsolve.observables", "total_mass"),
    Entry("wigsolve.observables", "spatial_marginal_2d"),
)


def _resolve(entry: Entry):
    """(owner, attribute name, original) or None when the entry is gone."""
    try:
        owner = importlib.import_module(entry.module)
    except ImportError:
        return None
    *path, last = entry.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, last, None)
    return None if original is None else (owner, last, original)


def unresolved(entries=ENTRY_POINTS) -> list[str]:
    return [f"{e.module}.{e.attr}" for e in entries if _resolve(e) is None]


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 at the top
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; clock is injectable so tests can fake time."""

    def __init__(self, entries=ENTRY_POINTS, clock=time.perf_counter):
        self.entries = tuple(entries)
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing = unresolved(self.entries)

    def wrap(self, name: str, fn, info=None, probe=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = Span(name, parent, tracer.clock())
            tracer.spans.append(span)
            tracer._stack.append(index)
            before = probe() if probe else None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = tracer.clock()
            if info is not None:
                span.info = info(args, kwargs, result, before, probe() if probe else None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every resolvable entry point; restore the originals on exit."""
        restore = []
        try:
            for entry in self.entries:
                found = _resolve(entry)
                if found is None:
                    continue
                owner, attr, original = found
                own = attr in vars(owner)
                setattr(owner, attr, self.wrap(entry.attr, original, entry.info, entry.probe))
                restore.append((owner, attr, original, own))
            yield self
        finally:
            for owner, attr, original, own in reversed(restore):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out


_TABLE = ("kernel_coefficients", "poisson_kernel_coefficients")
_STEP = ("_Stepper2D.advance", "step")  # a 2-D step is one advance, a 4-D step one step()
_RECORD = ("UniformMeshQuadrature.append_row_from_work", "total_mass")
_MULTIPLIERS = ("_Stepper2D.__init__", "_multipliers_half_4d")

# Self-time metrics: metric -> entry points whose self time it sums.
SELF_TIME = {
    "specfun.cos_power_integral_s": ("cos_power_integral",),
    "specfun.cosine_integral_s": ("cosine_integral",),
    "dynamics.transport_apply_s": ("_SweepPlan.apply",),
    "dynamics.sweep_plan_build_s": ("_SweepPlan.__init__",),
    "dynamics.multiplier_build_s": _MULTIPLIERS,
    "dynamics.kernel_substep_s": ("_Stepper2D.advance", "apply_kernel"),
    "dynamics.layout_s": ("advect",),
    "dynamics.driver_s": ("evolve", "evolve_4d", "step"),
    "observables.init_s": ("_initial_state",),
    "observables.quadrature_build_s": ("UniformMeshQuadrature.__init__",),
    "observables.record_s": _RECORD,
    "observables.snapshot_s": ("spatial_marginal_2d",),
}
# Every layer metric -> the entry points it is measured at.  A metric whose
# entry point no longer resolves is left out, never reported as zero.
SOURCES = {
    **SELF_TIME,
    **{f"kernels.table_s.{f}": _TABLE for f in TABLE_FAMILIES},
    "kernels.table_builds": _TABLE,
    "kernels.table_cache_hit_ratio": _TABLE,
    "kernels.table_mb": _TABLE,
    "specfun.cos_power_integral_points": ("cos_power_integral",),
    "specfun.cosine_integral_points": ("cosine_integral",),
    "dynamics.transport_apply_calls": ("_SweepPlan.apply",),
    "dynamics.transport_gflop": ("_SweepPlan.apply",),
    "dynamics.transport_gflops": ("_SweepPlan.apply",),
    "dynamics.sweep_plan_builds": ("_SweepPlan.__init__",),
    "dynamics.multiplier_builds": _MULTIPLIERS,
    "dynamics.step_p50_ms": _STEP,
    "dynamics.step_tail_ms": _STEP,
    "dynamics.step_tail_pct": _STEP,
    "dynamics.steps": _STEP,
    "observables.record_calls": _RECORD,
}
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float:
    """Highest percentile that leaves at least ten samples beyond it."""
    fits = [p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    return fits[-1] if fits else TAIL_PERCENTILES[0]


def layer_metrics(spans: list[Span], own: list[float], passes: int,
                  missing: list[str]) -> dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` identical passes.

    own holds each span's self time; missing the unresolved entry points.
    """
    busy: dict[str, float] = {}
    for s, t in zip(spans, own):
        key = s.name
        if key == "spatial_marginal_2d" and s.parent >= 0 and spans[s.parent].name == "total_mass":
            key = "total_mass"  # the marginal inside the mass record is record time
        busy[key] = busy.get(key, 0.0) + t

    def named(*names):
        return [s for s in spans if s.name in names]

    out = {m: sum(busy.get(e, 0.0) for e in entries) for m, entries in SELF_TIME.items()}
    for f in TABLE_FAMILIES:
        out[f"kernels.table_s.{f}"] = 0.0
    for s, t in zip(spans, own):
        if s.name in _TABLE:
            out[f"kernels.table_s.{s.info['family']}"] += t
    tables = named(*_TABLE)
    builds = sum(s.info["built"] for s in tables)
    out["kernels.table_builds"] = builds
    out["kernels.table_mb"] = sum(s.info["bytes"] for s in tables) / 1e6
    for fn in ("cos_power_integral", "cosine_integral"):
        out[f"specfun.{fn}_points"] = sum(s.info["points"] for s in named(fn))
    applies = named("_SweepPlan.apply")
    out["dynamics.transport_apply_calls"] = len(applies)
    out["dynamics.transport_gflop"] = sum(s.info["flop"] for s in applies) / 1e9
    out["dynamics.sweep_plan_builds"] = len(named("_SweepPlan.__init__"))
    out["dynamics.multiplier_builds"] = sum(
        s.info["multipliers"] for s in named("_Stepper2D.__init__")
    ) + len(named("_multipliers_half_4d"))
    out["observables.record_calls"] = len(named(*_RECORD))
    out = {m: v / passes for m, v in out.items()}

    # ratios and distributions are not per pass
    if tables:
        out["kernels.table_cache_hit_ratio"] = (len(tables) - builds) / len(tables)
    if out["dynamics.transport_apply_s"] > 0:
        out["dynamics.transport_gflops"] = (
            out["dynamics.transport_gflop"] / out["dynamics.transport_apply_s"]
        )
    steps = np.array([s.end - s.start for s in named(*_STEP)]) * 1e3
    if steps.size:
        pct = tail_percentile(steps.size)
        out["dynamics.step_p50_ms"] = float(np.percentile(steps, 50.0))
        out["dynamics.step_tail_ms"] = float(np.percentile(steps, pct))
        out["dynamics.step_tail_pct"] = pct
        out["dynamics.steps"] = float(steps.size)

    gone = {m.split(".", 2)[2] for m in missing}
    return {m: v for m, v in out.items() if not set(SOURCES[m]) & gone}
