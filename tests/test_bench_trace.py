"""The benchmark's layer trace (bench/spans.py) against the package it wraps.

The trace names its entry points by string and reads their arguments, so a
change to the package can silently drop a layer metric or count the wrong
work; these tests import it from the checkout without writing anything
under bench/.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wigsolve.dynamics import advect
from wigsolve.grid import PhaseSpaceGrid, WignerState, build_spatial_mesh, build_wavenumber_mesh
from wigsolve.kernels import (
    InversePowerPotential,
    LogPotential,
    PhysicalConstants,
    clear_table_cache,
)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = writes
        del sys.modules[spec.name]


def test_every_traced_entry_point_resolves(spans):
    assert spans.unresolved() == []


def test_sweep_flop_reads_real_sweep_calls(spans):
    # one symmetrized 4-D transport on a grid whose every axis has its own
    # length: each sweep's field is apply's second positional argument,
    # (Nk, M, Q, R), and its plan sweeps one mirrored slice more
    x1, x2 = build_spatial_mesh(-4.0, 4.0, 3, 5), build_spatial_mesh(-5.0, 5.0, 2, 7)
    k1, k2 = build_wavenumber_mesh(-np.pi, np.pi, 8), build_wavenumber_mesh(-np.pi, np.pi, 16)
    grid = PhaseSpaceGrid.tensor4d(x1, x2, k1, k2)
    state = WignerState(grid, np.ones(grid.shape))
    tracer = spans.Tracer()
    with tracer.installed():
        advect(state, PhysicalConstants(), 0.1, symmetrized_edge=True)
    applies = [s for s in tracer.spans if s.name == "_SweepPlan.apply"]
    # (Nk, M, Q, R) of the x1 sweep, then of the x2 sweep
    shapes = [(8, 5, 3, 14 * 16), (16, 7, 2, 15 * 8)]
    assert [s.info["flop"] for s in applies] == [
        4 * M * M * Q * R * (Nk + 1) for Nk, M, Q, R in shapes
    ]


def _cold_table_points(spans, spec, transform):
    """(point counts of the transform's spans, distinct |w|, table entries)
    of one cold table on a grid where 2x +- nu~ repeats."""
    grid = PhaseSpaceGrid.plane(build_spatial_mesh(-6.0, 6.0, 4, 7),
                                build_wavenumber_mesh(-np.pi, np.pi, 16))
    x = grid.x.collocation_points[:, None]
    nu = np.arange(16 // 2 + 1)[None, :]  # nu~ = nu on this window
    distinct = np.unique(np.abs(np.concatenate([2.0 * x + nu, 2.0 * x - nu]))).size
    clear_table_cache()
    tracer = spans.Tracer()
    try:
        with tracer.installed():
            spans.kernels.kernel_coefficients(spec, grid, PhysicalConstants())
    finally:
        clear_table_cache()
    points = [s.info["points"] for s in tracer.spans if s.name == transform]
    return points, distinct, x.size * nu.size


def test_cold_inverse_power_table_traces_one_transform_per_distinct_w(spans):
    # the table evaluates C once per distinct |2x +- nu~| of both signs, and
    # the trace's point count reads that, not the table's size
    points, distinct, entries = _cold_table_points(
        spans, InversePowerPotential(H=1.0, alpha=0.5), "cos_power_integral")
    assert points == [distinct]
    assert distinct < entries  # the grid repeats |w|, so the count shows it


def test_cold_log_table_traces_one_cosine_integral_per_distinct_w(spans):
    # the log table's C is Cin(|w| L), and the trace wraps its cosine integral
    points, distinct, entries = _cold_table_points(spans, LogPotential(H=1.0), "cosine_integral")
    assert points == [distinct]
    assert distinct < entries
