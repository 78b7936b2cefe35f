"""Transport and kernel substeps, composed stepping, evolve drivers."""

import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    k_forward,
    kernel_2d_rfft,
    mode_position,
    multipliers_half_2d,
    multipliers_half_4d_natural,
    step_2d_natural,
    step_4d_natural,
)
import wigsolve
from wigsolve.dynamics import (
    SCHEMES,
    SimulationConfig,
    _LAYOUTS,
    _Stepper,
    _SweepPlan,
    _factors,
    _from_work,
    _bins,
    _multipliers,
    _stage_sequence,
    _table_rows,
    _sweep_plans,
    _to_work,
    _working_set,
    advect,
    apply_kernel,
    evolve,
    evolve_4d,
    step,
)
from wigsolve.errors import DivergenceError, DomainError, ParameterError
from wigsolve.grid import (
    PhaseSpaceGrid,
    WignerState,
    _split,
    build_spatial_mesh,
    build_wavenumber_mesh,
)
from wigsolve.kernels import (
    DeltaPotential,
    InversePowerPotential,
    KernelTable,
    LogPotential,
    MultiDeltaPotential2D,
    PhysicalConstants,
    annulus_points,
    clear_table_cache,
    kernel_coefficients,
)
from wigsolve.observables import (
    FermiDiracSpec,
    GaussianPacketSpec,
    _cc_x_weights,
    _marginal,
    _mass,
    init_fermi_dirac_4d,
    init_gaussian,
    partial_mass,
    spatial_marginal,
    spatial_marginal_2d,
    total_mass,
    uncertainty,
)

CONSTS = PhysicalConstants(hbar=1.0, mass=1.0)
PACKET = GaussianPacketSpec(x0=-10.0, k0=2.0, sigma=2.0)


def grid_2d(N=64, M=21, Q=20, X=30.0):
    return PhaseSpaceGrid.plane(
        build_spatial_mesh(-X, X, Q, M), build_wavenumber_mesh(-np.pi, np.pi, N)
    )


def delta_config(**kw):
    base = dict(
        x_lo=-30.0, x_hi=30.0, num_elements=20, points_per_element=21,
        k_min=-np.pi, k_max=np.pi, num_modes=64,
        potential=DeltaPotential(H=1.0), initial=PACKET,
        dt=0.01, t_final=1.0, consts=CONSTS, n_uniform=200,
    )
    base.update(kw)
    return SimulationConfig(**base)


# ----------------------------------------------------------------------
# advect
# ----------------------------------------------------------------------

def test_advect_zero_velocity_slice_unchanged():
    grid = grid_2d()
    state = init_gaussian(grid, PACKET)
    j0 = grid.k.num_points // 2  # node k = 0 on the symmetric mesh
    assert grid.k.collocation_k[j0] == 0.0
    out = advect(state, CONSTS, 0.37)
    np.testing.assert_array_equal(out.values[:, j0], state.values[:, j0])


def test_advect_constant_slices():
    grid = grid_2d()
    state = WignerState(grid, np.ones(grid.shape))
    out = advect(state, CONSTS, 0.25)
    v = CONSTS.hbar * grid.k.collocation_k / CONSTS.mass
    x = grid.x.collocation_points
    for j in (3, 40, 60):
        depart = x - v[j] * 0.25
        inside = (depart >= -30.0) & (depart <= 30.0)
        np.testing.assert_allclose(out.values[inside, j], 1.0, atol=1e-13)
        assert np.all(out.values[~inside, j] == 0.0)


def test_advect_background_inflow_keeps_constant_field():
    grid = grid_2d()
    state = WignerState(grid, np.tile(np.linspace(1.0, 2.0, 64), (grid.x.num_points, 1)))
    prof = state.values[0].copy()
    out = advect(state, CONSTS, 0.4, inflow=prof)
    np.testing.assert_allclose(out.values, state.values, atol=1e-12)


def test_advect_and_step_refuse_a_misshaped_inflow():
    grid = grid_2d()
    state = init_gaussian(grid, PACKET)
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    for bad in (np.ones(1), np.ones((64, 1)), np.ones(65), np.ones((1, 64))):
        with pytest.raises(ParameterError, match=r"inflow must have shape \(64,\)"):
            advect(state, CONSTS, 0.1, inflow=bad)
        with pytest.raises(ParameterError, match=r"inflow must have shape \(64,\)"):
            step(state, table, CONSTS, 0.01, "strang", inflow=bad)
    x, k = build_spatial_mesh(-10.0, 10.0, 3, 5), build_wavenumber_mesh(-np.pi, np.pi, 8)
    state4 = WignerState(PhaseSpaceGrid.tensor4d(x, x, k, k), np.ones((15, 15, 8, 8)))
    for bad in (np.ones(8), np.ones((8, 1)), np.ones((1, 8)), np.ones((8, 8, 1))):
        with pytest.raises(ParameterError, match=r"inflow must have shape \(8, 8\)"):
            advect(state4, CONSTS, 0.1, inflow=bad)


def test_advect_free_streaming_translate():
    # spectral-resolution run: one exact characteristic jump of 10 fs
    grid = grid_2d(N=128, M=31)
    state = init_gaussian(grid, PACKET)
    out = advect(state, CONSTS, 10.0)
    x = grid.x.collocation_points
    k = grid.k.collocation_k
    depart = x[:, None] - k[None, :] * 10.0
    expect = np.where(
        (depart >= -30.0) & (depart <= 30.0),
        np.exp(-((depart + 10.0) ** 2) / 8.0 - 8.0 * (k[None, :] - 2.0) ** 2) / math.pi,
        0.0,
    )
    assert np.abs(out.values - expect).max() < 1e-4
    assert np.abs(out.values - expect).max() < 1e-10  # interpolation is exact here


def test_advect_negative_tau_inverts_positive():
    grid = grid_2d()
    state = init_gaussian(grid, PACKET)
    fwd = advect(state, CONSTS, 0.31)
    back = advect(fwd, CONSTS, -0.31)
    # interior round trip: boundary strips were zeroed, packet is far away
    assert np.abs(back.values - state.values).max() < 1e-9


def test_advect_stage_bound():
    grid = grid_2d()
    state = init_gaussian(grid, PACKET)
    with pytest.raises(ParameterError):
        advect(state, CONSTS, 11.0)


@pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("run", [
    lambda s, t, tau: advect(s, CONSTS, tau),
    lambda s, t, tau: apply_kernel(s, t, tau),
    lambda s, t, tau: step(s, t, CONSTS, tau, "strang"),
], ids=["advect", "apply_kernel", "step"])
def test_substeps_refuse_a_non_finite_stage_length(run, length):
    # a transport of NaN fs used to return a zero field, a kernel substep NaNs
    grid = grid_2d(N=16, M=7, Q=4)
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    with pytest.raises(ParameterError, match=r"stage length -?(nan|inf) fs is not finite"):
        run(init_gaussian(grid, PACKET), table, length)


@pytest.mark.parametrize("dt", [0.01, 0.05, 1 / 3, -0.02])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_stage_sequence_is_the_fused_strang_chain_bit_for_bit(scheme, dt):
    # the reference chains A(w dt/2) B(w dt) A(w dt/2) per weight w and
    # fuses adjacent transports by adding their lengths
    fused = []
    for w in SCHEMES[scheme]:
        for kind, tau in (("A", 0.5 * w * dt), ("B", w * dt), ("A", 0.5 * w * dt)):
            if fused and fused[-1][0] == kind:
                fused[-1] = (kind, fused[-1][1] + tau)
            else:
                fused.append((kind, tau))
    got = _stage_sequence(scheme, dt)
    assert [kind for kind, _ in got] == [kind for kind, _ in fused]
    assert np.array_equal(np.array([tau for _, tau in got]).view(np.int64),
                          np.array([tau for _, tau in fused]).view(np.int64))


def test_advect_refuses_symmetrized_edge_on_asymmetric_window():
    # an asymmetric window has no unpaired k_min node to symmetrize
    grid = PhaseSpaceGrid.plane(build_spatial_mesh(-10.0, 10.0, 4, 7),
                                build_wavenumber_mesh(-3.0, 3.5, 16))
    state = WignerState(grid, np.zeros(grid.shape))
    with pytest.raises(ParameterError, match="edge_transport"):
        advect(state, CONSTS, 0.1, symmetrized_edge=True)


@pytest.mark.parametrize("with_inflow", [False, True], ids=["zero", "inflow"])
@pytest.mark.parametrize("potential", [DeltaPotential(H=1.0), LogPotential(H=1.0)],
                         ids=["delta", "log"])
def test_2d_step_is_parity_equivariant_only_with_the_symmetrized_edge(potential, with_inflow):
    # the mirror image f(-x, -k) of a field, stepped with the mirrored
    # inflow, is the mirror image of the stepped field.  On a symmetric mesh
    # and window the nodes are their own mirror images (x reversed, k_j to
    # k_{-j mod N_k}) but for k_min, which stands for both window ends: only
    # the symmetrized edge transport keeps the equivariance
    grid = PhaseSpaceGrid.plane(build_spatial_mesh(-5.0, 5.0, 4, 7),
                                build_wavenumber_mesh(-np.pi, np.pi, 16))
    mirror = -np.arange(16) % 16
    rng = np.random.default_rng(11)
    values = rng.random(grid.shape)
    inflow = rng.random(16) if with_inflow else None
    table = kernel_coefficients(potential, grid, CONSTS)
    for symmetrized, bounds in ((True, (0.0, 1e-14)), (False, (0.3, 1.0))):
        def run(f, g):
            return step(WignerState(grid, f), table, CONSTS, 0.05, "yoshida4", g,
                        symmetrized).values

        want = run(values, inflow)[::-1, mirror]
        got = run(values[::-1, mirror], None if inflow is None else inflow[mirror])
        miss = np.abs(got - want).max() / np.abs(want).max()
        assert bounds[0] <= miss <= bounds[1], (symmetrized, miss)


# ----------------------------------------------------------------------
# sweep plan against the two-matrix reference
# ----------------------------------------------------------------------

def _reference_sweep(mesh, velocities, tau, work, inflow=None, edge_slice=None):
    """Two interpolation matrices per slice and two take_along_axis gathers.

    This is the formula the sweep plan replaced, kept verbatim as an oracle.
    """
    M = mesh.points_per_element
    width = mesh.element_width
    velocities = np.asarray(velocities, float)
    if edge_slice is not None:
        velocities = np.concatenate([velocities, [-velocities[edge_slice]]])
    shift = np.asarray(velocities, float) * tau
    n = np.floor(shift / width)
    frac = shift / width - n
    offset = n.astype(np.int64)

    xi = (mesh.points_by_element[0] - mesh.element_boundaries[0]) / width
    hi = xi[None, :] >= frac[:, None]
    local_hi = xi[None, :] - frac[:, None]
    local_lo = local_hi + 1.0
    ref = 2.0 * xi - 1.0
    wbary = mesh.barycentric_weights

    def rows(local):
        r = 2.0 * local - 1.0
        diff = r[:, :, None] - ref[None, None, :]
        exact = diff == 0.0
        safe = np.where(exact, 1.0, diff)
        ratios = wbary[None, None, :] / safe
        with np.errstate(divide="ignore", invalid="ignore"):
            out = ratios / ratios.sum(axis=2, keepdims=True)
        out[~np.isfinite(out)] = 0.0
        hit = exact.any(axis=2)
        out[hit] = exact[hit]
        return out

    mat_hi = rows(local_hi) * hi[:, :, None]
    mat_lo = rows(local_lo) * (~hi)[:, :, None]

    def gather_apply(work, offset, mat_hi, mat_lo, hi_rows, inflow):
        Nk, M, Q, R = work.shape
        q = np.arange(Q)
        src_hi = q[None, :] - offset[:, None]
        src_lo = src_hi - 1
        ok_hi = (src_hi >= 0) & (src_hi < Q)
        ok_lo = (src_lo >= 0) & (src_lo < Q)
        padded = np.concatenate([np.zeros((Nk, M, 1, R)), work], axis=2)
        gh = np.take_along_axis(padded, np.where(ok_hi, src_hi + 1, 0)[:, None, :, None], axis=2)
        gl = np.take_along_axis(padded, np.where(ok_lo, src_lo + 1, 0)[:, None, :, None], axis=2)
        out = np.matmul(mat_hi, gh.reshape(Nk, M, Q * R)) + np.matmul(
            mat_lo, gl.reshape(Nk, M, Q * R)
        )
        out = out.reshape(Nk, M, Q, R)
        if inflow is not None:
            missing = hi_rows[:, :, None] & ~ok_hi[:, None, :] | (
                ~hi_rows[:, :, None] & ~ok_lo[:, None, :]
            )
            out += inflow[:, None, None, :] * missing[:, :, :, None]
        return out

    Nk = work.shape[0]
    out = gather_apply(work, offset[:Nk], mat_hi[:Nk], mat_lo[:Nk], hi[:Nk], inflow)
    if edge_slice is not None:
        e = edge_slice
        mirrored = gather_apply(
            work[e : e + 1], offset[-1:], mat_hi[-1:], mat_lo[-1:], hi[-1:],
            None if inflow is None else inflow[e : e + 1],
        )
        out[e] += mirrored[0]
        out[e] *= 0.5
    return out


SWEEP_CASES = [
    (case, R, with_inflow, edge)
    for case in (0, 1, 2, 3, "own runs", "one run", "whole elements", "shared rows")
    for R in (1, 3)
    for with_inflow in (False, True)
    for edge in (None, 0)
]


@pytest.mark.parametrize("case, R, with_inflow, edge", SWEEP_CASES)
def test_sweep_plan_matches_two_matrix_reference(case, R, with_inflow, edge):
    rng = np.random.default_rng(100 + len(str(case)) + (case if isinstance(case, int) else 0))
    Q, M = 6, 7
    velocities = np.linspace(-4.0, 3.5, 16)
    whole = np.arange(-8, 8)  # element shifts past both ends of the domain
    if case == "own runs":
        # shifts 9/8 of an element apart: every slice its own (n, m0)
        tau = 3.0
    elif case == "one run":
        # shifts below the first node spacing, all with n = 0 and m0 = 1
        velocities, tau = np.linspace(0.5, 1.0, 16), 0.05
    elif case == "whole elements":
        # element width 2: every shift a whole number of elements, m0 = 0
        Q, velocities, tau = 4, 4.0 * whole, -0.5
    elif case == "shared rows":
        # shifts just past a whole element (m0 = 1) and just short of the
        # next (m0 = M - 1), alternating
        velocities, tau = (whole + np.where(whole % 2, 0.97, 0.03)) * 4.0 / 3.0, 1.0
    else:
        # signed stage lengths: shifts from a fraction of an element up to
        # departures past both ends of the domain (|v tau| up to 12)
        tau = rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])
    mesh = build_spatial_mesh(-3.0, 5.0, Q, M)  # element width 8/Q
    work = rng.standard_normal((16, M, Q, R))
    inflow = rng.uniform(1.0, 2.0, (16, R)) if with_inflow else None
    plan = _SweepPlan(mesh, velocities, tau, edge)
    runs = {"own runs": len(plan.matrices), "one run": 1 + (edge is not None)}
    assert len(plan.runs) == runs.get(case, len(plan.runs))
    m0s = {m0 for *_, m0 in plan.runs}
    assert m0s == {"whole elements": {0}, "shared rows": {1, M - 1}}.get(case, m0s)
    want = _reference_sweep(mesh, velocities, tau, work, inflow, edge)
    source = work.copy()
    got = plan.apply(work, inflow)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the sweep spends its source only with the edge: the mirrored reading
    # overwrites slice edge + 1, which that slice's run has already read
    kept = np.ones(len(work), bool)
    if edge is not None:
        kept[edge + 1] = False
        assert not np.array_equal(work[edge + 1], source[edge + 1])
    assert np.array_equal(work[kept].view(np.int64), source[kept].view(np.int64))
    if case == "whole elements":
        np.testing.assert_array_equal(got, want)  # identity matrices: a copy

    # row 0 of element q and row M-1 of element q-1 are one CGL point,
    # equal to the last bit wherever a shift has a fraction (m0 >= 1); the
    # edge slice averages it with its mirrored reading
    for start, stop, _, m0 in plan.runs[: len(plan.runs) - (edge is not None)]:
        if m0 and (edge is None or not start <= edge < stop or plan.runs[-1][3]):
            np.testing.assert_array_equal(got[start:stop, 0, 1:], got[start:stop, M - 1, :-1])

    # targets whose departure point lies outside the domain read the inflow
    x = mesh.points_by_element  # (Q, M)
    depart = x.T[None, :, :] - velocities[:, None, None] * tau  # (Nk, M, Q)
    outside = (depart < -3.0 - 1e-9) | (depart > 5.0 + 1e-9)
    if edge is not None:
        outside[edge] = False  # averaged with the mirrored reading
    assert outside.any()
    expect = np.broadcast_to((inflow if with_inflow else np.zeros((16, R)))[:, None, None, :],
                             got.shape)
    np.testing.assert_array_equal(got[outside], expect[outside])


@pytest.mark.parametrize("edge", [False, True], ids=["one-sided", "symmetrized"])
def test_warm_sweep_allocates_a_few_kilobytes(edge):
    # the fermi4d shape, (16, 9, 5, 720) with inflow: no run copies its
    # shared endpoint row through a temporary (a whole copy takes up to
    # 185 kB here)
    import tracemalloc

    cfg = fd_config()
    grid = cfg.build_grid()
    work = np.random.default_rng(4).standard_normal((16, 9, 5, 720))
    out = np.empty_like(work)
    inflow = np.ones((16, 720))
    plans = [_sweep_plans(grid, cfg.consts, tau, edge)[0] for tau in (0.0068, -0.0018)]
    assert {m0 for plan in plans for *_, m0 in plan.runs} >= {0, 1, 8}
    for plan in plans:
        plan.apply(work, inflow, out)
    tracemalloc.start()
    try:
        for plan in plans:
            plan.apply(work, inflow, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


def test_sweep_plan_rejects_slice_count_mismatch():
    plan = _SweepPlan(build_spatial_mesh(-1.0, 1.0, 2, 5), np.ones(4), 0.1)
    with pytest.raises(ParameterError):
        plan.apply(np.zeros((3, 5, 2, 1)))


@pytest.mark.parametrize("edge", [False, True], ids=["one-sided", "symmetrized"])
def test_equal_dimensions_share_one_sweep_plan(edge):
    # meshes compare by value, so two separately built equal meshes share a
    # plan; unequal ones do not
    x = [build_spatial_mesh(-4.0, 4.0, 3, 5) for _ in range(2)]
    k = [build_wavenumber_mesh(-np.pi, np.pi, 8) for _ in range(2)]
    plan1, plan2 = _sweep_plans(PhaseSpaceGrid.tensor4d(*x, *k), CONSTS, 0.1, edge)
    assert plan1 is plan2
    plan1, plan2 = _sweep_plans(uneven_tensor_grid(), CONSTS, 0.1, edge)
    assert plan1 is not plan2
    assert (len(plan1.matrices), len(plan2.matrices)) == ((9, 17) if edge else (8, 16))


def count_shared_builds(monkeypatch):
    """Counters of sweep plan and DFT matrix builds, spied on from here on."""
    from wigsolve import dynamics

    built = {"plans": 0, "dfts": 0}
    init, dfts = _SweepPlan.__init__, dynamics._dft_matrices

    def plan_spy(self, *args, **kwargs):
        built["plans"] += 1
        init(self, *args, **kwargs)

    def dft_spy(*args):
        built["dfts"] += 1
        return dfts(*args)

    monkeypatch.setattr(_SweepPlan, "__init__", plan_spy)
    monkeypatch.setattr(dynamics, "_dft_matrices", dft_spy)
    return built


def test_runs_on_one_grid_share_each_sweep_plan_and_dft_set(monkeypatch):
    # two families on one grid, dt and scheme: yoshida4 has two distinct
    # transport lengths and one kernel layout in 2-D, so the first run builds
    # two plans and one DFT set and the second builds none; a run after the
    # cache is cleared builds them again
    built = count_shared_builds(monkeypatch)
    clear_table_cache()
    try:
        evolve(delta_config(t_final=0.02))
        assert built == {"plans": 2, "dfts": 1}
        evolve(delta_config(t_final=0.02, potential=LogPotential(H=0.5)))
        assert built == {"plans": 2, "dfts": 1}
        clear_table_cache()
        evolve(delta_config(t_final=0.02, potential=LogPotential(H=0.5)))
        assert built == {"plans": 4, "dfts": 2}
    finally:
        clear_table_cache()


def test_a_sweep_plan_is_shared_only_by_equal_consts_stage_length_and_edge(monkeypatch):
    built = count_shared_builds(monkeypatch)
    grid = grid_2d(N=16, M=7, Q=4)
    clear_table_cache()
    try:
        (plan,) = _sweep_plans(grid, CONSTS, 0.1)
        assert _sweep_plans(grid, PhysicalConstants(hbar=1.0, mass=1.0), 0.1) == (plan,)
        others = [_sweep_plans(grid, PhysicalConstants(hbar=2.0, mass=1.0), 0.1)[0],
                  _sweep_plans(grid, PhysicalConstants(hbar=1.0, mass=2.0), 0.1)[0],
                  _sweep_plans(grid, CONSTS, 0.2)[0], _sweep_plans(grid, CONSTS, 0.1, True)[0]]
        assert built["plans"] == 5
        assert len({id(p) for p in [plan, *others]}) == 5
        assert others[-1].edge == 0 and plan.edge is None
    finally:
        clear_table_cache()


@pytest.mark.parametrize("planar", [False, True], ids=["2d", "4d"])
def test_cached_plans_and_dft_matrices_are_read_only(planar):
    cfg = fd_config() if planar else delta_config(num_modes=16, points_per_element=7)
    grid = cfg.build_grid()
    clear_table_cache()
    try:
        stepper = _Stepper(grid, cfg.build_table(grid), cfg.consts,
                           _stage_sequence(cfg.scheme, cfg.dt))
        arrays = [plan.matrices for plans in stepper.plans.values() for plan in plans]
        arrays += [a for dfts in stepper.dfts.values() for a in dfts]
        assert len(arrays) == (4 + 8 if planar else 2 + 4)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
    finally:
        clear_table_cache()


@pytest.mark.parametrize("planar", [False, True], ids=["2d", "4d"])
def test_a_warm_run_gives_the_bits_of_a_cold_run(planar):
    # the second run reads the first's cached table, plans, DFT matrices and
    # quadrature
    cfg = fd_config(t_final=0.03) if planar else delta_config(t_final=0.05, inflow="background",
                                                                edge_transport="symmetrized")
    clear_table_cache()
    try:
        cold, warm = evolve(cfg), evolve(cfg)
    finally:
        clear_table_cache()
    (snap,), series = cold
    (warm_snap,), warm_series = warm
    field = (lambda s: s[1]) if planar else (lambda s: s.values)
    arrays = [(field(warm_snap), field(snap))]
    arrays += [(warm_series.column(f.name), series.column(f.name)) for f in fields(series)]
    for got, want in arrays:
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# ----------------------------------------------------------------------
# apply_kernel
# ----------------------------------------------------------------------

def test_kernel_zero_strength_is_identity():
    grid = grid_2d()
    table = kernel_coefficients(DeltaPotential(H=0.0), grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    out = apply_kernel(state, table, 0.7)
    np.testing.assert_allclose(out.values, state.values, atol=1e-15)


def test_kernel_preserves_spatial_marginal_and_norm():
    grid = grid_2d()
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    out = apply_kernel(state, table, 0.13)
    np.testing.assert_allclose(
        spatial_marginal(out), spatial_marginal(state), rtol=0, atol=1e-12
    )
    # per-point discrete L2 norm over k is untouched (unimodular multipliers)
    n0 = np.linalg.norm(state.values, axis=1)
    n1 = np.linalg.norm(out.values, axis=1)
    np.testing.assert_allclose(n1, n0, rtol=1e-12, atol=1e-15)


def test_kernel_small_tau_matches_operator_application():
    grid = grid_2d()
    km = grid.k
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    tau = 1e-6
    out = apply_kernel(state, table, tau)
    # direct mode-space application of the generator
    alpha = k_forward(state.values, km, axis=1)
    # the odd extension of the stored bins nu = 0..N/2 over ascending nu
    N, s = km.num_points, table.multipliers
    mult = 1j * np.concatenate([-s[:, N // 2 - 1 : 0 : -1], s], axis=1)
    mult[:, mode_position(km, N // 2)] = 0.0
    basis = np.exp(2j * np.pi * np.outer(km.mode_indices, np.arange(km.num_points)) / km.num_points)
    theta = ((mult * alpha) @ basis).real
    slope = (out.values - state.values) / tau
    scale = np.abs(theta).max()
    assert np.abs(slope - theta).max() < 1e-4 * scale


def test_kernel_grid_mismatch():
    g1, g2 = grid_2d(), grid_2d(N=32)
    table = kernel_coefficients(DeltaPotential(H=1.0), g1, CONSTS)
    state = WignerState(g2, np.zeros(g2.shape))
    with pytest.raises(ParameterError):
        apply_kernel(state, table, 0.1)


def _random_real_table(grid, seed):
    # s_nu(x) real and random on the stored bins, with c_0 = 0: s_0 = 0 in
    # 2-D, a nu2 = 0 plane odd in nu1 in 4-D
    *lead, Nk = grid.shape
    s = np.random.default_rng(seed).standard_normal((*lead, Nk // 2 + 1))
    if grid.ndim_space == 1:
        s[:, 0] = 0.0
    else:
        plane = s[..., 0]
        s[..., 0] = 0.5 * (plane - plane[:, :, -np.arange(lead[2]) % lead[2]])
    return KernelTable(s, grid)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(-5.0, 5.0), planar=st.booleans())
def test_kernel_with_any_real_table_and_zero_c0_keeps_the_marginal(seed, tau, planar):
    if planar:
        x = build_spatial_mesh(-5.0, 5.0, 2, 5)
        k = build_wavenumber_mesh(-np.pi, np.pi, 8)
        grid, marginal = PhaseSpaceGrid.tensor4d(x, x, k, k), spatial_marginal_2d
    else:
        grid, marginal = grid_2d(N=16, M=7, Q=3), spatial_marginal
    state = WignerState(grid, np.random.default_rng(seed + 1).standard_normal(grid.shape))
    out = apply_kernel(state, _random_real_table(grid, seed), tau)
    np.testing.assert_allclose(marginal(out), marginal(state), rtol=0, atol=1e-13)


def _two_rows(grid, layout):
    # the least scratch a multiplier build takes
    return np.empty(2 * math.prod(_bins(grid, layout)[1:]))


def _signed_bins(table, layout):
    # s on every bin of _bins(table.grid, layout) by fancy indexing: a bin of
    # negative nu reads -s(-nu), a Nyquist bin 0
    s = table.multipliers
    if table.grid.ndim_space == 1:
        Q, M, N = _split(table.grid)
        N1, N2 = _factors(N)
        nu = np.arange(N)
        full = s[:, np.minimum(nu, N - nu)]
        full = np.where(nu > N // 2, -full, full)
        full[:, N // 2] = 0.0
        nu = np.arange(N1 // 2 + 1)[:, None] + N1 * np.arange(N2)  # (k1, k2)
        return full.reshape(Q, M, N)[..., nu].transpose(2, 1, 0, 3)
    Q1, M1, Q2, M2, Nk1, Nk2 = _split(table.grid)
    s = s.reshape(Q1, M1, Q2, M2, Nk1, -1)
    nu1, nu2 = np.arange(Nk1)[:, None], np.arange(Nk2)
    mirrored = nu2 > Nk2 // 2
    full = s[..., np.where(mirrored, -nu1 % Nk1, nu1), np.minimum(nu2, Nk2 - nu2)]
    full = np.where(mirrored, -full, full)
    full[..., Nk1 // 2, :] = 0.0
    full[..., Nk2 // 2] = 0.0
    half = full[..., : Nk2 // 2 + 1] if layout == 0 else full[..., : Nk1 // 2 + 1, :]
    return half.transpose(_LAYOUTS[2][layout])


@pytest.mark.parametrize("N, layout", [(4, 0), (6, 0), (38, 0), (128, 0), (None, 0), (None, 1)],
                         ids=["N4", "N6", "N38", "N128", "L1", "L2"])
def test_table_rows_are_s_on_every_bin_in_the_second_half_of_out(N, layout):
    grid = uneven_tensor_grid() if N is None else grid_2d(N=N, M=5, Q=3)
    table = _random_real_table(grid, 7)
    out = np.empty(_bins(grid, layout), complex)
    got = _table_rows(table, layout, out)
    assert got.shape == out.shape and got.dtype == float
    assert got.ctypes.data == out.ctypes.data + 8 * out.size  # the second half of out's floats
    want = _signed_bins(table, layout)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


@pytest.mark.parametrize("N", [4, 6, 38, 128])
def test_2d_multipliers_are_exp_i_tau_s_on_every_bin(N):
    # tau s spans several turns, at either sign of tau; 4 and 6 leave N2 = 1,
    # so every row holds one bin k2 and the last row the Nyquist bin
    grid = grid_2d(N=N, M=5, Q=3)
    table = _random_real_table(grid, N)
    N1, N2 = _factors(N)
    H1 = N1 // 2 + 1
    assert _bins(grid, 0) == (H1, 5, 3, N2)  # (k1, m, q, k2), bin nu = k1 + N1*k2
    assert 6.0 * np.abs(table.multipliers).max() > 4 * np.pi  # several turns
    for tau in (6.0, -6.0):
        got = _multipliers(table, tau, 0, np.empty((H1, 5, 3, N2), complex), _two_rows(grid, 0))
        half = multipliers_half_2d(table, tau)  # (nx, N/2 + 1); exp(i tau s_{-nu}) is its conjugate
        nu = np.arange(N)
        full = half[:, np.minimum(nu, N - nu)]
        full[:, nu > N // 2] = full[:, nu > N // 2].conj()
        want = full.reshape(3, 5, N2, N1)[..., :H1].transpose(3, 1, 0, 2)
        assert np.abs(got - want).max() <= 1e-15
        k2, k1 = divmod(N // 2, N1)
        # the Nyquist bin: real part exactly 1, imaginary part a zero of either sign
        np.testing.assert_array_equal(got[k1, ..., k2], 1.0)


@pytest.mark.parametrize("layout", [0, 1], ids=["L1", "L2"])
def test_4d_multipliers_are_exp_i_tau_s_on_every_bin(layout):
    grid = uneven_tensor_grid()
    table = _random_real_table(grid, 5)
    Q1, M1, Q2, M2, Nk1, Nk2 = _split(grid)
    assert 6.0 * np.abs(table.multipliers).max() > 4 * np.pi  # several turns
    for tau in (6.0, -6.0):
        got = _multipliers(table, tau, layout, np.empty(_bins(grid, layout), complex),
                           _two_rows(grid, layout))
        half = multipliers_half_4d_natural(table, tau)  # (nx1, nx2, Nk1, Nk2/2 + 1)
        if layout == 0:
            want = half.reshape(Q1, M1, Q2, M2, Nk1, -1)
        else:
            # nu1 = 0..Nk1/2 and every nu2, exp(i tau s(nu1, -nu2)) the
            # conjugate of exp(i tau s(-nu1, nu2))
            nu1, nu2 = np.arange(Nk1 // 2 + 1)[:, None], np.arange(Nk2)
            mirrored = nu2 > Nk2 // 2
            want = half[:, :, np.where(mirrored, -nu1 % Nk1, nu1), np.minimum(nu2, Nk2 - nu2)]
            want[..., mirrored] = want[..., mirrored].conj()
            want = want.reshape(Q1, M1, Q2, M2, Nk1 // 2 + 1, Nk2)
        want = want.transpose(_LAYOUTS[2][layout])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15
        natural = got.transpose(np.argsort(_LAYOUTS[2][layout]))
        # the Nyquist planes: real part exactly 1, imaginary part a zero of
        # either sign
        np.testing.assert_array_equal(natural[..., Nk1 // 2, :], 1.0)
        np.testing.assert_array_equal(natural[..., Nk2 // 2], 1.0)


@pytest.mark.parametrize("N", [4, 6, 8, 32, 38, 96, 128, 512])
def test_kernel_substep_matches_the_rfft_reference(N):
    # N_k = N1*N2 with N2 the largest divisor at most sqrt(N_k/2): 4 and 6
    # leave N2 = 1 (one dense real DFT), 38 gives the odd N1 = 19, and 128
    # the stream2d 16 x 8, whose H1 = 9 bins k1 split 4 + 5 between the
    # column halves
    grid = grid_2d(N=N, M=5, Q=3)
    table = _random_real_table(grid, N)
    state = WignerState(grid, np.random.default_rng(N + 1).standard_normal(grid.shape))
    tau = 0.7
    want = kernel_2d_rfft(state.values, multipliers_half_2d(table, tau))
    got = apply_kernel(state, table, tau).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("planar", [False, True], ids=["2d", "4d"])
def test_noise_on_the_nyquist_bins_leaves_the_kernel_substep_unchanged(planar):
    # a Nyquist bin has no conjugate partner: the substep reads none of them,
    # which keeps it unitary on a real field
    if planar:
        x = build_spatial_mesh(-5.0, 5.0, 2, 5)
        k = build_wavenumber_mesh(-np.pi, np.pi, 8)
        grid = PhaseSpaceGrid.tensor4d(x, x, k, k)
        spec = MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 4))
    else:
        grid, spec = grid_2d(N=16, M=7, Q=3), DeltaPotential(H=1.0)
    table = kernel_coefficients(spec, grid, CONSTS)
    rng = np.random.default_rng(3)
    noisy = table.multipliers.copy()
    noisy[..., -1] = rng.standard_normal(noisy[..., -1].shape)
    if planar:  # and the nu1 = N/2 plane
        noisy[:, :, 4] = rng.standard_normal(noisy[:, :, 4].shape)
    state = WignerState(grid, rng.standard_normal(grid.shape))
    want = apply_kernel(state, table, 0.7).values
    assert np.array_equal(apply_kernel(state, KernelTable(noisy, grid), 0.7).values, want)


# ----------------------------------------------------------------------
# composed step
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), x0=st.floats(-1.5, 1.5), k0=st.floats(-1.0, 1.0),
       sigma=st.floats(1.0, 1.5), dt=st.floats(-0.1, 0.1),
       scheme=st.sampled_from(tuple(SCHEMES)), rough=st.booleans())
def test_step_with_any_real_table_stays_real_and_keeps_its_mass(
    seed, x0, k0, sigma, dt, scheme, rough
):
    """A real table with c_0 = 0 moves no mass; only the transport can.

    The packet stays far from the boundaries, so no mass flows out.  A table
    that varies along x (random at every node) makes the field rough at node
    scale, and the interpolating transport then moves mass and breaks
    S(-dt) S(dt) = 1 by O(dt): those bounds are loose.  A table constant in x
    keeps the packet smooth, and both hold to round-off on this grid.
    """
    grid = grid_2d(N=16, M=21, Q=10, X=15.0)
    s = _random_real_table(grid, seed).multipliers
    if not rough:
        s = np.broadcast_to(s[:1], s.shape).copy()
    table = KernelTable(s, grid)
    state = init_gaussian(grid, GaussianPacketSpec(x0=x0, k0=k0, sigma=sigma))
    out = step(state, table, CONSTS, dt, scheme)
    assert np.isrealobj(out.values)
    assert np.isfinite(out.values).all()
    mass_tol, reverse_tol = (0.2 * abs(dt), 8.0 * abs(dt)) if rough else (1e-12, 1e-10)
    m0 = total_mass(state)
    assert abs(total_mass(out) - m0) <= mass_tol * m0 + 1e-14
    back = step(out, table, CONSTS, -dt, scheme)
    scale = np.abs(state.values).max()
    assert np.abs(back.values - state.values).max() <= reverse_tol * scale + 1e-14


def test_step_zero_potential_equals_pure_advection():
    grid = grid_2d()
    table = kernel_coefficients(DeltaPotential(H=0.0), grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    for scheme in ("strang", "yoshida4"):
        got = step(state, table, CONSTS, 0.02, scheme)
        want = advect(state, CONSTS, 0.02)
        np.testing.assert_allclose(got.values, want.values, atol=1e-11)
        assert got.time == pytest.approx(0.02)


def test_step_conserves_interior_mass():
    # interpolation must be at spectral resolution for drift below 1e-10
    grid = grid_2d(N=64, M=55)
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    m0 = total_mass(state)
    out = step(state, table, CONSTS, 0.01, "yoshida4")
    assert total_mass(out) == pytest.approx(m0, rel=1e-10)


@pytest.mark.parametrize("inflow", ["zero", "background"])
@pytest.mark.parametrize("edge", ["one_sided", "symmetrized"])
def test_2d_stepping_matches_the_natural_layout_reference(monkeypatch, edge, inflow):
    # the reference runs every stage on the natural layout with no buffer
    # shared between stages.  A random field weighs the k_min slice, which
    # the symmetrized edge reads twice, like any other.  evolve and step run
    # three yoshida4 steps; a lone advect ends in the stepper's scratch
    cfg = delta_config(num_elements=4, points_per_element=7, num_modes=32, t_final=0.03,
                       inflow=inflow, edge_transport=edge)
    grid = cfg.build_grid()
    table = cfg.build_table(grid)
    values = np.random.default_rng(17).random(grid.shape)
    background = values.mean(axis=0) if inflow == "background" else None
    symmetrized = edge == "symmetrized"
    monkeypatch.setattr("wigsolve.observables._initial_state",
                        lambda *args: WignerState(grid, values))
    snapshots, _ = evolve(cfg)
    state = WignerState(grid, values)
    for _ in range(3):
        state = step(state, table, cfg.consts, cfg.dt, cfg.scheme, background, symmetrized)
    moved = advect(WignerState(grid, values), cfg.consts, cfg.dt, background, symmetrized)
    stepped = step_2d_natural(values, grid, table, cfg.consts,
                              3 * _stage_sequence(cfg.scheme, cfg.dt), background, symmetrized)
    swept = step_2d_natural(values, grid, table, cfg.consts, [("A", cfg.dt)], background,
                            symmetrized)
    for got, want in ((snapshots[-1].values, stepped), (state.values, stepped),
                      (moved.values, swept)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("edge", [False, True], ids=["one-sided", "symmetrized"])
def test_warm_2d_advance_allocates_almost_nothing(edge):
    # the stepper owns the sweep product and the spectrum, and every stage
    # overwrites the work field: on the stream2d grid the tracemalloc peak of
    # three warm steps stays below an eighth of the field
    import tracemalloc

    grid = grid_2d(N=128)
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    values = init_gaussian(grid, PACKET).values
    inflow = values.mean(axis=0) if edge else None
    stepper = _Stepper(grid, table, CONSTS, _stage_sequence("yoshida4", 0.01), inflow, edge)
    work = stepper.advance(_to_work(values, grid, _LAYOUTS[1][0], stepper.room))
    tracemalloc.start()
    try:
        for _ in range(3):
            assert stepper.advance(work) is work
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < work.nbytes / 8, peak


def test_2d_advance_takes_only_a_field_that_heads_a_buffer_of_room_floats():
    # with kernel stages a bare _to_work buffer, one field long, is shorter
    # than a spectrum; a field in the scratch lies past the block's head
    # (the tables come first) or, without kernel stages, heads the scratch
    grid = grid_2d(N=16, M=7, Q=4)
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    values = init_gaussian(grid, PACKET).values
    order = _LAYOUTS[1][0]
    strang = _Stepper(grid, table, CONSTS, _stage_sequence("strang", 0.01))
    lone = _Stepper(grid, None, CONSTS, [("A", 0.01)])
    bare = _to_work(values, grid, order)
    for stepper, work in ((strang, bare), (strang, strang.scratch[: bare.size]),
                          (lone, lone.scratch[: bare.size])):
        with pytest.raises(ParameterError, match=f"room = {stepper.room} floats"):
            stepper.advance(work.reshape(bare.shape))
    # an even number of transports ends in work itself, a lone one in the
    # scratch
    for stepper, even in ((strang, True), (lone, False)):
        work = _to_work(values, grid, order, stepper.room)
        before = work.copy()
        out = stepper.advance(work)
        assert (out is work) == even
        assert np.shares_memory(out, stepper.scratch) != even
        assert not np.array_equal(out, before)


@pytest.mark.parametrize("stages", [[("A", 0.02)], _stage_sequence("yoshida4", 0.02)],
                         ids=["advect", "yoshida4"])
def test_4d_advance_ends_in_the_callers_array(stages):
    # a step ends in L1, as work itself; a lone transport in L2, as a view
    # of work's memory in L2's shape
    grid = uneven_tensor_grid()
    table = kernel_coefficients(MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),)), grid,
                                FD_CONSTS)
    values = np.random.default_rng(5).random(grid.shape)
    stepper = _Stepper(grid, table, FD_CONSTS, stages)
    work = _to_work(values, grid, _LAYOUTS[2][0], stepper.room)
    out = stepper.advance(work)
    assert (out is work) == (len(stages) > 1)
    assert np.shares_memory(out, work)
    assert out.shape == (work.shape if len(stages) > 1 else work.shape[::-1])


@pytest.mark.parametrize("planar", [False, True], ids=["stream2d", "fermi4d"])
def test_stepper_build_makes_no_table_sized_temporary(planar):
    # a yoshida4 stepper on the benchmark grids, the 4-D one with background
    # inflow and the symmetrized edge: its build's tracemalloc peak stays
    # within 128 kB of what it keeps, where one copy of the fermi4d table
    # (a reshape across its transposed bin axes) is 2.33 MB
    import tracemalloc

    if planar:
        cfg = fd_config()
        inflow = np.ones((cfg.num_modes,) * 2)
    else:
        cfg, inflow = delta_config(num_modes=128), None
    grid = cfg.build_grid()
    table = cfg.build_table(grid)
    tracemalloc.start()
    try:
        stepper = _Stepper(grid, table, cfg.consts, _stage_sequence("yoshida4", cfg.dt), inflow,
                           planar)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stepper.mults) == 2
    assert peak - kept <= 128e3, (peak, kept)


@pytest.mark.parametrize("run", [
    lambda s, t: advect(s, CONSTS, 0.01),
    lambda s, t: apply_kernel(s, t, 0.01),
    lambda s, t: step(s, t, CONSTS, 0.01, "yoshida4"),
], ids=["advect", "apply_kernel", "step"])
def test_2d_substeps_leave_their_input_state_unchanged(run):
    grid = grid_2d()
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    before = state.values.copy()
    out = run(state, table)
    assert np.array_equal(state.values, before)
    assert not np.shares_memory(out.values, state.values)


def test_realness_and_mass_over_many_steps():
    grid = grid_2d(N=32, M=31, Q=20)
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    state = init_gaussian(grid, GaussianPacketSpec(x0=-10.0, k0=1.0, sigma=2.0))
    m0 = total_mass(state)
    for _ in range(100):
        state = step(state, table, CONSTS, 0.01, "strang")
    assert np.isrealobj(state.values)
    assert np.isfinite(state.values).all()
    # coarse 32-mode run: interpolation noise dominates the drift budget
    assert total_mass(state) == pytest.approx(m0, rel=1e-6)


def test_scheme_validation():
    for coefficients in SCHEMES.values():
        assert sum(coefficients) == pytest.approx(1.0, abs=1e-15)
    assert SCHEMES["yoshida4"][1] < 0  # negative middle stage
    grid = grid_2d()
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    with pytest.raises(ParameterError, match="scheme: unknown value 'rk4'"):
        step(init_gaussian(grid, PACKET), table, CONSTS, 0.01, "rk4")
    with pytest.raises(ParameterError, match="scheme: unknown value 'rk4'"):
        delta_config(scheme="rk4")


@pytest.mark.slow
def test_splitting_self_convergence_orders():
    # smoke version of the acceptance criterion: one halving per scheme, at a
    # dt range where the splitting error sits well above interpolation noise
    results = {}
    conf = dict(points_per_element=55, num_modes=128, n_uniform=300)
    for name, lo in (("strang", 1.8), ("yoshida4", 3.4)):
        errs = []
        ref = evolve(delta_config(scheme=name, dt=0.0025, **conf))[1]
        ref_u = ref.at_time(1.0, "uncertainty")
        for dt in (0.05, 0.025):
            series = evolve(delta_config(scheme=name, dt=dt, **conf))[1]
            errs.append(abs(series.at_time(1.0, "uncertainty") - ref_u))
        slope = math.log2(errs[0] / errs[1])
        results[name] = slope
        assert slope > lo, results
    assert results["yoshida4"] > results["strang"]


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------

def test_evolve_zero_time():
    snaps, series = evolve(delta_config(t_final=0.0, snapshot_times=(0.0,)))
    assert len(series) == 1
    assert len(snaps) == 1
    grid = delta_config().build_grid()
    expect = init_gaussian(grid, PACKET)
    np.testing.assert_allclose(snaps[0].values, expect.values, atol=0)


def stream2d_config(**kw):
    """The stream2d benchmark's grid, N_um and packet, with a delta."""
    return delta_config(num_modes=128, n_uniform=600, **kw)


def test_warm_stepless_2d_evolve_copies_no_field():
    # without steps evolve records the natural initial data in place: the
    # peak is the field itself and the record's (4, Q*M) products, where a
    # work-layout copy would take a second field
    import tracemalloc

    cfg = stream2d_config(t_final=0.0)
    evolve(cfg)  # the table and the quadrature are cached from here on
    tracemalloc.start()
    try:
        evolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = 8 * math.prod(cfg.build_grid().shape)
    assert peak < 1.5 * field, peak / field


def test_stepless_2d_row_is_the_first_row_of_a_stepped_run():
    _, stepless = evolve(stream2d_config(t_final=0.0))
    _, stepped = evolve(stream2d_config(t_final=0.01))
    for f in fields(stepless):
        (got,) = getattr(stepless, f.name)
        assert got == pytest.approx(getattr(stepped, f.name)[0], rel=1e-14, abs=0), f.name


def test_stepless_2d_snapshot_is_the_initial_data():
    cfg = stream2d_config(t_final=0.0)
    (snap,), _ = evolve(cfg)
    want = init_gaussian(cfg.build_grid(), cfg.initial).values
    assert snap.time == 0.0
    np.testing.assert_array_equal(snap.values.view(np.int64), want.view(np.int64))


def test_evolve_deterministic_and_snapshots():
    cfg = delta_config(t_final=0.1, snapshot_times=(0.05, 0.1))
    s1, r1 = evolve(cfg)
    s2, r2 = evolve(cfg)
    assert [s.time for s in s1] == [0.05, 0.1]
    np.testing.assert_array_equal(s1[1].values, s2[1].values)
    np.testing.assert_array_equal(r1.column("uncertainty"), r2.column("uncertainty"))


def test_evolve_records_the_natural_state_functionals():
    # a row reduced in the work layout by two products equals the public
    # functionals of the natural state at the same step, taken mid-run
    cfg = delta_config(t_final=0.3, snapshot_times=(0.2,), potential=DeltaPotential(H=2.0),
                       initial=GaussianPacketSpec(x0=-1.0, k0=2.0, sigma=2.0))
    (state,), series = evolve(cfg)
    u = uncertainty(state, cfg.n_uniform, cfg.consts)
    for name, want in (("total_mass", total_mass(state)),
                       ("partial_mass", partial_mass(state, cfg.n_uniform)),
                       ("mean_x", u.mean_x), ("mean_p", u.mean_p), ("var_x", u.var_x),
                       ("var_p", u.var_p), ("uncertainty", u.product)):
        assert series.at_time(0.2, name) == pytest.approx(want, rel=1e-12, abs=0), name


def test_evolve_free_dynamics_spread():
    cfg = delta_config(potential=DeltaPotential(H=0.0), t_final=10.0, dt=0.1,
                       num_modes=128, points_per_element=31, n_uniform=400)
    _, series = evolve(cfg)
    # free packet: sigma_x(t)^2 = sigma^2 + (t/(2 sigma))^2, sigma_p = 1/4
    expect = math.sqrt(4.0 + (10.0 / 4.0) ** 2) * 0.25
    assert series.at_time(10.0, "uncertainty") == pytest.approx(expect, abs=1e-3)
    assert series.at_time(10.0, "mean_x") == pytest.approx(10.0, abs=1e-3)
    assert series.at_time(10.0, "partial_mass") == pytest.approx(1.0, abs=1e-3)


def test_evolve_snapshot_off_lattice_rejected():
    with pytest.raises(ParameterError):
        evolve(delta_config(snapshot_times=(0.0150001,)))


def test_evolve_background_inflow_matches_composed_steps():
    cfg = delta_config(t_final=0.02, inflow="background", snapshot_times=(0.02,))
    snaps, _ = evolve(cfg)
    grid = cfg.build_grid()
    table = kernel_coefficients(cfg.potential, grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    profile = state.values.mean(axis=0)
    for _ in range(2):
        state = step(state, table, CONSTS, cfg.dt, cfg.scheme, inflow=profile)
    np.testing.assert_allclose(snaps[-1].values, state.values, rtol=0, atol=1e-13)


def test_evolve_stage_caches_match_per_stage_builds():
    cfg = delta_config(t_final=0.03, inflow="background", edge_transport="symmetrized")
    snaps, series = evolve(cfg)
    grid = cfg.build_grid()
    table = kernel_coefficients(cfg.potential, grid, CONSTS)
    state = init_gaussian(grid, PACKET)
    inflow = state.values.mean(axis=0)
    for _ in range(3):
        state = step(state, table, CONSTS, cfg.dt, cfg.scheme, inflow, True)
    np.testing.assert_array_equal(snaps[-1].values, state.values)
    assert series.total_mass[-1] == pytest.approx(total_mass(state), rel=1e-14)


def test_evolve_non_finite_field_raises_with_the_rows_recorded(monkeypatch):
    def poisoned_table(self, grid):
        s = kernel_coefficients(self.potential, grid, self.consts).multipliers.copy()
        s[:, 1] = np.nan
        return KernelTable(s, grid)

    monkeypatch.setattr(SimulationConfig, "build_table", poisoned_table)
    with pytest.raises(DivergenceError, match="step 1") as err:
        evolve(delta_config(t_final=0.05))
    assert len(err.value.series) == 1
    assert err.value.series.t[0] == 0.0


@pytest.mark.parametrize("make", ["2d", "4d"])
@pytest.mark.parametrize("entries", [
    [math.nan], [math.inf], [-math.inf], [math.inf, -math.inf], [1.7e308, 1.7e308],
], ids=["nan", "inf", "-inf", "inf-pair", "overflowing-sum"])
def test_evolve_refuses_every_non_finite_field(monkeypatch, make, entries):
    # the finiteness check reads the field's sum from the record's k-sums
    # (the unweighted row of the 2-D reduction, the 4-D marginal): NaN,
    # either infinity, an inf/-inf pair (whose sum is NaN) and finite entries
    # whose sum overflows all stop the run after the step that made them,
    # before its row is recorded
    advance = _Stepper.advance

    def poisoned(self, work):
        work = advance(self, work)
        work.flat[: len(entries)] = entries
        return work

    monkeypatch.setattr(_Stepper, "advance", poisoned)
    cfg = delta_config(t_final=0.05) if make == "2d" else fd_config(t_final=0.03)
    with pytest.raises(DivergenceError, match="non-finite field after step 1") as err:
        evolve(cfg)
    assert len(err.value.series) == 1
    assert err.value.series.t[0] == 0.0


def test_evolve_unphysical_moments_raise_with_the_rows_recorded():
    # alpha = 0.8 on the acceptance ladder set-up at N_k = 64: the position
    # variance turns negative beyond round-off near t = 3.84
    cfg = SimulationConfig(
        x_lo=-30.0, x_hi=30.0, num_elements=20, points_per_element=21,
        k_min=-2.0 * math.pi, k_max=2.0 * math.pi, num_modes=64,
        potential=InversePowerPotential(H=1.0, alpha=0.8),
        initial=GaussianPacketSpec(x0=-6.0, k0=1.5, sigma=1.5),
        dt=0.02, t_final=4.0, scheme="yoshida4",
    )
    with pytest.raises(DivergenceError, match="var_x") as err:
        evolve(cfg)
    assert isinstance(err.value.__cause__, DomainError)
    series = err.value.series
    assert len(series) == 192
    assert series.t[-1] == pytest.approx(3.82)


@pytest.mark.parametrize("bad", [dict(dt=math.nan), dict(dt=math.inf),
                                 dict(t_final=math.nan), dict(t_final=math.inf)])
def test_config_rejects_non_finite_time_parameters(bad):
    with pytest.raises(ParameterError, match="finite"):
        delta_config(**bad)


@pytest.mark.parametrize("field, bad", [
    ("consts", "x"), ("num_modes", 8.0), ("n_uniform", 2.5), ("num_elements", 2.5),
    ("potential", object()), ("potential", DeltaPotential), ("dt", "0.01"), ("x_lo", "a"),
    ("k_min", None), ("snapshot_times", (0.5, "x")), ("snapshot_times", 0.5),
    ("num_elements", True), ("snapshot_times", (0.02, 0.02)), ("snapshot_times", (0.02, 0.01)),
    ("snapshot_times", (0.02, 0.0200000000001)), ("dt", 1e-320), ("dt", 1e-300),
    ("dt", 1e-16),
], ids=["consts", "num_modes", "n_uniform", "num_elements", "potential-object",
        "potential-class", "dt-str", "x_lo-str", "k_min-none", "snapshot-str",
        "snapshot-scalar", "num_elements-bool", "snapshot-repeat", "snapshot-decrease",
        "snapshot-one-step", "dt-subnormal", "dt-1e-300", "dt-1e-16"])
def test_config_refuses_at_construction_what_evolve_cannot_run(field, bad):
    with pytest.raises(ParameterError, match=field):
        delta_config(**{field: bad})


def test_config_takes_numpy_integer_counts():
    cfg = delta_config(num_elements=np.int64(20), num_modes=np.int32(64), n_uniform=np.int64(200))
    assert cfg.build_grid() == delta_config().build_grid()


@pytest.mark.parametrize("n_uniform", [0, -5])
def test_config_rejects_a_uniform_mesh_without_cells(n_uniform):
    with pytest.raises(ParameterError, match=f"N_um must be positive, got {n_uniform}"):
        delta_config(n_uniform=n_uniform)


# ----------------------------------------------------------------------
# evolve_4d
# ----------------------------------------------------------------------

# hbar in eV fs and the GaAs effective mass 0.067 m_e in eV fs^2 nm^-2
FD_CONSTS = PhysicalConstants(hbar=0.658211899, mass=0.067 * 5.68562966)


def fd_config(**kw):
    base = dict(
        x_lo=-10.0, x_hi=10.0, num_elements=5, points_per_element=9,
        k_min=-np.pi, k_max=np.pi, num_modes=16,
        potential=MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 8)),
        initial=FermiDiracSpec(),
        consts=FD_CONSTS,
        dt=0.01, t_final=0.1, inflow="background", n_uniform=100,
        edge_transport="symmetrized",
    )
    base.update(kw)
    return SimulationConfig(**base)


def test_evolve_4d_free_marginal_constant_in_time():
    cfg = fd_config(potential=MultiDeltaPotential2D(H=0.0, points=((0.0, 0.0),)),
                    t_final=0.1)
    snaps, series = evolve_4d(cfg)
    t, fsm = snaps[-1]
    grid = cfg.build_grid()
    f0 = spatial_marginal_2d(init_fermi_dirac_4d(grid, FermiDiracSpec(), FD_CONSTS))
    assert t == pytest.approx(0.1)
    assert np.abs(fsm - f0).max() < 1e-10
    m = series.column("total_mass")
    assert abs(m[-1] - m[0]) < 1e-10 * abs(m[0])


def test_a_free_4d_packet_is_the_product_of_two_2d_runs():
    # with zero strength the 4-D flow factorises into one 2-D flow per
    # dimension, and so do the packet, its marginal and its mass; the
    # comparison crosses the 2-D factored kernel substep with the 4-D
    # layouts, their switches and their DFT products
    common = dict(
        x_lo=-10.0, x_hi=10.0, num_elements=5, points_per_element=9, num_modes=16,
        initial=GaussianPacketSpec(x0=-2.0, k0=1.0, sigma=1.5), consts=CONSTS,
        dt=0.05, t_final=1.0,
    )
    snaps2, series2 = evolve(SimulationConfig(potential=DeltaPotential(H=0.0), **common))
    snaps4, series4 = evolve(SimulationConfig(
        potential=MultiDeltaPotential2D(H=0.0, points=((0.0, 0.0),)), **common))
    m2 = spatial_marginal(snaps2[-1])
    marginal = snaps4[-1][1]
    assert np.abs(marginal - np.outer(m2, m2)).max() <= 1e-14 * np.abs(marginal).max()
    assert series4.total_mass[-1] == pytest.approx(series2.total_mass[-1] ** 2, rel=1e-14, abs=0)


def test_evolve_4d_single_origin_delta_symmetry():
    cfg = fd_config(potential=MultiDeltaPotential2D(H=1.0, points=((0.0, 0.0),)),
                    t_final=0.05, dt=0.01)
    snaps, _ = evolve_4d(cfg)
    _, fsm = snaps[-1]
    np.testing.assert_allclose(fsm, fsm[::-1, ::-1], atol=1e-10)


def test_evolve_4d_memory_guard(monkeypatch):
    from wigsolve import dynamics
    from wigsolve.errors import CapacityError

    monkeypatch.setattr(dynamics, "MEMORY_BUDGET_BYTES", 1.0)
    with pytest.raises(CapacityError):
        evolve_4d(fd_config())


def test_evolve_refuses_an_over_budget_2d_run_before_its_table():
    import tracemalloc

    from wigsolve import kernels
    from wigsolve.errors import CapacityError

    # the table alone, 140 000 nodes x 8 193 rfft bins, would take 9.2 GB
    cfg = delta_config(num_elements=20000, points_per_element=7, num_modes=16384)
    clear_table_cache()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds the memory budget"):
            evolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not kernels._TABLE_CACHE
    assert peak < 1e8, peak


def test_evolve_4d_background_inflow_is_the_x_mean_of_the_initial_data():
    # a packet is not uniform in x: its largest corner value, 3e-14, is far
    # from the x-mean's, 3e-3, which evolve feeds the inflow boundaries
    cfg = fd_config(initial=GaussianPacketSpec(x0=-2.0, k0=1.0, sigma=1.5), t_final=0.01)
    snaps, _ = evolve(cfg)
    grid = cfg.build_grid()
    table = kernel_coefficients(cfg.potential, grid, cfg.consts)
    state = init_gaussian(grid, cfg.initial)
    inflow = state.values.mean(axis=(0, 1))
    assert np.abs(inflow - state.values[0, 0]).max() > 1e-3 * np.abs(inflow).max()
    state = step(state, table, cfg.consts, cfg.dt, cfg.scheme, inflow, True)
    L1 = _LAYOUTS[2][0]
    np.testing.assert_array_equal(snaps[-1][1],
                                  _marginal(_to_work(state.values, grid, L1), grid, L1))


def test_evolve_4d_stage_caches_match_per_stage_builds():
    cfg = fd_config(t_final=0.03)
    snaps, series = evolve_4d(cfg)
    grid = cfg.build_grid()
    table = kernel_coefficients(cfg.potential, grid, cfg.consts)
    state = init_fermi_dirac_4d(grid, cfg.initial, cfg.consts)
    inflow = state.values.mean(axis=(0, 1))
    for _ in range(3):
        state = step(state, table, cfg.consts, cfg.dt, cfg.scheme, inflow, True)
    # evolve reads its L1 field in place: exact against the same reduction of
    # the reference field in L1, and as the natural-layout observables but for
    # the summation order
    L1 = _LAYOUTS[2][0]
    it = _marginal(_to_work(state.values, grid, L1), grid, L1)
    np.testing.assert_array_equal(snaps[-1][1], it)
    assert series.total_mass[-1] == _mass(it, tuple(_cc_x_weights(mesh) for mesh in grid.spatial))
    np.testing.assert_allclose(snaps[-1][1], spatial_marginal_2d(state), rtol=1e-14, atol=0)
    assert series.total_mass[-1] == pytest.approx(total_mass(state), rel=1e-14)


# 4-D grids, and 2-D ones: the stream2d grid, a small grid on which what
# the estimate leaves out (the uniform-mesh quadrature's build, interpreter
# objects) is still small against the stepper, and two grids with a large M,
# on which a sweep plan's build, barycentric rows written in place, peaks
# near the matrices it keeps
@pytest.mark.parametrize("dims, Q, M, N", [(2, 3, 5, 8), (2, 5, 9, 16), (1, 20, 21, 128),
                                           (1, 12, 11, 48), (1, 4, 21, 32), (1, 3, 33, 64)],
                         ids=["3-5-8", "5-9-16", "2d-20-21-128", "2d-12-11-48", "2d-4-21-32",
                              "2d-3-33-64"])
def test_evolve_4d_working_set_estimate_bounds_measured_peak(dims, Q, M, N):
    import tracemalloc

    sizes = dict(num_elements=Q, points_per_element=M, num_modes=N, t_final=0.02)
    cfg = fd_config(**sizes) if dims == 2 else delta_config(**sizes)
    estimate = _working_set(cfg.build_grid(), _stage_sequence(cfg.scheme, cfg.dt))
    clear_table_cache()  # a cold table build is part of the peak
    tracemalloc.start()
    try:
        evolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate <= 1.5 * peak, (estimate, peak)


def uneven_tensor_grid():
    # every axis of the two 4-D work layouts has its own length, so a
    # mixed-up axis fails on shape or on the numbers
    return PhaseSpaceGrid.tensor4d(
        build_spatial_mesh(-4.0, 4.0, 3, 5), build_spatial_mesh(-5.0, 5.0, 2, 7),
        build_wavenumber_mesh(-np.pi, np.pi, 8), build_wavenumber_mesh(-np.pi, np.pi, 16),
    )


@pytest.mark.parametrize("dims, layout", [(1, 0), (2, 0), (2, 1), (1, None), (2, None)],
                         ids=["2d", "L1", "L2", "2d-natural", "4d-natural"])
def test_work_layouts_round_trip_and_give_the_natural_layout_marginal(dims, layout):
    # each layout of the table, and the natural order (None), holds the same
    # field: it converts back bit for bit and gives the natural marginal
    grid = uneven_tensor_grid() if dims == 2 else grid_2d(N=8, M=5, Q=3)
    values = np.random.default_rng(11).random(grid.shape)
    order = None if layout is None else _LAYOUTS[dims][layout]
    work = values if order is None else _to_work(values, grid, order)
    if order is not None:
        assert work.shape == tuple(_split(grid)[a] for a in order)
        assert work.flags.c_contiguous and not np.shares_memory(work, values)
        np.testing.assert_array_equal(_from_work(work, grid, order), values)
    got = _marginal(work, grid, order)
    lengths = math.prod(km.length for km in grid.wavenumber)
    want = lengths * values.mean(axis=tuple(range(dims, 2 * dims)))
    assert got.shape == grid.shape[:dims]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_marginal_4d_allocates_little_beyond_its_result():
    # the reduction reads the L1 field where it lies: no field-sized copy
    import tracemalloc

    cfg = fd_config()
    grid = cfg.build_grid()
    L1 = _LAYOUTS[2][0]
    work = _to_work(init_fermi_dirac_4d(grid, cfg.initial, cfg.consts).values, grid, L1)
    tracemalloc.start()
    try:
        _marginal(work, grid, L1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < work.nbytes / 64, peak


def test_stepless_4d_evolve_copies_no_field():
    # without steps evolve reads the read-only Fermi-Dirac broadcast in its
    # natural order: the peak (the profile's quadrature, the marginal) stays
    # far below one field
    import tracemalloc

    cfg = fd_config(t_final=0.0)
    evolve_4d(cfg)  # the table is cached from here on
    tracemalloc.start()
    try:
        evolve_4d(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * math.prod(cfg.build_grid().shape) / 4, peak


@pytest.mark.parametrize("run", [
    lambda s, t, i: advect(s, FD_CONSTS, 0.01, i, True),
    lambda s, t, i: step(s, t, FD_CONSTS, 0.01, "yoshida4", i, True),
], ids=["advect", "step"])
def test_4d_substeps_on_read_only_fermi_dirac_data_match_a_writable_copy(run):
    grid = uneven_tensor_grid()
    table = kernel_coefficients(MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),)), grid,
                                FD_CONSTS)
    state = init_fermi_dirac_4d(grid, FermiDiracSpec(), FD_CONSTS)
    assert not state.values.flags.writeable
    assert state.values.strides[:2] == (0, 0)
    before = state.values.copy()
    inflow = before[0, 0]
    got = run(state, table, inflow).values
    want = run(WignerState(grid, before.copy()), table, inflow).values
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(state.values, before)


@pytest.mark.parametrize("layout", ["L1", "L2"])
def test_4d_kernel_substep_keeps_each_nodes_norm_over_the_modes(layout):
    # unimodular multipliers: the discrete l2 norm over (k1, k2) of every x
    # node is untouched, in L1 (a lone kernel substep) and in L2 (after one
    # transport, which both sides of the comparison run alike)
    grid = uneven_tensor_grid()
    table = kernel_coefficients(MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),)), grid,
                                FD_CONSTS)
    state = WignerState(grid, np.random.default_rng(5).standard_normal(grid.shape))
    if layout == "L1":
        before, after = state, apply_kernel(state, table, 0.3)
    else:
        before = advect(state, FD_CONSTS, 0.02)
        after = _Stepper(grid, table, FD_CONSTS, [("A", 0.02), ("B", 0.3)]).apply(state)
    n0 = np.linalg.norm(before.values, axis=(2, 3))
    n1 = np.linalg.norm(after.values, axis=(2, 3))
    assert np.abs(after.values - before.values).max() > 0.1  # the substep did act
    np.testing.assert_allclose(n1, n0, rtol=1e-13, atol=0)


_THREADED_EVOLVE = """\
import sys
import numpy as np
from wigsolve.dynamics import SimulationConfig, evolve
from wigsolve.kernels import (DeltaPotential, MultiDeltaPotential2D, PhysicalConstants,
                              annulus_points)
from wigsolve.observables import FermiDiracSpec, GaussianPacketSpec

if sys.argv[2] == "4d":
    cfg = SimulationConfig(
        x_lo=-10.0, x_hi=10.0, num_elements=5, points_per_element=9, num_modes=16,
        potential=MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 8)),
        initial=FermiDiracSpec(),
        consts=PhysicalConstants(hbar=0.658211899, mass=0.067 * 5.68562966),
        dt=0.01, t_final=0.02, inflow="background", edge_transport="symmetrized",
    )
else:
    cfg = SimulationConfig(
        x_lo=-30.0, x_hi=30.0, num_elements=20, points_per_element=21, num_modes=128,
        potential=DeltaPotential(H=1.0), initial=GaussianPacketSpec(x0=-10.0, k0=2.0, sigma=2.0),
        consts=PhysicalConstants(hbar=1.0, mass=1.0), dt=0.01, t_final=0.02,
    )
last = evolve(cfg)[0][-1]
np.save(sys.argv[1], last[1] if sys.argv[2] == "4d" else last.values)
"""


@pytest.mark.parametrize("dims", ["2d", "4d"])
def test_evolve_gives_the_same_bits_on_one_and_two_blas_threads(tmp_path, dims):
    # the kernel substep's matrix products may be split over BLAS threads;
    # each output entry must still be summed in one fixed order
    src = str(Path(wigsolve.__file__).resolve().parent.parent)
    fields = []
    for threads in ("1", "2"):
        out = tmp_path / f"field-{threads}.npy"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREADED_EVOLVE, str(out), dims], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        fields.append(np.load(out))
    assert np.array_equal(fields[0], fields[1])


@pytest.mark.parametrize("edge", [False, True], ids=["one-sided", "symmetrized"])
def test_warm_4d_advance_allocates_almost_nothing(edge):
    # the stepper owns the second field buffer, the scratch block and the
    # inflow profiles: on the fermi4d grid with background inflow the
    # tracemalloc peak of three warm steps stays below an eighth of the field
    import tracemalloc

    cfg = fd_config()
    grid = cfg.build_grid()
    table = kernel_coefficients(cfg.potential, grid, cfg.consts)
    values = init_fermi_dirac_4d(grid, cfg.initial, cfg.consts).values
    stepper = _Stepper(grid, table, cfg.consts, _stage_sequence("yoshida4", cfg.dt),
                       values[0, 0], edge)
    work = stepper.advance(_to_work(values, grid, _LAYOUTS[2][0]))
    assert work.nbytes == 4_147_200
    tracemalloc.start()
    try:
        for _ in range(3):
            assert stepper.advance(work) is work  # a step starts and ends in L1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < work.nbytes / 8, peak


@pytest.mark.parametrize("run", [
    lambda s, t, i: advect(s, FD_CONSTS, 0.01, i, True),
    lambda s, t, i: apply_kernel(s, t, 0.01),
    lambda s, t, i: step(s, t, FD_CONSTS, 0.01, "yoshida4", i, True),
], ids=["advect", "apply_kernel", "step"])
def test_4d_substeps_leave_their_input_state_unchanged(run):
    grid = uneven_tensor_grid()
    table = kernel_coefficients(MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),)), grid,
                                FD_CONSTS)
    rng = np.random.default_rng(3)
    state = WignerState(grid, rng.random(grid.shape))
    inflow = rng.random(grid.shape[2:])
    before = state.values.copy()
    out = run(state, table, inflow)
    assert np.array_equal(state.values, before)
    assert not np.shares_memory(out.values, state.values)


@pytest.mark.parametrize("scheme", ["strang", "yoshida4", "advect"])
@pytest.mark.parametrize("with_inflow", [False, True], ids=["zero", "inflow"])
@pytest.mark.parametrize("edge", [False, True], ids=["one-sided", "symmetrized"])
def test_4d_stepping_matches_the_natural_layout_reference(scheme, with_inflow, edge):
    # the reference runs every stage on the natural layout, each transport
    # through three layout copies and each kernel substep by scipy's rfft2;
    # a lone advect has one transport and ends in L2
    grid = uneven_tensor_grid()
    table = kernel_coefficients(MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),)), grid,
                                FD_CONSTS)
    rng = np.random.default_rng(7)
    values = rng.random(grid.shape)
    inflow = rng.random(grid.shape[2:]) if with_inflow else None
    dt = 0.02
    if scheme == "advect":
        got = advect(WignerState(grid, values), FD_CONSTS, dt, inflow, edge).values
        stages = [("A", dt)]
    else:
        state = WignerState(grid, values)
        for _ in range(2):
            state = step(state, table, FD_CONSTS, dt, scheme, inflow, edge)
        got = state.values
        stages = 2 * _stage_sequence(scheme, dt)
    want = step_4d_natural(values, grid, table, FD_CONSTS, stages, inflow, edge)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_config_rejects_fermi_dirac_data_in_one_dimension():
    with pytest.raises(ParameterError, match="Fermi-Dirac"):
        delta_config(initial=FermiDiracSpec())


def test_evolve_4d_fermi_dirac_data_uses_run_hbar():
    # the data follow consts.hbar and consts.mass, the transport's constants
    spec = FermiDiracSpec()
    grid = fd_config().build_grid()
    fd_mass = total_mass(init_fermi_dirac_4d(grid, spec, FD_CONSTS))
    for consts in (PhysicalConstants(hbar=1.0, mass=FD_CONSTS.mass),
                   PhysicalConstants(hbar=FD_CONSTS.hbar, mass=2.0 * FD_CONSTS.mass)):
        _, series = evolve_4d(fd_config(consts=consts, t_final=0.0))
        own = total_mass(init_fermi_dirac_4d(grid, spec, consts))
        assert series.total_mass[0] == own
        assert abs(own - fd_mass) > 0.1 * own


@pytest.mark.parametrize("make", [delta_config, fd_config], ids=["2d", "4d"])
def test_config_rejects_a_tuple_of_packets(make):
    with pytest.raises(ParameterError, match="initial must be a GaussianPacketSpec"):
        make(initial=(PACKET, PACKET))
