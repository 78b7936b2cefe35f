"""Transport and kernel substeps, composed stepping, evolve drivers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import k_forward
from wigsolve.dynamics import (
    SCHEMES,
    SimulationConfig,
    _SweepPlan,
    _working_set_4d,
    advect,
    apply_kernel,
    evolve,
    evolve_4d,
    step,
)
from wigsolve.errors import ParameterError
from wigsolve.grid import (
    PhaseSpaceGrid,
    WignerState,
    build_spatial_mesh,
    build_wavenumber_mesh,
)
from wigsolve.kernels import (
    DeltaPotential,
    KernelTable,
    MultiDeltaPotential2D,
    PhysicalConstants,
    annulus_points,
    clear_table_cache,
    kernel_coefficients,
)
from wigsolve.observables import (
    FermiDiracSpec,
    GaussianPacketSpec,
    init_fermi_dirac_4d,
    init_gaussian,
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
    (tau_seed, R, with_inflow, edge)
    for tau_seed in range(4)
    for R in (1, 3)
    for with_inflow in (False, True)
    for edge in (None, 0)
]


@pytest.mark.parametrize("tau_seed, R, with_inflow, edge", SWEEP_CASES)
def test_sweep_plan_matches_two_matrix_reference(tau_seed, R, with_inflow, edge):
    rng = np.random.default_rng(100 + tau_seed)
    mesh = build_spatial_mesh(-3.0, 5.0, 6, 7)  # element width 4/3
    velocities = np.linspace(-4.0, 3.5, 16)
    # signed stage lengths: shifts from a fraction of an element up to
    # departures past both ends of the domain (|v tau| up to 12)
    tau = rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])
    work = rng.standard_normal((16, 7, 6, R))
    inflow = rng.uniform(1.0, 2.0, (16, R)) if with_inflow else None
    plan = _SweepPlan(mesh, velocities, tau, edge)
    want = _reference_sweep(mesh, velocities, tau, work, inflow, edge)
    got = plan.apply(work, inflow)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

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


def test_sweep_plan_rejects_slice_count_mismatch():
    plan = _SweepPlan(build_spatial_mesh(-1.0, 1.0, 2, 5), np.ones(4), 0.1)
    with pytest.raises(ParameterError):
        plan.apply(np.zeros((3, 5, 2, 1)))


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
    mult = 1j * table.multipliers
    mult[:, km.mode_position(km.num_points // 2)] = 0.0
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
    # s_nu(x) real and random, with s_0 = 0 at ascending position Nk/2 - 1
    s = np.random.default_rng(seed).standard_normal(grid.shape)
    zero = tuple(km.num_points // 2 - 1 for km in grid.wavenumber)
    s[(Ellipsis, *zero)] = 0.0
    return KernelTable(s, grid, None)


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
    table = KernelTable(s, grid, None)
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


def test_evolve_deterministic_and_snapshots():
    cfg = delta_config(t_final=0.1, snapshot_times=(0.05, 0.1))
    s1, r1 = evolve(cfg)
    s2, r2 = evolve(cfg)
    assert [s.time for s in s1] == [0.05, 0.1]
    np.testing.assert_array_equal(s1[1].values, s2[1].values)
    np.testing.assert_array_equal(r1.column("uncertainty"), r2.column("uncertainty"))


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


@pytest.mark.parametrize("bad", [dict(dt=math.nan), dict(dt=math.inf),
                                 dict(t_final=math.nan), dict(t_final=math.inf)])
def test_config_rejects_non_finite_time_parameters(bad):
    with pytest.raises(ParameterError, match="finite"):
        delta_config(**bad)


# ----------------------------------------------------------------------
# evolve_4d
# ----------------------------------------------------------------------

def fd_config(**kw):
    base = dict(
        x_lo=-10.0, x_hi=10.0, num_elements=5, points_per_element=9,
        k_min=-np.pi, k_max=np.pi, num_modes=16,
        potential=MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 8)),
        initial=FermiDiracSpec(),
        consts=FermiDiracSpec().constants(),
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
    f0 = spatial_marginal_2d(init_fermi_dirac_4d(grid, FermiDiracSpec()))
    assert t == pytest.approx(0.1)
    assert np.abs(fsm - f0).max() < 1e-10
    m = series.column("total_mass")
    assert abs(m[-1] - m[0]) < 1e-10 * abs(m[0])


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


def test_evolve_4d_stage_caches_match_per_stage_builds():
    cfg = fd_config(t_final=0.03)
    snaps, series = evolve_4d(cfg)
    grid = cfg.build_grid()
    table = kernel_coefficients(cfg.potential, grid, cfg.consts)
    state = init_fermi_dirac_4d(grid, cfg.initial, cfg.consts.hbar)
    inflow = state.values[0, 0].copy()
    for _ in range(3):
        state = step(state, table, cfg.consts, cfg.dt, cfg.scheme, inflow, True)
    np.testing.assert_array_equal(snaps[-1][1], spatial_marginal_2d(state))
    assert series.total_mass[-1] == total_mass(state)


@pytest.mark.parametrize("Q, M, N", [(3, 5, 8), (5, 9, 16)])
def test_evolve_4d_working_set_estimate_bounds_measured_peak(Q, M, N):
    import tracemalloc

    cfg = fd_config(num_elements=Q, points_per_element=M, num_modes=N, t_final=0.02)
    estimate = _working_set_4d(cfg, cfg.build_grid())
    clear_table_cache()  # a cold table build is part of the peak
    tracemalloc.start()
    try:
        evolve_4d(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate <= 2.0 * peak, (estimate, peak)


def test_config_rejects_fermi_dirac_data_in_one_dimension():
    with pytest.raises(ParameterError, match="Fermi-Dirac"):
        delta_config(initial=FermiDiracSpec())


def test_evolve_4d_fermi_dirac_data_uses_run_hbar():
    spec = FermiDiracSpec()
    consts = PhysicalConstants(hbar=1.0, mass=spec.mass)
    cfg = fd_config(consts=consts, t_final=0.0)
    _, series = evolve_4d(cfg)
    grid = cfg.build_grid()
    own = total_mass(init_fermi_dirac_4d(grid, spec, hbar=1.0))
    default = total_mass(init_fermi_dirac_4d(grid, spec))
    assert series.total_mass[0] == own
    assert abs(own - default) > 0.1 * own
