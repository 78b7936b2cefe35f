"""Initial data, marginals, masses, moments, error norms."""

import math
from dataclasses import fields

import numpy as np
import pytest

from oracles import mode_position, spatial_interp_matrix, wavenumber_interp_matrix
from wigsolve.errors import DomainError, ParameterError
from wigsolve.grid import (
    PhaseSpaceGrid,
    WignerState,
    build_spatial_mesh,
    build_wavenumber_mesh,
)
from wigsolve.dynamics import SimulationConfig, evolve
from wigsolve.kernels import DeltaPotential, PhysicalConstants, clear_table_cache
from wigsolve.observables import (
    K_B,
    FermiDiracSpec,
    GaussianPacketSpec,
    ObservableSeries,
    UniformMeshQuadrature,
    _cc_x_weights,
    error_norms,
    init_fermi_dirac_4d,
    init_gaussian,
    partial_mass,
    resample_uniform,
    spatial_marginal,
    spatial_marginal_2d,
    total_mass,
    uncertainty,
)

CONSTS = PhysicalConstants(hbar=1.0, mass=1.0)


def reference_grid(N=128, M=31):
    return PhaseSpaceGrid.plane(
        build_spatial_mesh(-30.0, 30.0, 20, M), build_wavenumber_mesh(-np.pi, np.pi, N)
    )


def reference_packet():
    return GaussianPacketSpec(x0=-10.0, k0=2.0, sigma=2.0)


def small_grid():
    return PhaseSpaceGrid.plane(
        build_spatial_mesh(-3.0, 3.0, 3, 7), build_wavenumber_mesh(-np.pi, np.pi, 16)
    )


def test_gaussian_peak_value():
    grid = reference_grid(64, 21)
    state = init_gaussian(grid, reference_packet())
    x = grid.x.collocation_points
    k = grid.k.collocation_k
    # value at the center equals 1/pi
    def f(xv, kv):
        return math.exp(-((xv + 10) ** 2) / 8.0 - 8.0 * (kv - 2.0) ** 2) / math.pi
    p = int(np.argmin(np.abs(x + 10)))
    j = int(np.argmin(np.abs(k - 2)))
    assert state.values[p, j] == pytest.approx(f(x[p], k[j]), rel=1e-14)
    assert state.values.max() <= 1.0 / math.pi + 1e-15


def test_gaussian_total_mass_and_uncertainty():
    grid = reference_grid()
    state = init_gaussian(grid, reference_packet())
    assert total_mass(state) == pytest.approx(1.0, abs=1e-4)
    unc = uncertainty(state, 600, CONSTS)
    assert unc.product == pytest.approx(0.5, abs=1e-3)
    assert unc.mean_x == pytest.approx(-10.0, abs=1e-4)
    assert unc.mean_p == pytest.approx(2.0, abs=1e-4)


def test_gaussian_tail_warning():
    grid = PhaseSpaceGrid.plane(
        build_spatial_mesh(-3.0, 3.0, 2, 7), build_wavenumber_mesh(-np.pi, np.pi, 16)
    )
    with pytest.warns(UserWarning):
        init_gaussian(grid, GaussianPacketSpec(x0=-2.5, k0=0.0, sigma=2.0))


def test_gaussian_4d_is_the_2d_packet_along_both_dimensions():
    x = build_spatial_mesh(-10.0, 10.0, 3, 5)
    k = build_wavenumber_mesh(-np.pi, np.pi, 8)
    spec = GaussianPacketSpec(x0=1.0, k0=-0.5, sigma=1.5)
    f2d = init_gaussian(PhaseSpaceGrid.plane(x, k), spec).values
    grid = PhaseSpaceGrid.tensor4d(x, x, k, k)
    f4d = init_gaussian(grid, spec).values
    np.testing.assert_allclose(f4d, np.einsum("ia,jb->ijab", f2d, f2d), rtol=0, atol=1e-15)
    with pytest.raises(ParameterError, match="one GaussianPacketSpec"):
        init_gaussian(grid, (spec, spec))


def test_partial_mass_of_initial_packet():
    grid = reference_grid()
    state = init_gaussian(grid, reference_packet())
    # Gaussian tail beyond five standard deviations
    expect = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
    assert partial_mass(state, 600) == pytest.approx(expect, abs=1e-7)
    assert expect == pytest.approx(2.9e-7, abs=1e-7)


def test_partial_mass_symmetry_identity():
    grid = small_grid()
    rng = np.random.default_rng(2)
    state = WignerState(grid, rng.standard_normal(grid.shape))
    mirrored = WignerState(grid, state.values[::-1, :].copy())
    total = uniform_mesh_mass(state, 64)
    assert partial_mass(state, 64) + partial_mass(mirrored, 64) == pytest.approx(
        total, abs=1e-8
    )


def uniform_mesh_mass(state, n_uniform):
    """Midpoint-rule mass of the field resampled on the uniform mesh."""
    x, k = state.grid.x, state.grid.k
    cell = (x.domain_hi - x.domain_lo) * k.length / n_uniform**2
    return float(resample_uniform(state, n_uniform).sum()) * cell


def _work_layout(state):
    # (nx, Nk) -> (Nk, M, Q), the layout evolve records from
    mesh = state.grid.x
    work = state.values.T.reshape(-1, mesh.num_elements, mesh.points_per_element)
    return work.transpose(0, 2, 1)


def test_row_from_work_matches_the_state_functionals():
    grid = small_grid()
    state = init_gaussian(grid, GaussianPacketSpec(x0=0.4, k0=0.5, sigma=0.8))
    series = ObservableSeries()
    quad = UniformMeshQuadrature(grid, 50)
    quad.append_row_from_work(series, 0.0, _work_layout(state), CONSTS)
    u = uncertainty(state, 50, CONSTS)
    for name, want in (("total_mass", total_mass(state)),
                       ("partial_mass", partial_mass(state, 50)), ("mean_x", u.mean_x),
                       ("mean_p", u.mean_p), ("var_x", u.var_x), ("var_p", u.var_p),
                       ("uncertainty", u.product)):
        assert series.column(name)[0] == pytest.approx(want, rel=1e-13, abs=1e-15), name


def test_row_from_work_rejects_a_negative_variance():
    # unnormalized moments of a packet of mass 100 centred off the origin:
    # <x^2> - <x>^2 is about 100 (1 + sigma^2) - 100^2, far below round-off
    grid = small_grid()
    state = init_gaussian(grid, GaussianPacketSpec(x0=0.5, k0=0.0, sigma=0.7))
    work = 100.0 * _work_layout(state)
    with pytest.raises(DomainError, match="var_x"):
        UniformMeshQuadrature(grid, 50).append_row_from_work(
            ObservableSeries(), 0.0, work, CONSTS
        )


# (Q, M, N_k, N_um): production size, N_um < N_k/2, odd N_um, N_um = 1, N_k = 512
QUADRATURE_LADDER = [
    (20, 21, 128, 600),
    (10, 9, 32, 100),
    (3, 5, 8, 7),
    (4, 6, 16, 5),
    (3, 5, 16, 1),
    (20, 21, 512, 600),
]


@pytest.mark.parametrize("Q,M,N,n_uniform", QUADRATURE_LADDER)
def test_reduced_vectors_match_the_dense_reductions(Q, M, N, n_uniform):
    # the two factors a record multiplies the field by: the k functionals
    # (1, u_k, v_k, v_k2) as rows, and the x functionals (1, the
    # Clenshaw-Curtis mass weights, u_x_right, v_x, v_x2, u_x) as columns
    # over the nodes in the work order (m, q)
    grid = _ladder_grid(Q, M, N)
    q = UniformMeshQuadrature(grid, n_uniform)
    x, k, cell = q.x_pts, q.k_pts, q.dx * q.dk
    Rx = spatial_interp_matrix(grid.x, x)
    Rk = wavenumber_interp_matrix(grid.k, k)
    ones = np.ones(n_uniform)
    k_rows = np.stack([np.ones(N), Rk.T @ ones, Rk.T @ k, Rk.T @ k**2])
    x_cols = np.stack([np.ones(Q * M), _cc_x_weights(grid.x) * grid.k.length / N,
                       cell * (Rx.T @ (x >= 0.0)), cell * (Rx.T @ x), cell * (Rx.T @ x**2),
                       cell * (Rx.T @ ones)])
    x_cols = x_cols.reshape(6, Q, M).transpose(2, 1, 0).reshape(Q * M, 6)
    for got, want in ((q._k_rows, k_rows), (q._x_cols.T, x_cols.T)):
        assert got.shape == want.shape
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


def _ladder_grid(Q, M, N):
    return PhaseSpaceGrid.plane(
        build_spatial_mesh(-7.0, 5.0, Q, M), build_wavenumber_mesh(-2.0, 3.0, N)
    )


def _dense_resample(state, n_uniform):
    q = UniformMeshQuadrature(state.grid, n_uniform)
    Rx = spatial_interp_matrix(state.grid.x, q.x_pts)
    Rk = wavenumber_interp_matrix(state.grid.k, q.k_pts)
    return Rx @ state.values @ Rk.T


@pytest.mark.parametrize("Q,M,N,n_uniform", QUADRATURE_LADDER)
def test_resample_and_error_norms_match_the_dense_oracle(Q, M, N, n_uniform):
    rng = np.random.default_rng(Q * N + n_uniform)
    grid = _ladder_grid(Q, M, N)
    other = _ladder_grid(Q + 1, M, N + 2)
    a = WignerState(grid, rng.standard_normal(grid.shape))
    b = WignerState(other, rng.standard_normal(other.shape))
    got, want = resample_uniform(a, n_uniform), _dense_resample(a, n_uniform)
    assert got.shape == want.shape == (n_uniform, n_uniform)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    diff = want - _dense_resample(b, n_uniform)
    cell = 12.0 * 5.0 / n_uniform**2  # the area of _ladder_grid over N_um^2
    eps2, eps_inf = error_norms(a, b, n_uniform)
    assert eps2 == pytest.approx(math.sqrt(float((diff**2).sum()) * cell), rel=1e-13)
    assert eps_inf == pytest.approx(float(np.abs(diff).max()), rel=1e-13)


def test_resample_matches_the_exact_sinc_interpolant_at_512_modes():
    # the reference sums the periodic-sinc kernel in long double at exactly
    # cell-centred targets, theta = 2 pi ((i + 1/2)/n - j/N); the x half
    # takes the same barycentric rows in long double
    ld = np.longdouble
    if np.finfo(ld).eps > 1e-18:
        pytest.skip("long double is no wider than double on this platform")
    N, n = 512, 600
    grid = _ladder_grid(3, 5, N)
    state = WignerState(grid, np.random.default_rng(13).standard_normal(grid.shape))
    q = UniformMeshQuadrature(grid, n)
    fx = spatial_interp_matrix(grid.x, q.x_pts).astype(ld) @ state.values.astype(ld)
    pi = 4 * np.arctan(ld(1))
    half = pi * ((np.arange(n, dtype=ld)[:, None] + ld(0.5)) / n - np.arange(N, dtype=ld) / N)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(half == 0, ld(1), np.sin(N * half) / (N * np.tan(half)))
    want = fx @ kernel.T
    err = np.linalg.norm((resample_uniform(state, n) - want).astype(float))
    assert err <= 2e-15 * np.linalg.norm(want.astype(float))


def test_resample_stays_within_its_memory_bound():
    # the wavenumber half folds only the Hermitian half of its bins and ends
    # in an irfft: on the stream2d grid at N_um = 600 one resample peaks at
    # about 6.4 MB (13.4 MB when it folded and inverted every complex bin)
    import tracemalloc

    grid = reference_grid(128, 21)
    state = init_gaussian(grid, reference_packet())
    resample_uniform(state, 600)
    tracemalloc.start()
    try:
        resample_uniform(state, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, peak


def test_stepped_evolve_stays_within_its_memory_bound():
    # two yoshida4 steps on the stream2d grid, the table built cold: the field
    # and the stepper's scratch are the two spectrum-sized buffers a step
    # runs in, and the run peaks at about 3.23 MB (3.60 MB with a third,
    # field-sized one)
    import tracemalloc

    cfg = SimulationConfig(
        x_lo=-30.0, x_hi=30.0, num_elements=20, points_per_element=21, num_modes=128,
        potential=DeltaPotential(H=1.0), initial=reference_packet(), dt=0.01, t_final=0.02,
        consts=CONSTS, n_uniform=600,
    )
    clear_table_cache()
    tracemalloc.start()
    try:
        evolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3e6, peak


def test_evolve_records_without_resampling(monkeypatch):
    # the per-step observables come from the reduced vectors: a run never
    # evaluates the field on the uniform mesh
    from wigsolve import observables
    from wigsolve.dynamics import SimulationConfig, evolve
    from wigsolve.kernels import DeltaPotential

    def refuse(*args, **kwargs):
        raise AssertionError("field resampled on the uniform mesh")

    monkeypatch.setattr(observables.UniformMeshQuadrature, "resample", refuse)
    monkeypatch.setattr(observables, "_spatial_interp", refuse)
    monkeypatch.setattr(observables, "_uniform_wavenumber_interp", refuse)
    cfg = SimulationConfig(
        x_lo=-6.0, x_hi=6.0, num_elements=4, points_per_element=9,
        k_min=-np.pi, k_max=np.pi, num_modes=16,
        potential=DeltaPotential(H=1.0), initial=GaussianPacketSpec(-1.0, 1.0, 1.0),
        dt=0.05, t_final=0.2, consts=CONSTS, n_uniform=50,
    )
    _, series = evolve(cfg)
    assert len(series) == 5
    assert np.isfinite(series.column("uncertainty")).all()


def test_runs_on_one_grid_share_one_quadrature(monkeypatch):
    # the quadrature depends on (grid, N_um) alone, so it lives in the cache
    # of grid-derived values with the kernel tables, and clearing that cache
    # drops it too
    cfg = SimulationConfig(
        x_lo=-6.0, x_hi=6.0, num_elements=4, points_per_element=9,
        k_min=-np.pi, k_max=np.pi, num_modes=16,
        potential=DeltaPotential(H=1.0), initial=GaussianPacketSpec(-1.0, 1.0, 1.0),
        dt=0.05, t_final=0.1, consts=CONSTS, n_uniform=50,
    )
    from wigsolve import observables

    built = []
    init = observables.UniformMeshQuadrature.__init__

    def spy(self, grid, n_uniform):
        built.append((grid, n_uniform))
        init(self, grid, n_uniform)

    monkeypatch.setattr(observables.UniformMeshQuadrature, "__init__", spy)
    clear_table_cache()
    try:
        first = evolve(cfg)[1]
        second = evolve(cfg)[1]
        assert len(built) == 1
        clear_table_cache()
        evolve(cfg)
        assert len(built) == 2
    finally:
        clear_table_cache()
    for name in ("total_mass", "mean_x", "uncertainty"):
        np.testing.assert_array_equal(first.column(name), second.column(name))


def test_a_shared_quadrature_cannot_be_written():
    from wigsolve.observables import _shared_quadrature

    grid = small_grid()
    clear_table_cache()
    try:
        q = _shared_quadrature(grid, 40)
        assert _shared_quadrature(grid, 40) is q
        arrays = [a for a in vars(q).values() if isinstance(a, np.ndarray)]
        assert len(arrays) >= 4  # the two meshes and the two factors of _reduce
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
    finally:
        clear_table_cache()


def test_natural_field_reduces_in_place_as_its_work_layout_copy():
    # partial_mass and the moments read the natural (Q*M, N_k) field through
    # its transpose; on the stream2d grid they equal the reduction of a
    # private (N_k, M, Q) work-layout copy, which they used to make, to 1e-14
    from wigsolve.grid import _split

    grid = reference_grid(128, 21)
    state = init_gaussian(grid, reference_packet())
    quad = UniformMeshQuadrature(grid, 600)
    work = np.ascontiguousarray(state.values.reshape(_split(grid)).T)
    want = quad._row(quad._reduce(work), CONSTS)
    assert partial_mass(state, 600) == pytest.approx(want["partial_mass"], rel=1e-14, abs=0)
    u = uncertainty(state, 600, CONSTS)
    for name, got in (("mean_x", u.mean_x), ("mean_p", u.mean_p), ("var_x", u.var_x),
                      ("var_p", u.var_p), ("uncertainty", u.product)):
        assert got == pytest.approx(want[name], rel=1e-14, abs=0), name
    np.testing.assert_allclose(quad._reduce(state.values), quad._reduce(work), rtol=1e-14,
                               atol=1e-14 * np.abs(quad._reduce(work)).max())


def test_shared_quadrature_functions_match_a_fresh_quadrature():
    grid = small_grid()
    a = init_gaussian(grid, GaussianPacketSpec(x0=0.4, k0=0.5, sigma=0.8))
    b = WignerState(grid, np.random.default_rng(11).random(grid.shape))
    clear_table_cache()
    try:
        for _ in range(2):  # the first call builds the shared quadrature, the second reads it
            fresh = UniformMeshQuadrature(grid, 40)
            np.testing.assert_array_equal(resample_uniform(a, 40), fresh.resample(a))
            assert partial_mass(a, 40) == fresh.partial_mass(a)
            assert uncertainty(a, 40, CONSTS) == fresh.moments(a, CONSTS)
            diff = fresh.resample(a) - fresh.resample(b)
            want = (math.sqrt(float((diff**2).sum()) * fresh.dx * fresh.dk),
                    float(np.abs(diff).max()))
            assert error_norms(a, b, 40) == want
    finally:
        clear_table_cache()


@pytest.mark.parametrize("n_uniform", [40.0, True, np.float64(40.0), "40"],
                         ids=["float", "bool", "numpy-float", "str"])
def test_uniform_mesh_functions_refuse_a_non_integral_N_um(n_uniform):
    from wigsolve.grid import uniform_mesh

    grid = small_grid()
    state = WignerState(grid, np.ones(grid.shape))
    calls = {
        "UniformMeshQuadrature": lambda: UniformMeshQuadrature(grid, n_uniform),
        "uniform_mesh": lambda: uniform_mesh(-1.0, 1.0, n_uniform),
        "partial_mass": lambda: partial_mass(state, n_uniform),
        "uncertainty": lambda: uncertainty(state, n_uniform, CONSTS),
        "error_norms": lambda: error_norms(state, state, n_uniform),
        "resample_uniform": lambda: resample_uniform(state, n_uniform),
    }
    clear_table_cache()
    try:
        partial_mass(state, 40)  # an equal integral N_um in the cache must not answer
        for name, call in calls.items():
            with pytest.raises(ParameterError, match="N_um must be an integer"):
                call()
    finally:
        clear_table_cache()


@pytest.mark.parametrize("n_uniform", [0, -3])
def test_uniform_mesh_functions_refuse_a_mesh_without_cells(n_uniform):
    grid = small_grid()
    state = WignerState(grid, np.ones(grid.shape))
    for call in (lambda: UniformMeshQuadrature(grid, n_uniform),
                 lambda: partial_mass(state, n_uniform)):
        with pytest.raises(ParameterError, match=f"N_um must be positive, got {n_uniform}"):
            call()


def test_constant_field_mass():
    grid = small_grid()
    state = WignerState(grid, np.full(grid.shape, 0.7))
    expect = 0.7 * 6.0 * grid.k.length
    assert total_mass(state) == pytest.approx(expect, rel=1e-12)


def test_single_nonzero_mode_has_zero_marginal():
    grid = small_grid()
    km = grid.k
    vals = np.outer(
        np.ones(grid.x.num_points),
        np.cos(3 * 2 * np.pi * (km.collocation_k - km.k_min) / km.length),
    )
    state = WignerState(grid, vals)
    assert np.abs(spatial_marginal(state)).max() < 1e-13


def test_mass_matches_dense_midpoint_oracle():
    # smooth production-style field against a 2000^2 midpoint sum, reduced
    # through the dense interpolation matrices
    grid = reference_grid(64, 21)
    state = init_gaussian(grid, reference_packet())
    q = UniformMeshQuadrature(grid, 2000)
    ux = spatial_interp_matrix(grid.x, q.x_pts).sum(axis=0)
    uk = wavenumber_interp_matrix(grid.k, q.k_pts).sum(axis=0)
    dense = float(ux @ state.values @ uk) * q.dx * q.dk
    assert total_mass(state) == pytest.approx(dense, abs=1e-6)


def test_uncertainty_mirror_invariance():
    # moments are unnormalized, so invariance is asserted on a unit-mass field
    grid = small_grid()
    rng = np.random.default_rng(4)
    raw = rng.random(grid.shape) + 0.05
    state = WignerState(grid, raw / uniform_mesh_mass(WignerState(grid, raw), 64))
    # (x, k) -> (-x, -k): reverse both axes; wavenumber nodes are left-closed
    # so drop the unpaired top row under the k flip
    flipped = state.values[::-1, :].copy()
    flipped[:, 1:] = flipped[:, :0:-1]
    mirrored = WignerState(grid, flipped)
    a = uncertainty(state, 64, CONSTS)
    b = uncertainty(mirrored, 64, CONSTS)
    assert b.var_x == pytest.approx(a.var_x, rel=1e-10, abs=1e-12)
    assert b.var_p == pytest.approx(a.var_p, rel=1e-8, abs=1e-10)
    assert b.mean_x == pytest.approx(-a.mean_x, rel=1e-8, abs=1e-10)


def test_error_norms_identities():
    grid = small_grid()
    rng = np.random.default_rng(6)
    a = WignerState(grid, rng.standard_normal(grid.shape))
    assert error_norms(a, a, 64) == (0.0, 0.0)
    c = 0.37
    b = WignerState(grid, a.values + c)
    eps2, epsinf = error_norms(b, a, 64)
    assert epsinf == pytest.approx(c, rel=1e-12)
    area = (grid.x.domain_hi - grid.x.domain_lo) * grid.k.length
    assert eps2 == pytest.approx(c * math.sqrt(area), rel=1e-12)


def test_error_norms_match_direct_summation():
    grid = small_grid()
    rng = np.random.default_rng(7)
    a = WignerState(grid, rng.standard_normal(grid.shape))
    b = WignerState(grid, rng.standard_normal(grid.shape))
    from wigsolve.observables import UniformMeshQuadrature

    q = UniformMeshQuadrature(grid, 64)
    diff = q.resample(a) - q.resample(b)
    ref2 = math.sqrt(sum(float(d) ** 2 for d in diff.ravel()) * q.dx * q.dk)
    refi = max(abs(float(d)) for d in diff.ravel())
    eps2, epsinf = error_norms(a, b, 64)
    assert eps2 == pytest.approx(ref2, rel=1e-12)
    assert epsinf == pytest.approx(refi, rel=1e-12)


def test_error_norms_domain_mismatch():
    a = WignerState(small_grid(), np.zeros((21, 16)))
    other = PhaseSpaceGrid.plane(
        build_spatial_mesh(-4.0, 3.0, 3, 7), build_wavenumber_mesh(-np.pi, np.pi, 16)
    )
    b = WignerState(other, np.zeros((21, 16)))
    with pytest.raises(ParameterError):
        error_norms(a, b, 32)


# ----------------------------------------------------------------------
# Fermi-Dirac initial data
# ----------------------------------------------------------------------

# hbar in eV fs and the GaAs effective mass 0.067 m_e in eV fs^2 nm^-2
FD_CONSTS = PhysicalConstants(hbar=0.658211899, mass=0.067 * 5.68562966)


def fd_grid(Nk=24, Q=2, M=5):
    x = build_spatial_mesh(-10.0, 10.0, Q, M)
    k = build_wavenumber_mesh(-np.pi, np.pi, Nk)
    return PhaseSpaceGrid.tensor4d(x, x, k, k)


def test_fermi_dirac_position_independent_and_monotone():
    grid = fd_grid(Nk=16)
    spec = FermiDiracSpec()
    state = init_fermi_dirac_4d(grid, spec, FD_CONSTS)
    v = state.values
    assert np.array_equal(v[0, 0], v[3, 7])
    # strictly decreasing in |k|^2 along the k1 axis at k2 = 0
    j0 = mode_position(grid.wavenumber[1], 0)
    center = int(np.argmin(np.abs(grid.wavenumber[0].collocation_k)))
    profile = v[0, 0, center:, j0]
    assert np.all(np.diff(profile) < 0)


def test_fermi_dirac_marginal_constant():
    # the discrete free-space marginal at the production wavenumber count
    grid = fd_grid(Nk=24)
    state = init_fermi_dirac_4d(grid, FermiDiracSpec(), FD_CONSTS)
    fsm = spatial_marginal_2d(state)
    assert np.abs(fsm - fsm[0, 0]).max() < 1e-15
    assert fsm[0, 0] == pytest.approx(0.05384, abs=1e-4)


def test_fermi_dirac_quadrature_converged_in_y():
    # the 64-node Gauss-Legendre panels agree with adaptive quadrature at 1e-12
    from wigsolve.observables import _fermi_dirac_profile

    spec = FermiDiracSpec()
    ks = np.linspace(0.0, 2.0 * np.pi**2, 40)
    base = _fermi_dirac_profile(spec, FD_CONSTS, ks)

    dense = _fd_profile_dense(spec, FD_CONSTS, ks)
    np.testing.assert_allclose(base, dense, atol=1e-12)


def _fd_profile_dense(spec, consts, ksq):
    # adaptive quadrature on unit panels of [0, 14]: each panel reaches its
    # relative 1e-13 without a round-off warning, which one interval at
    # 1e-14 cannot
    from scipy.integrate import quad

    hbar, mass = consts.hbar, consts.mass
    kBT = K_B * spec.T
    out = []
    for K in ksq:
        sh = (hbar**2 * K / (2 * mass) - spec.E_F) / kBT
        val = sum(
            quad(lambda y: 1.0 / (1.0 + np.exp(y * y + sh)), a, a + 1.0,
                 epsabs=1e-16, epsrel=1e-13)[0]
            for a in range(14)
        )
        out.append(math.sqrt(2 * mass * kBT) / (math.pi * hbar) * val)
    return np.asarray(out)


def test_total_mass_4d_constant_field():
    grid = fd_grid(Nk=8)
    state = WignerState(grid, np.full(grid.shape, 0.5))
    expect = 0.5 * 20.0 * 20.0 * grid.wavenumber[0].length * grid.wavenumber[1].length
    assert total_mass(state) == pytest.approx(expect, rel=1e-12)


# ----------------------------------------------------------------------
# series container
# ----------------------------------------------------------------------

def test_series_ordering_enforced():
    s = ObservableSeries()
    s.append(t=0.0, total_mass=1.0)
    s.append(t=0.1, total_mass=1.0)
    with pytest.raises(ParameterError):
        s.append(t=0.1, total_mass=1.0)
    assert len(s) == 2
    assert s.at_time(0.1, "total_mass") == 1.0


def test_series_append_fills_omitted_columns_and_refuses_unknown_ones():
    s = ObservableSeries()
    s.append(t=0.0, total_mass=1.0, mean_x=2.0, var_p=0.5)
    assert (s.t, s.total_mass, s.mean_x, s.var_p) == ([0.0], [1.0], [2.0], [0.5])
    for name in ("partial_mass", "mean_p", "var_x", "uncertainty"):
        assert math.isnan(getattr(s, name)[0]), name
    with pytest.raises(ParameterError, match="unknown observable columns: spread"):
        s.append(t=0.1, total_mass=1.0, spread=0.2)
    with pytest.raises(ParameterError, match="observable times must increase strictly"):
        s.append(t=0.0, total_mass=1.0)
    for name in ("var_x", "var_p"):
        with pytest.raises(ParameterError, match=f"{name} must be nonnegative"):
            s.append(t=0.1, total_mass=1.0, **{name: -1e-3})
    # a refused row appends nothing: every column keeps one entry
    assert {len(getattr(s, f.name)) for f in fields(s)} == {1}
