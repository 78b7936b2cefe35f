"""Initial data, marginals, masses, moments, error norms."""

import math

import numpy as np
import pytest

from wigsolve.errors import ParameterError
from wigsolve.grid import PhaseSpaceGrid, WignerState, build_spatial_mesh, build_wavenumber_mesh
from wigsolve.kernels import PhysicalConstants
from wigsolve.observables import (
    FermiDiracSpec,
    GaussianPacketSpec,
    ObservableSeries,
    error_norms,
    init_fermi_dirac_4d,
    init_gaussian,
    partial_mass,
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
    total = total_mass_via_uniform(state)
    assert partial_mass(state, 64) + partial_mass(mirrored, 64) == pytest.approx(
        total, abs=1e-8
    )


def test_quadrature_cache_is_bounded_by_bytes(monkeypatch):
    from wigsolve import observables

    monkeypatch.setattr(observables._QUAD_CACHE, "max_bytes", 1)
    grid = small_grid()
    state = WignerState(grid, np.random.default_rng(3).standard_normal(grid.shape))
    for n_uniform in (32, 48, 32):
        partial_mass(state, n_uniform)
    # every entry is over the bound, so only the newest is kept
    assert len(observables._QUAD_CACHE) == 1


def total_mass_via_uniform(state):
    from wigsolve.observables import UniformMeshQuadrature

    return UniformMeshQuadrature(state.grid, 64).mass(state)


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
    # smooth production-style field against a 2000^2 midpoint sum
    grid = reference_grid(64, 21)
    state = init_gaussian(grid, reference_packet())
    from wigsolve.observables import UniformMeshQuadrature

    dense = UniformMeshQuadrature(grid, 2000).mass(state)
    assert total_mass(state) == pytest.approx(dense, abs=1e-6)


def test_uncertainty_mirror_invariance():
    # moments are unnormalized, so invariance is asserted on a unit-mass field
    grid = small_grid()
    rng = np.random.default_rng(4)
    from wigsolve.observables import UniformMeshQuadrature

    q = UniformMeshQuadrature(grid, 64)
    raw = rng.random(grid.shape) + 0.05
    state = WignerState(grid, raw)
    state = WignerState(grid, raw / q.mass(state))
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

def fd_grid(Nk=24, Q=2, M=5):
    x = build_spatial_mesh(-10.0, 10.0, Q, M)
    k = build_wavenumber_mesh(-np.pi, np.pi, Nk)
    return PhaseSpaceGrid.tensor4d(x, x, k, k)


def test_fermi_dirac_position_independent_and_monotone():
    grid = fd_grid(Nk=16)
    spec = FermiDiracSpec()
    state = init_fermi_dirac_4d(grid, spec)
    v = state.values
    assert np.array_equal(v[0, 0], v[3, 7])
    # strictly decreasing in |k|^2 along the k1 axis at k2 = 0
    j0 = grid.wavenumber[1].mode_position(0)
    center = int(np.argmin(np.abs(grid.wavenumber[0].collocation_k)))
    profile = v[0, 0, center:, j0]
    assert np.all(np.diff(profile) < 0)


def test_fermi_dirac_marginal_constant():
    # the discrete free-space marginal at the production wavenumber count
    grid = fd_grid(Nk=24)
    state = init_fermi_dirac_4d(grid, FermiDiracSpec())
    fsm = spatial_marginal_2d(state)
    assert np.abs(fsm - fsm[0, 0]).max() < 1e-15
    assert fsm[0, 0] == pytest.approx(0.05384, abs=1e-4)


def test_fermi_dirac_quadrature_converged_in_y():
    # doubling the y panel density must not move the profile at 1e-12
    from wigsolve.observables import _fermi_dirac_profile

    spec = FermiDiracSpec()
    ks = np.linspace(0.0, 2.0 * np.pi**2, 40)
    base = _fermi_dirac_profile(spec, 0.658211899, ks)

    dense = _fd_profile_dense(spec, 0.658211899, ks)
    np.testing.assert_allclose(base, dense, atol=1e-12)


def _fd_profile_dense(spec, hbar, ksq):
    from scipy.integrate import quad

    kBT = spec.k_B * spec.T
    out = []
    for K in ksq:
        sh = (hbar**2 * K / (2 * spec.mass) - spec.E_F) / kBT
        val = quad(lambda y: 1.0 / (1.0 + np.exp(y * y + sh)), 0, 14, limit=400,
                   epsabs=1e-14, epsrel=1e-14)[0]
        out.append(math.sqrt(2 * spec.mass * kBT) / (math.pi * hbar) * val)
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
