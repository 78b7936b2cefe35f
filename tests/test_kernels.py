"""Kernel values against the defining transform; coefficient tables against
the adaptive oscillatory-quadrature oracle."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.special import sici

from oracles import (
    QuadSpec,
    _coeff_table_multidelta,
    _gauss_cos_transform,
    cin_series,
    cos_power_integral_lobes,
    mode_frequencies,
    oscillatory_quad,
    poisson_lattice_sum,
    stored_bins,
    wigner_kernel_value,
)
from wigsolve import kernels
from wigsolve.errors import ParameterError
from wigsolve.grid import PhaseSpaceGrid, build_spatial_mesh, build_wavenumber_mesh
from wigsolve.kernels import (
    DeltaPotential,
    GaussianBarrier,
    InversePowerPotential,
    InverseSquarePotential,
    KernelTable,
    LogPotential,
    MultiDeltaPotential2D,
    PhysicalConstants,
    _inverse_power_prefactor,
    annulus_points,
    check_route,
    clear_table_cache,
    kernel_coefficients,
    poisson_kernel_coefficients,
)
from wigsolve.observables import FermiDiracSpec, GaussianPacketSpec

CONSTS = PhysicalConstants(hbar=1.0, mass=1.0)
ORACLE = QuadSpec(abs_tol=1e-11, rel_tol=1e-11)
# kernel-value transforms stack several singular pieces; 1e-9 is still three
# orders below the 1e-6 assertion threshold
LOOSE = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)


def plane_grid(X=4.0, Q=4, M=9, N=32, kmax=np.pi):
    return PhaseSpaceGrid.plane(
        build_spatial_mesh(-X, X, Q, M), build_wavenumber_mesh(-kmax, kmax, N)
    )


def coefficient_oracle(spec, consts, x, nu, km) -> complex:
    """c_nu(x) = int_{-L}^{L} V_w(x, k) e^{-i nu~ k} dk by adaptive panels."""
    L = km.length
    nt = 2.0 * math.pi * nu / L
    singular = isinstance(spec, (InversePowerPotential,))

    def even_part(k):
        return wigner_kernel_value(spec, consts, x, k) * np.sin(nt * k)

    imag = -2.0 * oscillatory_quad(even_part, 0.0, L, ORACLE, singular_lo=singular)
    re_probe = oscillatory_quad(
        lambda k: wigner_kernel_value(spec, consts, x, k) * np.cos(nt * k),
        0.0,
        L,
        QuadSpec(abs_tol=1e-9, rel_tol=1e-9),
        singular_lo=singular,
    ) + oscillatory_quad(
        lambda k: wigner_kernel_value(spec, consts, x, -k) * np.cos(nt * k),
        0.0,
        L,
        QuadSpec(abs_tol=1e-9, rel_tol=1e-9),
        singular_lo=singular,
    )
    assert abs(re_probe) < 1e-8
    return 1j * imag


def table_entry(table: KernelTable, point, nu) -> complex:
    """c_nu = i s_nu at one node, nu one mode per k axis: read from the stored
    bins (nu >= 0 on the last axis, fft order on the first), or through
    s_{-nu} = -s_nu when nu < 0 on the last axis (a Nyquist nu1 then aliases)."""
    sign = -1 if nu[-1] < 0 else 1
    N = table.grid.shape[table.grid.ndim_space:]
    return 1j * sign * table.multipliers[(*point, *(sign * n % m for n, m in zip(nu, N)))]


# ----------------------------------------------------------------------
# kernel values
# ----------------------------------------------------------------------

def test_delta_kernel_values():
    spec = DeltaPotential(H=1.0)
    assert wigner_kernel_value(spec, CONSTS, 0.0, 1.7) == 0.0
    assert wigner_kernel_value(spec, CONSTS, 0.25, np.pi) == pytest.approx(2.0 / np.pi, rel=1e-14)


def test_inverse_square_kernel_value():
    spec = InverseSquarePotential(H=1.0)
    got = wigner_kernel_value(spec, CONSTS, 1.0, 1.0)
    assert got == pytest.approx(-4.0 * math.sin(2.0), rel=1e-14)


def test_gaussian_kernel_approaches_delta():
    d = DeltaPotential(H=1.0)
    g = GaussianBarrier(H=1.0, a=1e-5)
    assert wigner_kernel_value(g, CONSTS, 1.0, 1.0) == pytest.approx(
        wigner_kernel_value(d, CONSTS, 1.0, 1.0), abs=1e-8
    )


def test_log_kernel_zero_k_limit():
    spec = LogPotential(H=1.0)
    assert wigner_kernel_value(spec, CONSTS, 1.3, 0.0) == pytest.approx(-2.6, rel=1e-14)
    assert wigner_kernel_value(spec, CONSTS, 1.3, 1e-9) == pytest.approx(-2.6, rel=1e-6)


def test_inverse_power_kernel_zero_k():
    spec = InversePowerPotential(H=1.0, alpha=0.5)
    assert wigner_kernel_value(spec, CONSTS, 1.0, 0.0) == 0.0


def _defining_transform_tail(f, y0, period):
    return oscillatory_quad(f, y0, np.inf, LOOSE, tail_period=period)


def _kernel_from_transform_smooth(V, x, k, hbar, y_hi=None):
    """-1/(pi hbar) int_0^inf sin(k y) [V(x+y/2) - V(x-y/2)] dy, smooth V."""
    f = lambda y: np.sin(k * y) * (V(x + 0.5 * y) - V(x - 0.5 * y))
    if y_hi is None:
        body = oscillatory_quad(f, 0.0, 40.0, LOOSE)
        tail = _defining_transform_tail(f, 40.0, 2 * np.pi / abs(k))
        return -(body + tail) / (math.pi * hbar)
    return -oscillatory_quad(f, 0.0, y_hi, LOOSE) / (math.pi * hbar)


def test_gaussian_kernel_matches_defining_transform():
    spec = GaussianBarrier(H=0.7, a=1.5)
    for (x, k) in ((0.8, 1.3), (-1.1, 2.4)):
        # integrand decays like the barrier; y = 40 is far past its support
        got = wigner_kernel_value(spec, CONSTS, x, k)
        ref = _kernel_from_transform_smooth(spec.value, x, k, 1.0, y_hi=40.0)
        assert got == pytest.approx(ref, abs=1e-10)


def test_log_kernel_matches_defining_transform():
    H = 0.9
    spec = LogPotential(H=H)
    V = lambda u: H * np.log(np.abs(u))
    for (x, k) in ((0.7, 1.2), (1.4, -0.8)):
        s = 2.0 * abs(x)  # x - y/2 = -(y - s)/2 exactly, so distances stay clean
        f = lambda y: np.sin(k * y) * (V(x + 0.5 * y) - V(x - 0.5 * y))
        near_hi = lambda d: np.sin(k * (s - d)) * (V(x + 0.5 * (s - d)) - H * np.log(0.5 * d))
        near_lo = lambda d: np.sin(k * (s + d)) * (V(x + 0.5 * (s + d)) - H * np.log(0.5 * d))
        body = (
            oscillatory_quad(f, 0.0, s, LOOSE, singular_hi=near_hi)
            + oscillatory_quad(f, s, 60.0, LOOSE, singular_lo=near_lo)
        )
        tail = _defining_transform_tail(f, 60.0, 2 * np.pi / abs(k))
        ref = -(body + tail) / math.pi
        assert wigner_kernel_value(spec, CONSTS, x, k) == pytest.approx(ref, abs=1e-6)


def test_inverse_power_kernel_matches_defining_transform():
    H = 1.0
    for alpha, (x, k) in (((0.5), (0.9, 1.1)), ((0.3), (1.2, -1.7)), ((0.7), (0.6, 2.0))):
        spec = InversePowerPotential(H=H, alpha=alpha)
        V = lambda u: H * np.abs(u) ** (-alpha)
        s = 2.0 * abs(x)
        f = lambda y: np.sin(k * y) * (V(x + 0.5 * y) - V(x - 0.5 * y))
        near_hi = lambda d: np.sin(k * (s - d)) * (
            V(x + 0.5 * (s - d)) - H * (0.5 * d) ** (-alpha)
        )
        near_lo = lambda d: np.sin(k * (s + d)) * (
            V(x + 0.5 * (s + d)) - H * (0.5 * d) ** (-alpha)
        )
        body = (
            oscillatory_quad(f, 0.0, s, LOOSE, singular_hi=near_hi)
            + oscillatory_quad(f, s, 80.0, LOOSE, singular_lo=near_lo)
        )
        tail = _defining_transform_tail(f, 80.0, 2 * np.pi / abs(k))
        ref = -(body + tail) / math.pi
        assert wigner_kernel_value(spec, CONSTS, x, k) == pytest.approx(ref, abs=1e-6)


def test_inverse_square_kernel_matches_finite_part_transform():
    # the defining integral only exists as a Hadamard finite part at y = 2|x|
    H = 1.0
    spec = InverseSquarePotential(H=H)
    for (x, k) in ((0.9, 1.4), (1.3, -0.7)):
        s = 2.0 * abs(x)
        delta = 0.05

        def smooth_piece(y):
            return np.sin(k * y) * H / (x + 0.5 * y) ** 2

        def full(y):
            return np.sin(k * y) * (H / (x + 0.5 * y) ** 2 - H / (x - 0.5 * y) ** 2)

        phi = lambda u: -4.0 * H * np.sin(k * (s + u))  # singular factor phi(u)/u^2
        phi0 = phi(0.0)
        dphi0 = -4.0 * H * k * math.cos(k * s)

        window_reg = oscillatory_quad(
            lambda u: (phi(u) - phi0 - u * dphi0) / u**2, -delta, delta, LOOSE
        )
        window = window_reg - 2.0 * phi0 / delta + oscillatory_quad(
            smooth_piece, s - delta, s + delta, LOOSE
        )
        body = (
            oscillatory_quad(full, 0.0, s - delta, LOOSE)
            + window
            + oscillatory_quad(full, s + delta, 120.0, LOOSE)
        )
        tail = _defining_transform_tail(full, 120.0, 2 * np.pi / abs(k))
        ref = -(body + tail) / math.pi
        assert wigner_kernel_value(spec, CONSTS, x, k) == pytest.approx(ref, abs=1e-6)


# ----------------------------------------------------------------------
# coefficient tables
# ----------------------------------------------------------------------

def test_delta_table_structure():
    grid = plane_grid()
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    km = grid.k
    nx = grid.x.num_points
    assert table.multipliers.shape == (nx, km.num_points // 2 + 1)
    # c_nu(0) = 0 at the spatial origin
    p0 = int(np.argmin(np.abs(grid.x.collocation_points)))
    assert abs(grid.x.collocation_points[p0]) == 0.0
    assert np.abs(table.multipliers[p0]).max() < 1e-14


def _structure_checks(table, km):
    c = table.multipliers
    # the real s of c = i s
    assert c.dtype == np.float64
    # the stored bins nu = 0..Nk/2, the zero mode column exactly empty; the
    # other half, s_{-nu} = -s_nu, is not stored
    assert c.shape[-1] == km.num_points // 2 + 1
    assert np.all(c[..., 0] == 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        DeltaPotential(H=1.0),
        LogPotential(H=1.0),
        InversePowerPotential(H=1.0, alpha=0.5),
        InverseSquarePotential(H=1.0),
        GaussianBarrier(H=1.0, a=0.5),
    ],
)
def test_table_invariants(spec):
    grid = plane_grid()
    table = kernel_coefficients(spec, grid, CONSTS)
    _structure_checks(table, grid.k)


@pytest.mark.parametrize(
    "spec",
    [
        DeltaPotential(H=1.3),
        LogPotential(H=0.8),
        InversePowerPotential(H=1.1, alpha=0.5),
        InversePowerPotential(H=0.9, alpha=0.3),
        InverseSquarePotential(H=0.6),
        GaussianBarrier(H=1.0, a=0.8),
    ],
)
def test_coefficients_match_oracle(spec):
    grid = plane_grid()
    km, xm = grid.k, grid.x
    table = kernel_coefficients(spec, grid, CONSTS)
    rng = np.random.default_rng(hash(type(spec).__name__) % 2**31)
    for _ in range(6):
        p = int(rng.integers(0, xm.num_points))
        nu = int(rng.integers(-km.num_points // 2 + 1, km.num_points // 2 + 1))
        x = xm.collocation_points[p]
        got = table_entry(table, (p,), (nu,))
        want = coefficient_oracle(spec, CONSTS, x, nu, km)
        assert got == pytest.approx(want, abs=1e-8)


def test_delta_against_riemann_sum():
    grid = plane_grid()
    km, xm = grid.k, grid.x
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    L = km.length
    k = (np.arange(10**6) + 0.5) * (2 * L) / 10**6 - L
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = int(rng.integers(0, xm.num_points))
        nu = int(rng.integers(1, km.num_points // 2))
        x = xm.collocation_points[p]
        vals = wigner_kernel_value(DeltaPotential(H=1.0), CONSTS, x, k)
        ref = np.sum(vals * np.exp(-2j * np.pi * nu * k / L)) * (2 * L) / 10**6
        assert table_entry(table, (p,), (nu,)) == pytest.approx(ref, abs=1e-6)


def test_delta_small_omega_limit_column():
    # at x = pi nu0 / L the frequency w- vanishes: the sinc limit must kick in
    km = build_wavenumber_mesh(-np.pi, np.pi, 16)
    nu0 = 2
    x_special = np.pi * nu0 / km.length
    xm = build_spatial_mesh(x_special - 1.0, x_special + 1.0, 2, 5)
    # put a collocation point exactly on the resonance
    assert np.any(np.abs(xm.collocation_points - x_special) < 1e-12)
    grid = PhaseSpaceGrid.plane(xm, km)
    table = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    p = int(np.argmin(np.abs(xm.collocation_points - x_special)))
    got = 1j * table.multipliers[p, nu0]
    wp = 2 * x_special + 2 * np.pi * nu0 / km.length
    expect = 1j * (2.0 / np.pi) * (np.sin(wp * km.length) / wp - km.length)
    assert got == pytest.approx(expect, rel=1e-12)


def test_gaussian_table_converges_to_delta_table():
    grid = plane_grid()
    d = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    g = kernel_coefficients(GaussianBarrier(H=1.0, a=1e-6), grid, CONSTS)
    scale = np.abs(d.multipliers).max()
    assert np.abs(g.multipliers - d.multipliers).max() < 1e-6 * scale


def test_multidelta_origin_matches_tensor_of_delta_transforms():
    x1 = build_spatial_mesh(-2.0, 2.0, 2, 5)
    x2 = build_spatial_mesh(-2.0, 2.0, 2, 5)
    k1 = build_wavenumber_mesh(-np.pi, np.pi, 8)
    k2 = build_wavenumber_mesh(-np.pi, np.pi, 8)
    grid = PhaseSpaceGrid.tensor4d(x1, x2, k1, k2)
    spec = MultiDeltaPotential2D(H=0.9, points=((0.0, 0.0),))
    table = kernel_coefficients(spec, grid, CONSTS)

    L = k1.length
    # 1-D building blocks evaluated independently, scalar sinc at a time
    f1 = mode_frequencies(k1)
    a1 = 2.0 * x1.collocation_points
    A1 = np.empty((a1.size, f1.size))
    B1 = np.empty_like(A1)
    for i, a in enumerate(a1):
        for j, mu in enumerate(f1):
            A1[i, j] = _sinc(a + mu, L) - _sinc(a - mu, L)
            B1[i, j] = _sinc(a - mu, L) + _sinc(a + mu, L)
    expect = (
        A1[:, None, :, None] * B1[None, :, None, :]
        + B1[:, None, :, None] * A1[None, :, None, :]
    ) * (4.0 * 0.9 / np.pi)
    assert table.multipliers.dtype == np.float64
    np.testing.assert_allclose(table.multipliers, stored_bins(expect, [k1, k2]), atol=1e-10)


def _sinc(w, L):
    if abs(w) < 1e-8:
        return L - w * w * L**3 / 6.0
    return math.sin(w * L) / w


def test_multidelta_against_tensor_quadrature_oracle():
    x1 = build_spatial_mesh(-3.0, 3.0, 2, 5)
    k1 = build_wavenumber_mesh(-np.pi, np.pi, 8)
    grid = PhaseSpaceGrid.tensor4d(x1, x1, k1, k1)
    spec = MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 8))
    table = kernel_coefficients(spec, grid, CONSTS)
    L = k1.length
    rng = np.random.default_rng(23)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    panels = 40
    edges = np.linspace(-L, L, panels + 1)
    kq = (0.5 * np.diff(edges)[:, None] * nodes[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    wq = (0.5 * np.diff(edges)[:, None] * weights[None, :]).ravel()
    for _ in range(4):
        p1, p2 = rng.integers(0, x1.num_points, 2)
        n1, n2 = rng.integers(-3, 5, 2)
        xa = x1.collocation_points[p1]
        xb = x1.collocation_points[p2]
        K1, K2 = np.meshgrid(kq, kq, indexing="ij")
        Vw = wigner_kernel_value(spec, CONSTS, xa, xb, K1, K2)
        phase = np.exp(-1j * 2 * np.pi * (n1 * K1 + n2 * K2) / L)
        ref = np.einsum("i,j,ij->", wq, wq, Vw * phase)
        got = table_entry(table, (p1, p2), (int(n1), int(n2)))
        assert got == pytest.approx(ref, abs=1e-8)


def test_multidelta_invariants():
    x1 = build_spatial_mesh(-3.0, 3.0, 2, 5)
    k1 = build_wavenumber_mesh(-np.pi, np.pi, 8)
    grid = PhaseSpaceGrid.tensor4d(x1, x1, k1, k1)
    spec = MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 4))
    c = kernel_coefficients(spec, grid, CONSTS).multipliers
    assert c.dtype == np.float64
    # jointly odd under (nu1, nu2) -> (-nu1, -nu2); with nu2 >= 0 stored,
    # both modes of a pair are stored only on the nu2 = 0 plane
    N = k1.num_points
    for n1 in range(-3, 4):
        np.testing.assert_allclose(c[:, :, n1 % N, 0], -c[:, :, -n1 % N, 0], atol=1e-12)


# ----------------------------------------------------------------------
# closed-form tables against the quadrature and loop they replaced
# ----------------------------------------------------------------------

def _assert_exactly_odd(s, meshes):
    """s_0 = 0 bit for bit over the stored bins and, in 4-D, s_{-nu} = -s_nu
    on the nu2 = 0 plane, the one plane that stores both modes of a pair."""
    assert np.all(s[(Ellipsis, *(0 for _ in meshes))] == 0.0)
    if len(meshes) == 2:
        N = meshes[0].num_points
        plane = s[:, :, :, 0]
        assert np.array_equal(plane[:, :, 1 : N // 2], -plane[:, :, : N // 2 : -1])


GAUSS_GRIDS = {"20x21x128": (30.0, 20, 21, 128), "10x9x32": (4.0, 10, 9, 32)}


@pytest.mark.parametrize("a", [0.05, 0.5, 2.0, 5.0])
@pytest.mark.parametrize("dims", GAUSS_GRIDS.values(), ids=GAUSS_GRIDS.keys())
def test_gaussian_table_matches_panel_quadrature(a, dims):
    X, Q, M, N = dims
    grid = plane_grid(X=X, Q=Q, M=M, N=N)
    spec = GaussianBarrier(H=1.0, a=a)
    s = kernel_coefficients(spec, grid, CONSTS).multipliers
    ref = stored_bins(-2.0 / math.pi * _gauss_cos_transform(
        spec, grid.x.collocation_points, mode_frequencies(grid.k), grid.k.length
    ), [grid.k])
    assert np.abs(s - ref).max() <= 1e-14 * np.abs(s).max()
    _assert_exactly_odd(s, [grid.k])


def _k2_cos_moment(w, L):
    """int_0^L k^2 cos(w k) dk, Taylor below |w| L = 1e-2."""
    small = np.abs(w) * L < 1e-2
    u = np.where(small, 1.0, w)
    exact = L * L * np.sin(u * L) / u + 2.0 * L * np.cos(u * L) / u**2 - 2.0 * np.sin(u * L) / u**3
    return np.where(small, L**3 / 3.0 - w * w * L**5 / 10.0, exact)


@pytest.mark.parametrize("dims", GAUSS_GRIDS.values(), ids=GAUSS_GRIDS.keys())
def test_narrow_gaussian_table_matches_small_a_expansion(dims):
    # e^{-2a^2k^2} = 1 - 2a^2k^2 + O(a^4): the remainder is below 1e-21 here.
    # Both grids hold points with w = 2x -+ nu~ = 0, where the Faddeeva form
    # alone would lose ten digits.
    X, Q, M, N = dims
    grid = plane_grid(X=X, Q=Q, M=M, N=N)
    a = 1e-6
    s = kernel_coefficients(GaussianBarrier(H=1.0, a=a), grid, CONSTS).multipliers
    L = grid.k.length
    x = grid.x.collocation_points[:, None]
    nt = mode_frequencies(grid.k)[None, :]

    def C(w):
        return kernels._sinc_L(w, L) - 2.0 * a * a * _k2_cos_moment(w, L)

    ref = stored_bins(2.0 / math.pi * (C(2.0 * x + nt) - C(2.0 * x - nt)), [grid.k])
    assert np.abs(s - ref).max() <= 1e-14 * np.abs(s).max()


MULTIDELTA_POINTS = {
    "origin": ((0.0, 0.0),),
    "annulus": annulus_points(2.0, 8),
    "off-centre": ((1.0, -2.0), (-3.0, 0.5), (2.5, 2.5)),
}


@pytest.mark.parametrize("points", MULTIDELTA_POINTS.values(), ids=MULTIDELTA_POINTS.keys())
@pytest.mark.parametrize("M, N", [(5, 8), (15, 16)])
def test_multidelta_table_matches_point_loop(points, M, N):
    xm = build_spatial_mesh(-10.0, 10.0, 3, M)
    km = build_wavenumber_mesh(-np.pi, np.pi, N)
    grid = PhaseSpaceGrid.tensor4d(xm, xm, km, km)
    spec = MultiDeltaPotential2D(H=1.0, points=points)
    s = kernel_coefficients(spec, grid, CONSTS).multipliers
    ref = stored_bins(_coeff_table_multidelta(spec, grid, CONSTS), [km, km])
    # the table divides one sin(a L) per row where the oracle evaluates four
    # sincs per entry; the two differ by a few ulp of max|s| (2.8e-15 at most)
    assert np.abs(s - ref).max() <= 1e-14 * np.abs(s).max()
    _assert_exactly_odd(s, [km, km])


# ----------------------------------------------------------------------
# discrete-sum (Poisson) route
# ----------------------------------------------------------------------

def test_poisson_matches_exact_for_smooth_localized_barrier():
    grid = plane_grid(X=30.0, Q=10, M=11, N=128)
    spec = GaussianBarrier(H=1.0, a=5.0)
    exact = kernel_coefficients(spec, grid, CONSTS)
    approx = poisson_kernel_coefficients(spec, grid, CONSTS)
    scale = np.abs(exact.multipliers).max()
    assert np.abs(approx.multipliers - exact.multipliers).max() < 1e-6 * scale


@pytest.mark.parametrize("L_k, a, Q, M, N", [
    (4.0 * math.pi, 0.5, 40, 21, 128),
    (2.0 * math.pi, 0.5, 20, 21, 128),
    (2.0 * math.pi, 0.25, 10, 9, 64),
    (2.0 * math.pi, 0.1, 20, 21, 128),
], ids=["4pi-a0.5", "2pi-a0.5", "2pi-a0.25", "2pi-a0.1"])
def test_gaussian_poisson_route_matches_the_exact_route_within_its_edge_factor(L_k, a, Q, M, N):
    """max|exact - Poisson| / max|exact| on [-30, 30] stays below exp(-2 a^2
    L_k^2), the kernel's Gaussian factor exp(-2 a^2 k^2) at k = L_k: about
    2.3e-15, 3.3e-10, 1.7e-3 and 0.26 against 5e-35, 2.7e-9, 7.2e-3 and
    0.45.  The bound is measured, not derived, and no bound is taken below
    the round-off of the exact table (1e-14), which the L_k = 4 pi grid
    reaches.  A narrow barrier (a L_k small) needs the exact route."""
    grid = PhaseSpaceGrid.plane(build_spatial_mesh(-30.0, 30.0, Q, M),
                                build_wavenumber_mesh(-L_k / 2, L_k / 2, N))
    spec = GaussianBarrier(H=1.0, a=a)
    exact = kernel_coefficients(spec, grid, CONSTS).multipliers
    gap = np.abs(poisson_kernel_coefficients(spec, grid, CONSTS).multipliers - exact).max()
    assert gap / np.abs(exact).max() < max(math.exp(-2.0 * a * a * L_k * L_k), 1e-14)


def test_poisson_log_fails_loudly():
    # the documented breakdown for a slowly decaying singular potential
    grid = plane_grid(X=30.0, Q=10, M=11, N=128)
    spec = LogPotential(H=1.0)
    exact = kernel_coefficients(spec, grid, CONSTS)
    approx = poisson_kernel_coefficients(spec, grid, CONSTS)
    assert np.abs(approx.multipliers - exact.multipliers).max() > 1e-2


def test_poisson_zero_potential():
    grid = plane_grid()
    table = poisson_kernel_coefficients(LogPotential(H=0.0), grid, CONSTS)
    assert np.abs(table.multipliers).max() == 0.0


def test_poisson_rejects_unsupported_family():
    grid = plane_grid()
    with pytest.raises(ParameterError):
        poisson_kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)


def _route_grids():
    xm = build_spatial_mesh(-2.0, 2.0, 2, 5)
    km, narrow = build_wavenumber_mesh(-np.pi, np.pi, 8), build_wavenumber_mesh(-2.0, 2.0, 8)
    return {"2d": PhaseSpaceGrid.plane(xm, km), "4d": PhaseSpaceGrid.tensor4d(xm, xm, km, km),
            "4d-unequal-k": PhaseSpaceGrid.tensor4d(xm, xm, km, narrow)}


ROUTE_SPECS = {
    "delta": DeltaPotential(H=1.0),
    "log": LogPotential(H=1.0),
    "inverse_power": InversePowerPotential(H=1.0, alpha=0.5),
    "inverse_square": InverseSquarePotential(H=1.0),
    "gaussian": GaussianBarrier(H=1.0, a=0.5),
    "multi_delta_2d": MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),)),
    "object": object(),
    "class": DeltaPotential,
}


def test_builders_refuse_what_check_route_refuses():
    # each route x family x grid: a builder refuses exactly where check_route
    # does, and both admit only the scalar families on a 2-D grid (the
    # discrete-sum route the log and Gaussian ones) and the multi-delta
    # family on a 4-D grid with equal wavenumber windows
    clear_table_cache()
    builders = {"exact": kernel_coefficients, "poisson": poisson_kernel_coefficients}
    admitted = set()
    for (route, build), (family, spec), (shape, grid) in itertools.product(
            builders.items(), ROUTE_SPECS.items(), _route_grids().items()):
        try:
            check_route(route, spec, grid)
        except ParameterError:
            with pytest.raises(ParameterError):
                build(spec, grid, CONSTS)
        else:
            assert build(spec, grid, CONSTS).grid == grid
            admitted.add((route, family, shape))
    scalar = {"delta", "log", "inverse_power", "inverse_square", "gaussian"}
    assert admitted == ({("exact", f, "2d") for f in scalar} | {("exact", "multi_delta_2d", "4d")}
                        | {("poisson", f, "2d") for f in ("log", "gaussian")})


def test_poisson_table_invariants():
    grid = plane_grid(X=30.0, Q=10, M=11, N=64)
    table = poisson_kernel_coefficients(GaussianBarrier(H=1.0, a=2.0), grid, CONSTS)
    _structure_checks(table, grid.k)


def _poisson_grid(window, N, X):
    """Plane grid on [-X, X] x window with X rounded down to a multiple of
    pi/L_k, so that the end nodes x = +-X put samples x -+ nu pi/L_k
    exactly on 0."""
    km = build_wavenumber_mesh(*window, N)
    X = math.floor(X / (math.pi / km.length)) * (math.pi / km.length)
    return PhaseSpaceGrid.plane(build_spatial_mesh(-X, X, 10, 11), km)


POISSON_CASES = {
    "log-symmetric-128": (LogPotential(H=0.7), (-np.pi, np.pi), 128),
    "log-asymmetric-128": (LogPotential(H=0.7), (-3.0, 3.5), 128),
    "log-symmetric-512": (LogPotential(H=-1.2), (-np.pi, np.pi), 512),
    "gaussian-symmetric-64": (GaussianBarrier(H=1.1, a=0.5), (-np.pi, np.pi), 64),
    "gaussian-asymmetric-128": (GaussianBarrier(H=1.0, a=2.0), (-3.0, 3.5), 128),
}


@pytest.mark.parametrize("spec, window, N", POISSON_CASES.values(), ids=POISSON_CASES.keys())
def test_poisson_table_is_the_dense_lattice_sum(spec, window, N):
    grid = _poisson_grid(window, N, X=30.0)
    x, km = grid.x.collocation_points, grid.k
    # samples x -+ nu pi/L_k on the log singularity, which both forms drop
    h = km.mode_indices[km.mode_indices != 0] * (math.pi / km.length)
    assert np.isin(x, h).any() and np.isin(x, -h).any()
    clear_table_cache()
    s = poisson_kernel_coefficients(spec, grid, CONSTS).multipliers
    ref = stored_bins(poisson_lattice_sum(spec, grid, CONSTS), [km])
    assert np.abs(s - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.all(s[:, 0] == 0.0)
    _assert_exactly_odd(s, [km])


@pytest.mark.parametrize("window", [(-np.pi, np.pi), (-3.0, 3.5)], ids=["symmetric", "asymmetric"])
def test_log_table_matches_the_cin_series_near_zero_frequency(window):
    # s = (H/hbar) [Cin(|w+| L) - Cin(|w-| L)]; where an argument is at most 1,
    # gamma + ln u - Ci(u) cancels down to Cin(u) ~ u^2/4 and is pinned to
    # the power series.  The grid has nodes where w- is exactly 0, and enough
    # nodes that the stored bins nu >= 0 hold 20 entries near zero frequency.
    km = build_wavenumber_mesh(*window, 32)
    grid = PhaseSpaceGrid.plane(build_spatial_mesh(-4.0, 4.0, 8, 9), km)
    spec = LogPotential(H=0.9)
    clear_table_cache()
    s = kernel_coefficients(spec, grid, CONSTS).multipliers
    x, L = grid.x.collocation_points[:, None], km.length
    up = stored_bins(np.abs(2.0 * x + mode_frequencies(km)) * L, [km])
    dn = stored_bins(np.abs(2.0 * x - mode_frequencies(km)) * L, [km])

    def cin(u):
        small = u <= 1.0
        big = np.where(small, 2.0, u)
        return np.where(small, cin_series(np.where(small, u, 0.0)),
                        np.euler_gamma + np.log(big) - sici(big)[1])

    near = np.minimum(up, dn) <= 1.0
    assert near.sum() >= 20 and (dn == 0.0).any()
    ref = spec.H / CONSTS.hbar * (cin(up) - cin(dn))
    assert np.abs(s - ref)[near].max() <= 1e-14 * np.abs(s).max()
    # in an entry the small Cin sits beside a large one; alone, its error is
    # the rounding of ln u
    u = np.geomspace(1e-12, 1.0, 61)
    assert np.all(np.abs(kernels._cin(u) - cin_series(u)) <= 4e-16 * (1.0 - np.log(u)))


@pytest.mark.parametrize("make", [
    lambda v: PhysicalConstants(hbar=v),
    lambda v: PhysicalConstants(mass=v),
    lambda v: GaussianBarrier(H=1.0, a=v),
    lambda v: GaussianPacketSpec(x0=0.0, k0=0.0, sigma=v),
    lambda v: GaussianPacketSpec(x0=v, k0=0.0, sigma=1.0),
    lambda v: GaussianPacketSpec(x0=0.0, k0=v, sigma=1.0),
    lambda v: FermiDiracSpec(T=v),
    lambda v: FermiDiracSpec(E_F=v),
    lambda v: build_wavenumber_mesh(-v, v, 8),
    lambda v: build_wavenumber_mesh(-1.0, v, 8),
], ids=["hbar", "mass", "barrier-a", "sigma", "x0", "k0", "T", "E_F", "k-window", "k_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_physical_inputs_refuse_nan_and_inf(make, value):
    with pytest.raises(ParameterError):
        make(value)


@pytest.mark.parametrize("family", [
    DeltaPotential,
    LogPotential,
    lambda H: InversePowerPotential(H=H, alpha=0.5),
    InverseSquarePotential,
    lambda H: GaussianBarrier(H=H, a=1.0),
    lambda H: MultiDeltaPotential2D(H=H, points=((0.0, 0.0),)),
], ids=["delta", "log", "inverse_power", "inverse_square", "gaussian", "multi_delta_2d"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_potentials_refuse_a_non_finite_strength(family, value):
    with pytest.raises(ParameterError, match="H"):
        family(value)
    # a zero or attractive strength is a potential like any other
    assert family(0.0).H == 0.0 and family(-2.0).H == -2.0


@pytest.mark.parametrize("route, spec", [
    (kernel_coefficients, DeltaPotential(H=1.0)),
    (poisson_kernel_coefficients, LogPotential(H=1.0)),
], ids=["exact", "poisson"])
def test_a_cached_table_cannot_be_written(route, spec):
    clear_table_cache()
    s = route(spec, plane_grid(), CONSTS).multipliers
    before = s.copy()
    with pytest.raises(ValueError):
        s[:] = 0.0
    # every later request, on a grid rebuilt from the same numbers too,
    # reads the values the table was built with
    assert np.array_equal(route(spec, plane_grid(), CONSTS).multipliers, before)
    # an array a caller hands to KernelTable stays the caller's to write
    assert KernelTable(before, plane_grid()).multipliers.flags.writeable
    clear_table_cache()


def test_kernel_table_rejects_a_complex_or_misshaped_array():
    grid = plane_grid()
    s = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS).multipliers
    with pytest.raises(ParameterError, match="real"):
        KernelTable(1j * s, grid)
    with pytest.raises(ParameterError, match="shape"):
        KernelTable(s[:, :-1], grid)
    with pytest.raises(ParameterError, match="shape"):
        KernelTable(s.T, grid)


def _uneven_4d_grid():
    # N_k1 != N_k2, so a table that mixes up its two mode axes has the wrong shape
    xm = build_spatial_mesh(-2.0, 2.0, 2, 5)
    k1, k2 = build_wavenumber_mesh(-np.pi, np.pi, 8), build_wavenumber_mesh(-np.pi, np.pi, 16)
    return PhaseSpaceGrid.tensor4d(xm, xm, k1, k2)


# the seven 2-D family and route pairs of the benchmark's families2d workload,
# and the 4-D multi-delta table, with the stored shape each must have
TABLE_CASES = {
    "delta": (kernel_coefficients, DeltaPotential(H=1.0), plane_grid, (36, 17)),
    "log": (kernel_coefficients, LogPotential(H=1.0), plane_grid, (36, 17)),
    "log_poisson": (poisson_kernel_coefficients, LogPotential(H=1.0), plane_grid, (36, 17)),
    "inverse_power": (kernel_coefficients, InversePowerPotential(H=1.0, alpha=0.5), plane_grid,
                      (36, 17)),
    "inverse_square": (kernel_coefficients, InverseSquarePotential(H=1.0), plane_grid, (36, 17)),
    "gaussian": (kernel_coefficients, GaussianBarrier(H=1.0, a=0.5), plane_grid, (36, 17)),
    "gaussian_poisson": (poisson_kernel_coefficients, GaussianBarrier(H=1.0, a=0.5), plane_grid,
                         (36, 17)),
    "multi_delta_2d": (kernel_coefficients, MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),)),
                       _uneven_4d_grid, (10, 10, 8, 9)),
}


@pytest.mark.parametrize("route, spec, make_grid, shape", TABLE_CASES.values(),
                         ids=TABLE_CASES.keys())
def test_every_table_holds_the_rfft_bins_alone(route, spec, make_grid, shape):
    clear_table_cache()
    grid = make_grid()
    s = route(spec, grid, CONSTS).multipliers
    assert s.shape == shape
    assert s.nbytes == 8 * math.prod(shape)
    if len(shape) == 4:  # nu1 in fft order on every bin, nu2 on the rfft bins
        ref = stored_bins(_coeff_table_multidelta(spec, grid, CONSTS), grid.wavenumber)
        assert np.abs(s - ref).max() <= 1e-14 * np.abs(s).max()
    clear_table_cache()


@pytest.mark.parametrize("make_grid, shape", [(plane_grid, (36, 17)),
                                              (_uneven_4d_grid, (10, 10, 8, 9))],
                         ids=["2d", "4d"])
def test_kernel_table_refuses_a_full_table_naming_the_stored_shape(make_grid, shape):
    grid = make_grid()
    with pytest.raises(ParameterError, match=re.escape(f"is not {shape}")):
        KernelTable(np.zeros(grid.shape), grid)
    assert KernelTable(np.zeros(shape), grid).multipliers.shape == shape


@pytest.mark.parametrize("route, spec, make_grid, shape", TABLE_CASES.values(),
                         ids=TABLE_CASES.keys())
def test_every_built_table_keeps_c0_zero_bit_for_bit(route, spec, make_grid, shape):
    clear_table_cache()
    s = route(spec, make_grid(), CONSTS).multipliers
    if s.ndim == 2:
        assert np.all(s[:, 0] == 0.0)
    else:  # the nu2 = 0 plane is odd in nu1, nu1 in fft order
        plane, half = s[..., 0], s.shape[2] // 2
        assert np.all(plane[:, :, 0] == 0.0)
        assert np.array_equal(plane[:, :, 1:half], -plane[:, :, : half : -1])
    clear_table_cache()


def test_kernel_table_refuses_a_nonzero_zero_mode_in_2d():
    grid = plane_grid()
    s = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS).multipliers.copy()
    scale = np.abs(s).max()
    s[3, 0] = 1e-13 * scale  # round-off passes
    KernelTable(s, grid)
    s[3, 0] = 1e-9 * scale  # it would scale the marginal by cos(tau s_0)
    with pytest.raises(ParameterError, match="nu = 0 bin"):
        KernelTable(s, grid)


def test_kernel_table_refuses_a_4d_table_that_breaks_c0():
    grid = _uneven_4d_grid()
    spec = MultiDeltaPotential2D(H=1.0, points=((0.5, -1.0),))
    s = kernel_coefficients(spec, grid, CONSTS).multipliers
    scale, half = np.abs(s).max(), s.shape[2] // 2
    rng = np.random.default_rng(5)
    # round-off on the nu2 = 0 plane and noise on its inert nu1 Nyquist line pass
    ok = s.copy()
    ok[:, :, 1:half, 0] += 1e-13 * scale * rng.standard_normal(ok[:, :, 1:half, 0].shape)
    ok[:, :, half, 0] = rng.standard_normal(ok[:, :, half, 0].shape)
    KernelTable(ok, grid)
    zero_mode = s.copy()
    zero_mode[1, 2, 0, 0] = 1e-9 * scale
    noisy = s.copy()  # the entries a real transform of the plane would not read
    noisy[:, :, half + 1 :, 0] = rng.standard_normal(noisy[:, :, half + 1 :, 0].shape)
    for bad in (zero_mode, noisy):
        with pytest.raises(ParameterError, match="not odd in nu1"):
            KernelTable(bad, grid)


def test_annulus_points_layout():
    pts = annulus_points(2.0, 8)
    assert pts[0] == (2.0, 0.0)
    assert pts[2][0] == pytest.approx(0.0, abs=1e-15)
    assert pts[2][1] == pytest.approx(2.0)
    assert len(pts) == 8


def test_multidelta_point_outside_domain_rejected():
    x1 = build_spatial_mesh(-1.0, 1.0, 1, 5)
    k1 = build_wavenumber_mesh(-np.pi, np.pi, 8)
    grid = PhaseSpaceGrid.tensor4d(x1, x1, k1, k1)
    with pytest.raises(ParameterError):
        kernel_coefficients(MultiDeltaPotential2D(H=1.0, points=((2.0, 0.0),)), grid, CONSTS)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_inverse_power_table_matches_direct_lobe_formula(alpha):
    grid = plane_grid(X=30.0, Q=10, M=9, N=64)
    spec = InversePowerPotential(H=1.1, alpha=alpha)
    x = grid.x.collocation_points
    freqs = mode_frequencies(grid.k)
    L = grid.k.length
    wp = 2.0 * x[:, None] + freqs[None, :]
    wm = 2.0 * x[:, None] - freqs[None, :]
    beta = 1.0 - alpha
    ref = 1j * _inverse_power_prefactor(spec, CONSTS.hbar) * stored_bins(
        cos_power_integral_lobes(wp, beta, L) - cos_power_integral_lobes(wm, beta, L), [grid.k]
    )
    got = 1j * kernel_coefficients(spec, grid, CONSTS).multipliers
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_table_cache_evicts_least_recently_used(monkeypatch):
    grid = plane_grid()
    clear_table_cache()
    table_bytes = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS).multipliers.nbytes
    monkeypatch.setattr(kernels, "_TABLE_CACHE_BYTES", 2 * table_bytes)
    first = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    second = kernel_coefficients(DeltaPotential(H=2.0), grid, CONSTS)
    assert len(kernels._TABLE_CACHE) == 2
    # the hit makes H=1 the most recent, so the third table evicts H=2
    assert kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS) is first
    kernel_coefficients(DeltaPotential(H=3.0), grid, CONSTS)
    assert len(kernels._TABLE_CACHE) == 2
    assert sum(t.multipliers.nbytes for t in kernels._TABLE_CACHE.values()) <= 2 * table_bytes
    assert kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS) is first
    assert kernel_coefficients(DeltaPotential(H=2.0), grid, CONSTS) is not second
    clear_table_cache()


# the families2d grid, where 2x +- nu~ repeats across elements (4 157
# distinct |w| among 54 600 entries), and one where almost none repeat, on
# an asymmetric domain, so its tables take the all-rows path
DEDUPE_GRIDS = {
    "families2d": ((-30.0, 30.0), (-np.pi, np.pi)),
    "no-repeats": ((-29.3, 31.7), (-3.0, 3.3)),
}


def _dedupe_grid(name):
    (x_lo, x_hi), (k_lo, k_hi) = DEDUPE_GRIDS[name]
    return PhaseSpaceGrid.plane(build_spatial_mesh(x_lo, x_hi, 20, 21),
                                build_wavenumber_mesh(k_lo, k_hi, 128))


def _both_signs(grid):
    x = grid.x.collocation_points[:, None]
    freqs = kernels._bin_frequencies(grid.k)[None, :]
    return 2.0 * x + freqs, 2.0 * x - freqs


@pytest.mark.parametrize("spec", [
    GaussianBarrier(H=1.0, a=0.5),
    InversePowerPotential(H=1.1, alpha=0.5),
    InversePowerPotential(H=0.7, alpha=0.8),
    LogPotential(H=0.9),
], ids=["gaussian", "inverse_power_0.5", "inverse_power_0.8", "log"])
@pytest.mark.parametrize("name", DEDUPE_GRIDS)
def test_distinct_w_tables_equal_a_per_entry_evaluation(spec, name):
    # C depends on |w| alone, so evaluating it once per distinct |w| and
    # scattering it back gives every entry's bits; for the log family
    # C(w) = Cin(|w| L)
    grid = _dedupe_grid(name)
    wp, wm = _both_signs(grid)
    L = grid.k.length
    if isinstance(spec, GaussianBarrier):
        pref = 2.0 * spec.H / (math.pi * CONSTS.hbar)
        C = lambda w: kernels._gauss_cos_transform(w, spec.a, L)
    elif isinstance(spec, LogPotential):
        pref = spec.H / CONSTS.hbar
        C = lambda w: kernels._cin(np.abs(w) * L)
    else:
        pref = _inverse_power_prefactor(spec, CONSTS.hbar)
        C = lambda w: kernels.cos_power_integral(w, 1.0 - spec.alpha, L)
    clear_table_cache()
    try:
        s = kernel_coefficients(spec, grid, CONSTS).multipliers
    finally:
        clear_table_cache()
    np.testing.assert_array_equal(s, pref * (C(wp) - C(wm)))


@pytest.mark.parametrize("name", DEDUPE_GRIDS)
def test_gaussian_table_transforms_each_distinct_w_once(name, monkeypatch):
    grid = _dedupe_grid(name)
    both = np.concatenate(_both_signs(grid))
    distinct = np.unique(np.abs(both)).size
    calls = []
    transform = kernels._gauss_cos_transform

    def spy(w, a, L):
        calls.append(np.size(w))
        return transform(w, a, L)

    monkeypatch.setattr(kernels, "_gauss_cos_transform", spy)
    clear_table_cache()
    try:
        kernel_coefficients(GaussianBarrier(H=1.0, a=0.5), grid, CONSTS)
    finally:
        clear_table_cache()
    assert len(calls) == 1 and calls[0] <= distinct
    if name == "families2d":
        assert distinct < 0.1 * both.size


def test_inverse_square_row_sines_match_per_entry_sines():
    # sin(w+- L) = sin(2 x L) and sin^2(w+- L/2) = sin^2(x L) hold exactly
    # at nu~ L = 2 pi nu; in floating point the two forms agree to round-off
    grid = _dedupe_grid("families2d")
    wp, wm = _both_signs(grid)
    L = grid.k.length

    def moment(w):
        return L * kernels._sinc_L(w, L) - 0.5 * kernels._sinc_L(0.5 * w, L) ** 2

    spec = InverseSquarePotential(H=1.0)
    ref = -4.0 * spec.H / CONSTS.hbar * (moment(wp) - moment(wm))
    s = kernel_coefficients(spec, grid, CONSTS).multipliers
    assert np.abs(s - ref).max() <= 1e-13 * np.abs(ref).max()


# the seven 2-D (family, route) builds of TABLE_CASES, the Gaussian also narrow
MIRROR_CASES = {name: case[:2] for name, case in TABLE_CASES.items() if len(case[3]) == 2}
MIRROR_CASES["gaussian_narrow"] = (kernel_coefficients, GaussianBarrier(H=-0.8, a=0.05))
# symmetric meshes with an even row count (a node at x = 0 twice, at a shared
# boundary), an odd one (x = 0 once) and the families2d one
MIRROR_GRIDS = {
    "24-rows": lambda: plane_grid(X=0.7, Q=4, M=6, N=8),
    "45-rows": lambda: plane_grid(X=7.3, Q=5, M=9, N=16),
    "420-rows": lambda: _dedupe_grid("families2d"),
}


def _bits(a):
    """The bits of a float array, a zero's sign aside (adding +0.0 clears it)."""
    return (a + 0.0).view(np.int64)


def _built_row_by_row(route, spec, grid, monkeypatch):
    # every row evaluated on its own, with no mirror
    monkeypatch.setattr(kernels, "_odd_in_x", lambda x, rows: np.concatenate(
        [rows(x[i : i + 1]) for i in range(x.size)]))
    clear_table_cache()
    try:
        return route(spec, grid, CONSTS).multipliers
    finally:
        clear_table_cache()
        monkeypatch.undo()


@pytest.mark.parametrize("route, spec", MIRROR_CASES.values(), ids=MIRROR_CASES.keys())
@pytest.mark.parametrize("mesh", MIRROR_GRIDS)
def test_mirror_built_tables_are_odd_and_equal_a_row_by_row_build(route, spec, mesh,
                                                                  monkeypatch):
    grid = MIRROR_GRIDS[mesh]()
    clear_table_cache()
    try:
        s = route(spec, grid, CONSTS).multipliers
    finally:
        clear_table_cache()
    np.testing.assert_array_equal(_bits(s[::-1]), _bits(-s))
    np.testing.assert_array_equal(_bits(s), _bits(_built_row_by_row(route, spec, grid,
                                                                    monkeypatch)))


@pytest.mark.parametrize("name", DEDUPE_GRIDS)
def test_only_a_mirror_mesh_skips_the_rows_below_zero(name, monkeypatch):
    grid = _dedupe_grid(name)
    x = grid.x.collocation_points
    evaluated = []

    def spy(spec, x, h):
        evaluated.append(x.copy())
        return samples(spec, x, h)

    samples = kernels._poisson_samples
    monkeypatch.setattr(kernels, "_poisson_samples", spy)
    clear_table_cache()
    try:
        poisson_kernel_coefficients(LogPotential(H=1.0), grid, CONSTS)
    finally:
        clear_table_cache()
    [rows] = evaluated
    if name == "no-repeats":  # an asymmetric domain: every row, as they are
        np.testing.assert_array_equal(rows, x)
    else:
        np.testing.assert_array_equal(rows, x[x.size // 2 :])
        assert rows.min() == 0.0
