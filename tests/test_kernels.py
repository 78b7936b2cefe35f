"""Kernel values against the defining transform; coefficient tables against
the adaptive oscillatory-quadrature oracle."""

import math

import numpy as np
import pytest

from oracles import (
    QuadSpec,
    _coeff_table_multidelta,
    _gauss_cos_transform,
    cos_power_integral_lobes,
    oscillatory_quad,
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
    clear_table_cache,
    kernel_coefficients,
    poisson_kernel_coefficients,
)

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


def table_entry(table: KernelTable, xm, km, p: int, nu: int) -> complex:
    return 1j * table.multipliers[p, km.mode_position(nu)]


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
    assert table.multipliers.shape == (nx, km.num_points)
    # c_nu(0) = 0 at the spatial origin
    p0 = int(np.argmin(np.abs(grid.x.collocation_points)))
    assert abs(grid.x.collocation_points[p0]) == 0.0
    assert np.abs(table.multipliers[p0]).max() < 1e-14


def _structure_checks(table, km):
    c = table.multipliers
    # the real s of c = i s
    assert c.dtype == np.float64
    # zero mode column empty
    assert np.abs(c[..., km.mode_position(0)]).max() < 1e-12 * (np.abs(c).max() + 1e-30)
    # odd in nu
    for nu in range(1, km.num_points // 2):
        a = c[..., km.mode_position(nu)]
        b = c[..., km.mode_position(-nu)]
        assert np.abs(a + b).max() < 1e-12 * (np.abs(c).max() + 1e-30)


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
        got = table_entry(table, xm, km, p, nu)
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
        assert table_entry(table, xm, km, p, nu) == pytest.approx(ref, abs=1e-6)


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
    got = 1j * table.multipliers[p, km.mode_position(nu0)]
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
    f1 = k1.mode_frequencies
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
    np.testing.assert_allclose(table.multipliers, expect, atol=1e-10)


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
        got = 1j * table.multipliers[p1, p2, k1.mode_position(int(n1)), k1.mode_position(int(n2))]
        assert got == pytest.approx(ref, abs=1e-8)


def test_multidelta_invariants():
    x1 = build_spatial_mesh(-3.0, 3.0, 2, 5)
    k1 = build_wavenumber_mesh(-np.pi, np.pi, 8)
    grid = PhaseSpaceGrid.tensor4d(x1, x1, k1, k1)
    spec = MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 4))
    c = kernel_coefficients(spec, grid, CONSTS).multipliers
    assert c.dtype == np.float64
    # jointly odd under (nu1, nu2) -> (-nu1, -nu2)
    for n1 in range(-3, 5):
        for n2 in range(-3, 5):
            if abs(n1) == 4 or abs(n2) == 4 or (-n1) < -3 or (-n2) < -3:
                continue
            a = c[:, :, k1.mode_position(n1), k1.mode_position(n2)]
            b = c[:, :, k1.mode_position(-n1), k1.mode_position(-n2)]
            np.testing.assert_allclose(a, -b, atol=1e-12)


# ----------------------------------------------------------------------
# closed-form tables against the quadrature and loop they replaced
# ----------------------------------------------------------------------

def _assert_exactly_odd(s, meshes):
    """s_0 = 0 and s_{-nu} = -s_nu bit for bit over the trailing mode axes."""
    pos = [[km.mode_position(n) for n in range(1 - km.num_points // 2, km.num_points // 2)]
           for km in meshes]
    zero = tuple(km.mode_position(0) for km in meshes)
    assert np.all(s[(Ellipsis, *zero)] == 0.0)
    lead = (slice(None),) * (s.ndim - len(meshes))
    ascending = s[lead + np.ix_(*pos)]
    descending = s[lead + np.ix_(*(p[::-1] for p in pos))]
    assert np.array_equal(ascending, -descending)


GAUSS_GRIDS = {"20x21x128": (30.0, 20, 21, 128), "10x9x32": (4.0, 10, 9, 32)}


@pytest.mark.parametrize("a", [0.05, 0.5, 2.0, 5.0])
@pytest.mark.parametrize("dims", GAUSS_GRIDS.values(), ids=GAUSS_GRIDS.keys())
def test_gaussian_table_matches_panel_quadrature(a, dims):
    X, Q, M, N = dims
    grid = plane_grid(X=X, Q=Q, M=M, N=N)
    spec = GaussianBarrier(H=1.0, a=a)
    s = kernel_coefficients(spec, grid, CONSTS).multipliers
    ref = -2.0 / math.pi * _gauss_cos_transform(
        spec, grid.x.collocation_points, grid.k.mode_frequencies, grid.k.length
    )
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
    nt = grid.k.mode_frequencies[None, :]

    def C(w):
        return kernels._sinc_L(w, L) - 2.0 * a * a * _k2_cos_moment(w, L)

    ref = 2.0 / math.pi * (C(2.0 * x + nt) - C(2.0 * x - nt))
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
    ref = _coeff_table_multidelta(spec, grid, CONSTS)
    assert np.abs(s - ref).max() <= 1e-15 * np.abs(s).max()
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


def test_poisson_table_invariants():
    grid = plane_grid(X=30.0, Q=10, M=11, N=64)
    table = poisson_kernel_coefficients(GaussianBarrier(H=1.0, a=2.0), grid, CONSTS)
    _structure_checks(table, grid.k)


def test_kernel_table_rejects_a_complex_or_misshaped_array():
    grid = plane_grid()
    s = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS).multipliers
    with pytest.raises(ParameterError, match="real"):
        KernelTable(1j * s, grid, DeltaPotential(H=1.0))
    with pytest.raises(ParameterError, match="shape"):
        KernelTable(s[:, :-1], grid, DeltaPotential(H=1.0))
    with pytest.raises(ParameterError, match="shape"):
        KernelTable(s.T, grid, DeltaPotential(H=1.0))


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
    freqs = grid.k.mode_frequencies
    L = grid.k.length
    wp = 2.0 * x[:, None] + freqs[None, :]
    wm = 2.0 * x[:, None] - freqs[None, :]
    beta = 1.0 - alpha
    ref = 1j * _inverse_power_prefactor(spec, CONSTS.hbar) * (
        cos_power_integral_lobes(wp, beta, L) - cos_power_integral_lobes(wm, beta, L)
    )
    got = 1j * kernel_coefficients(spec, grid, CONSTS).multipliers
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_table_cache_evicts_least_recently_used(monkeypatch):
    grid = plane_grid()
    clear_table_cache()
    table_bytes = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS).multipliers.nbytes
    monkeypatch.setattr(kernels._TABLE_CACHE, "max_bytes", 2 * table_bytes)
    first = kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS)
    second = kernel_coefficients(DeltaPotential(H=2.0), grid, CONSTS)
    assert len(kernels._TABLE_CACHE) == 2
    # the hit makes H=1 the most recent, so the third table evicts H=2
    assert kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS) is first
    kernel_coefficients(DeltaPotential(H=3.0), grid, CONSTS)
    assert len(kernels._TABLE_CACHE) == 2
    assert kernels._TABLE_CACHE.nbytes <= 2 * table_bytes
    assert kernel_coefficients(DeltaPotential(H=1.0), grid, CONSTS) is first
    assert kernel_coefficients(DeltaPotential(H=2.0), grid, CONSTS) is not second
    clear_table_cache()
