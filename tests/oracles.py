"""Reference implementations the tests compare the package against.

`oscillatory_quad` is an adaptive panel quadrature with an embedded error
estimate, tuned by `QuadSpec`; `fresnel_c` is scipy's Fresnel cosine
integral; `_cpi_tail` is the direct lobe-by-lobe evaluation of
int_L^inf cos(w k) k^(-a) dk, summed by the Cohen-Villegas-Zagier
acceleration `_cvz_alternating` over `_CPI_CVZ_TERMS` lobes, that
`wigsolve.specfun` used before its continued fraction, kept verbatim, and
`cos_power_integral_lobes` is the whole integral built on it;
`cos_power_integral_mpmath` is that integral in closed form through mpmath's
incomplete gamma function at 40 digits, the reference for every alpha where
the lobe sum's tail falls short.
`_gauss_cos_transform` (Gauss-Legendre panels), `_coeff_table_multidelta` (a
loop over the delta points) and `poisson_lattice_sum` (the dense lattice sum
of the discrete-sum route, with its sampler `_poisson_samples`) are the
Gaussian, multi-delta and discrete-sum table builders `wigsolve.kernels`
used before its closed and one-term forms, kept verbatim.  `cin_series` is
the power series of Cin(u) = int_0^u (1 - cos t)/t dt.  `wigner_kernel_value` is the pointwise
Wigner kernel V_w(x, k) of every family, the integrand the tables transform.
These oracles tabulate every mode nu in ascending order; `stored_bins` takes
from such a full table the bins a `KernelTable` holds.
`barycentric_eval` evaluates one element's interpolant at a point,
`mode_frequencies` and `mode_position` give each mode's frequency and its
index in ascending storage, and `k_forward`/`k_inverse` map nodal
wavenumber data to ascending Fourier mode coefficients and back.
`spatial_interp_matrix` (barycentric) and `wavenumber_interp_matrix`
(periodic sinc, closed-form Dirichlet kernel) are the dense interpolation
matrices at arbitrary targets that the package's matrix-free uniform-mesh
maps must agree with.
`kernel_2d_rfft` runs the 2-D kernel substep as `wigsolve.dynamics` did
before its factored matrix products: numpy's rfft along the k axis of the
natural layout, the multiply by exp(i tau s) on the stored bins with the
Nyquist bin at phase 0 (`multipliers_half_2d`), and irfft.
`step_2d_natural` runs 2-D stages on the natural field layout, with no
buffer shared between stages: each transport is one sweep-plan apply on a
fresh work-layout copy, with its own out
(`advect_2d_natural`), each kernel substep `kernel_2d_rfft`.
`step_4d_natural` runs 4-D stages on the natural field layout as
`wigsolve.dynamics` did before its alternating layouts, kept verbatim: each
transport through three layout copies (`advect_4d_three_copies`), each
kernel substep by scipy's rfft2 and irfft2 with multipliers from a complex
exponential (`kernel_4d_rfft2`, `multipliers_half_4d_natural`).
`split_step_transmission` is the physics reference of the transmitted
fraction: a split-step Fourier Schrodinger run of the packet whose Wigner
function `init_gaussian` gives, past a potential sampled on a fine periodic
grid, returning the mass at x >= 0 at given times.  `delta_transmission_limit`
is the exact long-time transmitted fraction past a delta barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
import scipy.fft
import scipy.integrate
from scipy.special import fresnel as _scipy_fresnel

from wigsolve.dynamics import _sweep_plans
from wigsolve.errors import AccuracyError, DomainError, ParameterError
from wigsolve.grid import PhaseSpaceGrid, SpatialMesh, WavenumberMesh, _interp_rows
from wigsolve.kernels import (
    DeltaPotential,
    GaussianBarrier,
    InversePowerPotential,
    InverseSquarePotential,
    LogPotential,
    MultiDeltaPotential2D,
    PhysicalConstants,
    _inverse_power_prefactor,
    _sinc_L,
)
from wigsolve.specfun import _CPI_SERIES_MAX, _cpi_series, _gl

_CPI_CVZ_TERMS = 24


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 10**6
    panel_rule_order: int = 16

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ParameterError("tolerances must be positive")
        if self.panel_rule_order < 2:
            raise ParameterError("panel rule order must be >= 2")


def fresnel_c(x):
    """Fresnel cosine integral C(x) = int_0^x cos(pi t^2/2) dt; odd in x."""
    return _scipy_fresnel(x)[1]


def _cvz_alternating(terms: np.ndarray) -> np.ndarray:
    """Cohen-Villegas-Zagier sum of sum_j (-1)^j terms[..., j]."""
    n = terms.shape[-1]
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = np.zeros(terms.shape[:-1])
    for j in range(n):
        c = b - c
        s = s + c * terms[..., j]
        b *= (j + n) * (j - n) / ((j + 0.5) * (j + 1.0))
    return s / d


def _cpi_tail(omega: np.ndarray, alpha: float, L: float, n_cvz: int) -> np.ndarray:
    """int_L^inf cos(omega k) k^(-alpha) dk for omega > 0 (vectorized)."""
    # first cosine zero at or beyond L, then signed half-period lobes
    m0 = np.ceil(omega * L / np.pi - 0.5)
    z0 = (m0 + 0.5) * np.pi / omega
    nodes16, weights16 = _gl(16)
    nodes24, weights24 = _gl(24)
    # head piece [L, z0], under half a period long
    a = L
    b = z0
    t = 0.5 * (b - a)[:, None] * nodes24[None, :] + 0.5 * (a + b)[:, None]
    head = np.sum(
        0.5 * (b - a)[:, None] * weights24[None, :] * np.cos(omega[:, None] * t) * t ** (-alpha),
        axis=1,
    )
    # half-period lobes starting at z0; |v_j| decreases, signs alternate
    half = np.pi / omega
    j = np.arange(n_cvz)
    lo = z0[:, None] + j[None, :] * half[:, None]
    t = lo[:, :, None] + 0.5 * half[:, None, None] * (nodes16[None, None, :] + 1.0)
    v = np.sum(
        0.5 * half[:, None, None]
        * weights16[None, None, :]
        * np.cos(omega[:, None, None] * t)
        * t ** (-alpha),
        axis=2,
    )
    magnitudes = np.abs(v)
    sign0 = np.sign(v[:, 0])
    return head + sign0 * _cvz_alternating(magnitudes)


def cos_power_integral_lobes(omega, alpha: float, L: float) -> np.ndarray:
    """int_0^L cos(omega k) k^(-alpha) dk with the package's series up to
    its switch |omega| L = `_CPI_SERIES_MAX` and the half-line value minus
    `_cpi_tail` above."""
    w = np.abs(np.asarray(omega, float))
    out = np.empty_like(w)
    small = w * L <= _CPI_SERIES_MAX
    out[small] = _cpi_series(w[small] * L, alpha, L)
    wt = w[~small]
    half_line = math.gamma(1.0 - alpha) * math.sin(0.5 * math.pi * alpha) * wt ** (alpha - 1.0)
    out[~small] = half_line - _cpi_tail(wt, alpha, L, _CPI_CVZ_TERMS)
    return out


def cos_power_integral_mpmath(omega, alpha: float, L: float) -> np.ndarray:
    """int_0^L cos(omega k) k^(-alpha) dk = Re[(-i w)^(alpha-1) gamma(1-alpha,
    -i w L)], w = |omega| > 0, the lower incomplete gamma function by
    mpmath.gammainc at 40 digits, rounded to float."""
    import mpmath  # a test extra: only the tests that call this need it

    with mpmath.workdps(40):
        a = 1 - mpmath.mpf(alpha)
        L = mpmath.mpf(L)

        def value(w):
            z = -1j * mpmath.mpf(abs(w))
            return float(mpmath.re(z ** -a * mpmath.gammainc(a, 0, z * L)))
        return np.array([value(w) for w in np.ravel(omega)]).reshape(np.shape(omega))


def _panel_estimates(f, a: float, b: float, nodes, weights) -> float:
    t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(weights @ np.asarray(f(t), float))


def oscillatory_quad(
    f,
    a: float,
    b: float,
    spec: QuadSpec | None = None,
    singular_lo: bool = False,
    singular_hi: bool = False,
    tail_period: float | None = None,
):
    """Adaptive panel quadrature of f over (a, b) with an embedded estimate.

    Endpoint singularities (integrable) are handled by geometric panel
    grading toward the declared endpoint.  With b = inf a `tail_period`
    must be given; the half-line piece beyond the adaptive window is then
    summed by accelerated alternating half-period lobes.
    """
    spec = spec or QuadSpec()
    order = spec.panel_rule_order
    nodes, weights = _gl(order)

    tail = 0.0
    if np.isinf(b):
        if tail_period is None or tail_period <= 0:
            raise ParameterError("infinite upper limit needs a positive tail_period")
        half = 0.5 * tail_period
        start = a + max(4.0 * tail_period, 0.1 * abs(a))
        j = np.arange(512)
        lo = start + j * half
        t = lo[:, None] + 0.5 * half * (nodes[None, :] + 1.0)
        v = 0.5 * half * (np.asarray(f(t.ravel()), float).reshape(t.shape) @ weights)
        # drop a possibly irregular leading lobe, then accelerate
        sign_flips = np.sign(v[1:]) != np.sign(v[:-1])
        k0 = 1 if not sign_flips[0] else 0
        mags = np.abs(v[k0 : k0 + _CPI_CVZ_TERMS])
        tail = float(np.sum(v[:k0])) + float(np.sign(v[k0]) * _cvz_alternating(mags))
        b = float(lo[0])

    if (singular_lo or singular_hi) and not (bool(singular_lo) and bool(singular_hi)):
        # exponential substitution: the distance to the singular endpoint is
        # (b-a) e^{-t}, turning any integrable algebraic or log singularity
        # into an exponentially decaying smooth integrand on [0, T].  A
        # callable declaration supplies f as a function of that distance,
        # which keeps the last ulp-wide sliver at the endpoint (it carries
        # O(ulp^(1-beta)) of the integral) free of cancellation.
        width = b - a
        T = 320.0
        flag = singular_lo if singular_lo else singular_hi
        if callable(flag):
            fd = flag
        elif singular_lo:
            fd = lambda d: f(a + d)
        else:
            fd = lambda d: f(b - d)

        def g(t):
            d = width * np.exp(-t)
            with np.errstate(all="ignore"):
                vals = np.asarray(fd(d), float) * d
            return np.where(np.isfinite(vals), vals, 0.0)

        return oscillatory_quad(g, 0.0, T, spec) + tail
    if singular_lo and singular_hi:
        mid = 0.5 * (a + b)
        half = QuadSpec(0.5 * spec.abs_tol, spec.rel_tol, spec.max_subdivisions,
                        spec.panel_rule_order)
        return (
            oscillatory_quad(f, a, mid, half, singular_lo=singular_lo)
            + oscillatory_quad(f, mid, b, half, singular_hi=singular_hi)
            + tail
        )

    seeds = [(a, b)]

    heap = []
    total = 0.0
    err_total = 0.0
    count = 0
    for lo_, hi_ in seeds:
        whole = _panel_estimates(f, lo_, hi_, nodes, weights)
        mid = 0.5 * (lo_ + hi_)
        refined = _panel_estimates(f, lo_, mid, nodes, weights) + _panel_estimates(
            f, mid, hi_, nodes, weights
        )
        err = abs(whole - refined)
        total += refined
        err_total += err
        heappush(heap, (-err, lo_, hi_, refined))
        count += 1

    while err_total > max(spec.abs_tol, spec.rel_tol * abs(total + tail)):
        if count >= spec.max_subdivisions or not heap:
            raise AccuracyError(
                f"adaptive quadrature stalled at error {err_total:.3e}",
                estimate=total + tail,
                error_estimate=err_total,
            )
        neg_err, lo_, hi_, old = heappop(heap)
        err_total -= -neg_err
        total -= old
        mid = 0.5 * (lo_ + hi_)
        for (aa, bb) in ((lo_, mid), (mid, hi_)):
            whole = _panel_estimates(f, aa, bb, nodes, weights)
            m2 = 0.5 * (aa + bb)
            refined = _panel_estimates(f, aa, m2, nodes, weights) + _panel_estimates(
                f, m2, bb, nodes, weights
            )
            err = abs(whole - refined)
            total += refined
            err_total += err
            heappush(heap, (-err, aa, bb, refined))
            count += 1
    return total + tail


def barycentric_eval(mesh: SpatialMesh, element_values, element: int, x_star: float) -> float:
    """Value at x_star of the polynomial through one element's nodes.

    Second barycentric form; exact at the nodes themselves.
    """
    values = np.asarray(element_values, float)
    if values.shape != (mesh.points_per_element,):
        raise ParameterError("element_values must hold one value per node")
    if not 0 <= element < mesh.num_elements:
        raise ParameterError(f"element index {element} out of range")
    nodes = mesh.points_by_element[element]
    if not (nodes[0] <= x_star <= nodes[-1]):
        raise DomainError(f"x_star={x_star} outside element [{nodes[0]}, {nodes[-1]}]")
    diff = x_star - nodes
    hit = np.flatnonzero(diff == 0.0)
    if hit.size:
        return float(values[hit[0]])
    ratios = mesh.barycentric_weights / diff
    return float(ratios @ values / ratios.sum())


def mode_frequencies(mesh: WavenumberMesh) -> np.ndarray:
    """nu~ = 2*pi*nu/L_k for every mode, ascending order."""
    return 2.0 * np.pi * mesh.mode_indices / mesh.length


def mode_position(mesh: WavenumberMesh, nu: int) -> int:
    """Index of mode nu in the ascending storage order."""
    return int(nu) + mesh.num_points // 2 - 1


def k_forward(values, mesh: WavenumberMesh, axis: int = -1) -> np.ndarray:
    """Mode coefficients alpha_nu (ascending nu) of nodal wavenumber data."""
    values = np.asarray(values)
    if values.shape[axis] != mesh.num_points:
        raise ParameterError(
            f"axis length {values.shape[axis]} does not match N_k={mesh.num_points}"
        )
    spec = np.fft.fft(values, axis=axis) / mesh.num_points
    order = np.mod(mesh.mode_indices, mesh.num_points)
    return np.take(spec, order, axis=axis)


def k_inverse(coeffs, mesh: WavenumberMesh, axis: int = -1) -> np.ndarray:
    """Nodal values from mode coefficients; inverse of k_forward."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[axis] != mesh.num_points:
        raise ParameterError(
            f"axis length {coeffs.shape[axis]} does not match N_k={mesh.num_points}"
        )
    N = mesh.num_points
    order = np.mod(mesh.mode_indices, N)
    spec = np.empty_like(coeffs)
    idx = [slice(None)] * coeffs.ndim
    idx[axis] = order
    spec[tuple(idx)] = coeffs
    return np.fft.ifft(spec * N, axis=axis)


def _gauss_cos_transform(spec: GaussianBarrier, xpts, freqs, L: float) -> np.ndarray:
    """2 int_0^L sin(2xk) sin(nu~ k) e^{-2 a^2 k^2} dk by half-period GL panels,
    separable in (x, nu) so the whole table is one matrix product."""
    max_freq = 2.0 * np.max(np.abs(xpts)) + np.max(np.abs(freqs))
    panels = int(np.ceil(max_freq * L / np.pi)) + int(np.ceil(2.0 * spec.a * L)) + 4
    nodes, weights = _gl(16)
    edges = L * np.arange(panels + 1) / panels
    kq = (0.5 * (edges[1:] - edges[:-1])[:, None] * nodes[None, :]
          + 0.5 * (edges[1:] + edges[:-1])[:, None]).ravel()
    wq = (0.5 * (edges[1:] - edges[:-1])[:, None] * weights[None, :]).ravel()
    damped = wq * np.exp(-2.0 * spec.a**2 * kq * kq)
    Sn = np.sin(np.outer(freqs, kq))
    # the large (x, k-node) factor is built and weighted in place, so one
    # matrix of that size exists at a time
    Sx = np.outer(xpts, 2.0 * kq)
    np.sin(Sx, out=Sx)
    Sx *= 2.0 * damped
    return Sx @ Sn.T


def _coeff_table_multidelta(
    spec: MultiDeltaPotential2D, grid: PhaseSpaceGrid, consts: PhysicalConstants
) -> np.ndarray:
    (x1m, x2m), (k1m, k2m) = grid.spatial, grid.wavenumber
    if k1m.length != k2m.length:
        raise ParameterError("multi-delta table expects matching wavenumber domains")
    L = k1m.length
    x1 = x1m.collocation_points
    x2 = x2m.collocation_points
    f1 = mode_frequencies(k1m)
    f2 = mode_frequencies(k2m)

    def sin_transform_im(xs, freqs):
        # Im int_{-L}^{L} sin(a k) e^{-i mu k} dk, a = 2(x-d)
        a = xs[:, None]
        mu = freqs[None, :]
        return _sinc_L(a + mu, L) - _sinc_L(a - mu, L)

    def cos_transform(xs, freqs):
        a = xs[:, None]
        mu = freqs[None, :]
        return _sinc_L(a - mu, L) + _sinc_L(a + mu, L)

    total = np.zeros((x1.size, x2.size, f1.size, f2.size))
    for d1, d2 in spec.points:
        A1 = sin_transform_im(2.0 * (x1 - d1), f1)
        B1 = cos_transform(2.0 * (x1 - d1), f1)
        A2 = sin_transform_im(2.0 * (x2 - d2), f2)
        B2 = cos_transform(2.0 * (x2 - d2), f2)
        total += A1[:, None, :, None] * B2[None, :, None, :]
        total += B1[:, None, :, None] * A2[None, :, None, :]
    return 4.0 * spec.H / (math.pi * consts.hbar) * total


def _poisson_samples(spec, x, y):
    """V(x + y/2) - V(x - y/2) on the sampling lattice, with the logarithmic
    singularity rule: lattice terms that land exactly on x = 0 are dropped."""
    up = x[:, None] + 0.5 * y[None, :]
    dn = x[:, None] - 0.5 * y[None, :]
    if isinstance(spec, GaussianBarrier):
        return spec.value(up) - spec.value(dn)
    dead = (up == 0.0) | (dn == 0.0)
    safe_up = np.where(dead, 1.0, np.abs(up))
    safe_dn = np.where(dead, 1.0, np.abs(dn))
    dV = spec.H * (np.log(safe_up) - np.log(safe_dn))
    return np.where(dead, 0.0, dV)


def poisson_lattice_sum(
    spec, grid: PhaseSpaceGrid, consts: PhysicalConstants
) -> np.ndarray:
    """Discrete-sum table s_nu(x) as the sum over the lattice y_zeta = zeta
    pi/L_k, |zeta| <= N_k, of the sampled potential difference times the
    window transform 2 sinc_L(y_zeta + nu~)."""
    km = grid.k
    L = km.length
    delta_y = math.pi / L
    x = grid.x.collocation_points
    zeta = np.arange(-km.num_points, km.num_points + 1)
    y = zeta * delta_y
    dV = _poisson_samples(spec, x, y)
    # int_{-L}^{L} e^{-ik(y_zeta + nu~)} dk = 2 sinc_L(y_zeta + nu~)
    G = 2.0 * _sinc_L(y[:, None] + mode_frequencies(km)[None, :], L)
    # c = -i (...), so s is minus the real sum
    s = -((delta_y / (2.0 * math.pi * consts.hbar)) * (dV @ G))
    # nu = 0 must stay exactly zero: the substep may not touch the marginal
    s[:, mode_position(km, 0)] = 0.0
    return s


def stored_bins(full: np.ndarray, meshes) -> np.ndarray:
    """The bins of a full table, ascending nu on its trailing mode axes (one
    per mesh), that a KernelTable stores: nu = 0..N/2 on the last mode axis
    and, in 4-D phase space, every nu of the first in fft order."""
    *first, last = meshes
    out = np.take(full, [mode_position(last, n) for n in range(last.num_points // 2 + 1)], -1)
    for km in first:
        N = km.num_points
        fft_order = [*range(N // 2 + 1), *range(1 - N // 2, 0)]
        out = np.take(out, [mode_position(km, n) for n in fft_order], -2)
    return out


def cin_series(u, terms: int = 20) -> np.ndarray:
    """Cin(u) = sum_{n>=1} (-1)^(n+1) u^(2n) / (2n (2n)!), for |u| <= 1."""
    u = np.asarray(u, float)
    out = np.zeros_like(u)
    for n in range(terms, 0, -1):
        out += (-1) ** (n + 1) * u ** (2 * n) / (2 * n * math.factorial(2 * n))
    return out


def wigner_kernel_value(spec, consts: PhysicalConstants, *args):
    """Pointwise Wigner kernel V_w; (x, k) arguments, or (x1, x2, k1, k2)
    for the 2-D multi-delta family.  Vectorized over numpy inputs."""
    hbar = consts.hbar
    if isinstance(spec, MultiDeltaPotential2D):
        if len(args) != 4:
            raise ParameterError("multi-delta kernel takes (x1, x2, k1, k2)")
        x1, x2, k1, k2 = (np.asarray(a, float) for a in args)
        out = 0.0
        for d1, d2 in spec.points:
            out = out + np.sin(2.0 * (x1 - d1) * k1 + 2.0 * (x2 - d2) * k2)
        return 4.0 * spec.H / (math.pi * hbar) * out
    if len(args) != 2:
        raise ParameterError("kernel takes (x, k)")
    x, k = (np.asarray(a, float) for a in args)
    if isinstance(spec, DeltaPotential):
        return 2.0 * spec.H / (math.pi * hbar) * np.sin(2.0 * x * k)
    if isinstance(spec, GaussianBarrier):
        return (
            2.0 * spec.H / (math.pi * hbar)
            * np.sin(2.0 * x * k)
            * np.exp(-2.0 * spec.a**2 * k * k)
        )
    if isinstance(spec, LogPotential):
        # sin(2xk)/|k| jumps through k = 0; return the k -> 0+ limit there
        absk = np.abs(k)
        ratio = np.where(absk > 0, np.sin(2.0 * x * k) / np.where(absk > 0, absk, 1.0), 2.0 * x)
        return -spec.H / hbar * ratio
    if isinstance(spec, InverseSquarePotential):
        return -4.0 * spec.H / hbar * np.abs(k) * np.sin(2.0 * x * k)
    if isinstance(spec, InversePowerPotential):
        pref = _inverse_power_prefactor(spec, hbar)
        absk = np.abs(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = pref * np.sin(2.0 * x * k) * absk ** (spec.alpha - 1.0)
        return np.where(absk > 0, val, 0.0)
    raise ParameterError(f"unsupported potential {spec!r}")


def spatial_interp_matrix(mesh: SpatialMesh, targets) -> np.ndarray:
    """Dense (n_targets, Q*M) barycentric evaluation matrix."""
    elems, rows = _interp_rows(mesh, targets)
    M = mesh.points_per_element
    out = np.zeros((elems.size, mesh.num_points))
    cols = elems[:, None] * M + np.arange(M)[None, :]
    np.put_along_axis(out, cols, rows, axis=1)
    return out


def wavenumber_interp_matrix(mesh: WavenumberMesh, targets) -> np.ndarray:
    """Dense (n_targets, N_k) trigonometric interpolation matrix.

    Periodic-sinc (Dirichlet) kernel for even N with the cosine treatment of
    the Nyquist mode, so real nodal data interpolates to real values.
    sin(N theta/2) takes arguments up to N pi and loses about N ulps
    (2.7e-14 norm-wise at N = 512), so comparisons with it hold to 1e-13.
    """
    targets = np.asarray(targets, float)
    N = mesh.num_points
    theta = 2.0 * np.pi * (targets[:, None] - mesh.collocation_k[None, :]) / mesh.length
    half = 0.5 * theta
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.sin(N * half) / (N * np.tan(half))
    kernel[np.abs(s) < 1e-15] = 1.0
    return kernel


def split_step_transmission(potential, packet, consts: PhysicalConstants, times,
                            n: int = 2**15, x_lo: float = -100.0, x_hi: float = 100.0,
                            dt: float = 1e-3) -> np.ndarray:
    """Mass at x >= 0 at each of times, positive and on the lattice of dt,
    of the Schrodinger packet psi(x) ~ exp(-(x - x0)^2/(4 sigma^2) + i k0 x),
    whose Wigner function is init_gaussian's, past potential.value(x).

    Strang splitting on n equispaced points of the periodic [x_lo, x_hi):
    half a potential kick, the free flight exp(-i dt hbar k^2/(2m)) by FFT,
    half a kick.  A kick is a phase, so |psi|^2 after a step needs none of
    the outer half kicks: the loop runs one full kick between flights.  The
    mass is the trapezoid sum on [0, x_hi) with a half weight on the x = 0
    sample, of a packet normalized to unit discrete mass.
    """
    hbar, mass = consts.hbar, consts.mass
    h = (x_hi - x_lo) / n
    x = x_lo + h * np.arange(n)
    psi = np.exp(-((x - packet.x0) ** 2) / (4.0 * packet.sigma**2) + 1j * packet.k0 * x)
    psi /= math.sqrt(h * np.sum(np.abs(psi) ** 2))
    k = 2.0 * math.pi * np.fft.fftfreq(n, h)
    flight = np.exp(-0.5j * dt * hbar * k * k / mass)
    kick = np.exp(-1j * dt * potential.value(x) / hbar)
    weights = np.where(x >= 0.0, h, 0.0)
    weights[x == 0.0] = 0.5 * h
    steps = {round(t / dt): i for i, t in enumerate(times)}
    out = np.empty(len(times))
    for s in range(1, max(steps) + 1):
        if s > 1:
            psi *= kick
        psi = np.fft.ifft(flight * np.fft.fft(psi))
        if s in steps:
            out[steps[s]] = weights @ np.abs(psi) ** 2
    return out


def delta_transmission_limit(H: float, packet, consts: PhysicalConstants) -> float:
    """R(inf) = int_0^inf |phi(k)|^2 k^2/(k^2 + (m H/hbar^2)^2) dk, the mass
    that the packet psi of split_step_transmission leaves at x >= 0 for good
    past V = H delta(x): |phi(k)|^2 is its normalized wavenumber density, a
    Gaussian of mean k0 and standard deviation 1/(2 sigma), and k^2/(k^2 +
    (m H/hbar^2)^2) the plane wave's transmission probability |k/(k + i m
    H/hbar^2)|^2.  The modes k < 0 move away from the barrier; for the
    convergence ladders' packet at H = 1 they would add 2.9e-8."""
    kappa = consts.mass * H / consts.hbar**2
    spread = 0.5 / packet.sigma

    def density(k):
        return math.exp(-0.5 * ((k - packet.k0) / spread) ** 2) / (math.sqrt(2.0 * math.pi) * spread)

    value, _ = scipy.integrate.quad(lambda k: density(k) * k * k / (k * k + kappa * kappa),
                                    0.0, math.inf, epsabs=1e-13, epsrel=1e-13)
    return value


def multipliers_half_2d(table, tau: float) -> np.ndarray:
    """exp(i tau s) on the rfft bins of a (nx, Nk) field; the Nyquist bin
    stays inert."""
    phases = np.multiply(table.multipliers, tau, order="C")
    phases[:, -1] = 0.0
    return np.exp(1j * phases)


def kernel_2d_rfft(values: np.ndarray, mults: np.ndarray) -> np.ndarray:
    spec = np.fft.rfft(values, axis=1)
    spec *= mults
    return np.fft.irfft(spec, n=values.shape[1], axis=1)


def advect_2d_natural(values, grid, plan, inflow):
    """Sweep a natural-layout (nx, Nk) field through its (Nk, M, Q, 1) work
    copy, which the sweep spends, into a new out."""
    Q, M, Nk = grid.x.num_elements, grid.x.points_per_element, grid.k.num_points
    work = values.reshape(Q, M, Nk).transpose(2, 1, 0)[..., None].copy()
    out = plan.apply(work, None if inflow is None else inflow[:, None], np.empty_like(work))
    return out[..., 0].transpose(2, 1, 0).reshape(values.shape)


def step_2d_natural(values, grid, table, consts, stages, inflow=None,
                    symmetrized_edge: bool = False) -> np.ndarray:
    """Run (kind, tau) stages on a natural-layout 2-D field; returns a new field."""
    for kind, tau in stages:
        if kind == "A":
            (plan,) = _sweep_plans(grid, consts, tau, symmetrized_edge)
            values = advect_2d_natural(values, grid, plan, inflow)
        else:
            values = kernel_2d_rfft(values, multipliers_half_2d(table, tau))
    return values


def multipliers_half_4d_natural(table, tau: float) -> np.ndarray:
    """exp(i tau s) on the rfft2 bins of a natural-layout 4-D field; the
    Nyquist planes stay inert."""
    phases = np.multiply(table.multipliers, tau, order="C")
    phases[:, :, table.grid.wavenumber[0].num_points // 2] = 0.0
    phases[..., -1] = 0.0
    return np.exp(1j * phases)


def kernel_4d_rfft2(values: np.ndarray, mults: np.ndarray) -> np.ndarray:
    spec = scipy.fft.rfft2(values, axes=(2, 3))
    spec *= mults
    return scipy.fft.irfft2(spec, s=values.shape[2:], axes=(2, 3))


def advect_4d_three_copies(values, grid, plans, inflow):
    """Sweep x1, then x2, through three layout copies of the field.

    With x_d = (q_d, m_d) the field axes are (q1, m1, q2, m2, k1, k2).  The
    x1 sweep works on (k1, m1, q1, x2*k2), the x2 sweep on (k2, m2, q2,
    x1*k1); each sweep runs in place on its work copy.
    """
    x1, x2 = grid.spatial
    Q1, M1, Q2, M2 = x1.num_elements, x1.points_per_element, x2.num_elements, x2.points_per_element
    nx1, nx2, Nk1, Nk2 = values.shape
    prof1 = prof2 = None
    if inflow is not None:
        prof1 = np.broadcast_to(inflow[:, None, :], (Nk1, nx2, Nk2)).reshape(Nk1, nx2 * Nk2)
        prof2 = np.broadcast_to(inflow.T[:, None, :], (Nk2, nx1, Nk1)).reshape(Nk2, nx1 * Nk1)
    work = values.reshape(Q1, M1, Q2, M2, Nk1, Nk2).transpose(4, 1, 0, 2, 3, 5).copy()
    work = work.reshape(Nk1, M1, Q1, nx2 * Nk2)
    work = plans[0].apply(work, prof1)
    # (k1, m1, q1, q2, m2, k2) -> (k2, m2, q2, q1, m1, k1)
    work = work.reshape(Nk1, M1, Q1, Q2, M2, Nk2).transpose(5, 4, 3, 2, 1, 0).copy()
    work = work.reshape(Nk2, M2, Q2, nx1 * Nk1)
    work = plans[1].apply(work, prof2)
    work = work.reshape(Nk2, M2, Q2, Q1, M1, Nk1).transpose(3, 4, 2, 1, 5, 0)
    return work.reshape(nx1, nx2, Nk1, Nk2)


def step_4d_natural(values, grid, table, consts, stages, inflow=None,
                    symmetrized_edge: bool = False) -> np.ndarray:
    """Run (kind, tau) stages on a natural-layout 4-D field; returns a new field."""
    for kind, tau in stages:
        if kind == "A":
            plans = _sweep_plans(grid, consts, tau, symmetrized_edge)
            values = advect_4d_three_copies(values, grid, plans, inflow)
        else:
            values = kernel_4d_rfft2(values, multipliers_half_4d_natural(table, tau))
    return values
