"""Reference implementations the tests compare the package against.

`oscillatory_quad` is an adaptive panel quadrature with an embedded error
estimate, tuned by `QuadSpec`; `fresnel_c` is scipy's Fresnel cosine
integral; `_cpi_tail` is the direct lobe-by-lobe evaluation of
int_L^inf cos(w k) k^(-a) dk that `wigsolve.specfun` used before its lobe
table, kept verbatim, and `cos_power_integral_lobes` is the whole integral
built on it.  `_gauss_cos_transform` (Gauss-Legendre panels) and
`_coeff_table_multidelta` (a loop over the delta points) are the Gaussian
and multi-delta table builders `wigsolve.kernels` used before its closed
forms, kept verbatim.  `wigner_kernel_value` is the pointwise Wigner kernel
V_w(x, k) of every family, the integrand the tables transform.
`barycentric_eval` evaluates one element's interpolant at a point, and
`k_forward`/`k_inverse` map nodal wavenumber data to ascending Fourier mode
coefficients and back.  `spatial_interp_matrix` (barycentric) and
`wavenumber_interp_matrix` (periodic sinc, closed-form Dirichlet kernel) are
the dense interpolation matrices at arbitrary targets that the package's
matrix-free uniform-mesh maps must agree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
from scipy.special import fresnel as _scipy_fresnel

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
from wigsolve.specfun import _CPI_CVZ_TERMS, _cpi_series, _cvz_alternating, _gl


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
    """int_0^L cos(omega k) k^(-alpha) dk with the package's series below
    |omega| L = 12 and the half-line value minus `_cpi_tail` above."""
    w = np.abs(np.asarray(omega, float))
    out = np.empty_like(w)
    small = w * L <= 12.0
    out[small] = _cpi_series(w[small] * L, alpha, L)
    wt = w[~small]
    half_line = math.gamma(1.0 - alpha) * math.sin(0.5 * math.pi * alpha) * wt ** (alpha - 1.0)
    out[~small] = half_line - _cpi_tail(wt, alpha, L, _CPI_CVZ_TERMS)
    return out


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
    f1 = k1m.mode_frequencies
    f2 = k2m.mode_frequencies

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
