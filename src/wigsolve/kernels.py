"""Wigner kernels of the supported potential families and their mode tables.

Every family in scope has a kernel odd in k of the form pref * sin(2 x k) *
phi(|k|) (tensor combinations of such factors in the 2-D multi-delta case),
so each coefficient c_nu = i s_nu reduces to one-dimensional cosine
transforms:

    s_nu(x) = pref * [ C(w+) - C(w-) ],     w+- = 2x +- 2 pi nu / L_k,
    C(w)    = int_0^{L_k} cos(w k) phi(k) dk.

C has a closed form for the delta, inverse-square and multi-delta families,
a cosine-integral split for the logarithmic family, the singular-oscillatory
quadrature for the inverse-power family, and Gauss-Legendre panels for the
finite-size Gaussian barrier.  Every table holds the real s with
c = i s; s_0 = 0 and s_{-nu} = -s_nu, which is what keeps the kernel substep
real and marginal-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import ByteLRU
from .errors import DomainError, ParameterError
from .grid import PhaseSpaceGrid
from .specfun import cos_power_integral, cosine_integral, gamma_fn, _gl

__all__ = [
    "PhysicalConstants",
    "DeltaPotential",
    "LogPotential",
    "InversePowerPotential",
    "InverseSquarePotential",
    "GaussianBarrier",
    "MultiDeltaPotential2D",
    "annulus_points",
    "KernelTable",
    "wigner_kernel_value",
    "kernel_coefficients",
    "poisson_kernel_coefficients",
    "clear_table_cache",
]

# sin(w L)/w and int_0^L k cos(w k) dk switch to Taylor values below this
_SMALL_OMEGA = 1e-8

# prescribed split point of the logarithmic coefficient integral
LOG_SPLIT_EPS = 1e-5


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar in eV fs, particle mass in eV fs^2 nm^-2."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0:
            raise ParameterError("hbar and mass must be positive")


@dataclass(frozen=True)
class DeltaPotential:
    """V(x) = H delta(x); H in eV nm."""

    H: float


@dataclass(frozen=True)
class LogPotential:
    """Logarithmic potential with strength H in eV.

    The pointwise potential is only sampled by the discrete-sum route, which
    uses the even extension H log|x|; the kernel itself is defined for all x.
    """

    H: float


@dataclass(frozen=True)
class InversePowerPotential:
    """V(x) = H |x|^-alpha with alpha in (0, 1); H in eV nm^alpha."""

    H: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class InverseSquarePotential:
    """V(x) = H |x|^-2; H in eV nm^2."""

    H: float


@dataclass(frozen=True)
class GaussianBarrier:
    """Finite-size barrier H exp(-x^2/(2 a^2)) / (sqrt(2 pi) a); H in eV nm."""

    H: float
    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ParameterError(f"barrier size must be positive, got {self.a}")

    def value(self, x):
        x = np.asarray(x, float)
        return self.H / (math.sqrt(2.0 * math.pi) * self.a) * np.exp(-x * x / (2 * self.a**2))


@dataclass(frozen=True)
class MultiDeltaPotential2D:
    """Sum of 2-D point potentials H delta(x1-d1) delta(x2-d2); H in eV nm^2."""

    H: float
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ParameterError("need at least one delta point")
        object.__setattr__(
            self, "points", tuple((float(p), float(q)) for p, q in self.points)
        )


def annulus_points(radius: float, count: int) -> tuple[tuple[float, float], ...]:
    """Points evenly spaced on a circle, first on the positive x1 axis,
    numbered anticlockwise."""
    ang = 2.0 * np.pi * np.arange(count) / count
    return tuple((float(radius * np.cos(a)), float(radius * np.sin(a))) for a in ang)


PotentialSpec = (
    DeltaPotential
    | LogPotential
    | InversePowerPotential
    | InverseSquarePotential
    | GaussianBarrier
    | MultiDeltaPotential2D
)


def _inverse_power_prefactor(spec: InversePowerPotential, hbar: float) -> float:
    # kernel of H |x|^-alpha from the defining transform:
    #   2^(1+alpha) H Gamma(1-alpha) sin(pi alpha/2) / (pi hbar) * sin(2xk) |k|^(alpha-1)
    a = spec.alpha
    return 2.0 ** (1.0 + a) * spec.H * gamma_fn(1.0 - a) * math.sin(0.5 * math.pi * a) / (
        math.pi * hbar
    )


def wigner_kernel_value(spec: PotentialSpec, consts: PhysicalConstants, *args):
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


@dataclass
class KernelTable:
    """Real mode coefficients s_nu(x) (ascending nu), c_nu = i s_nu.

    The kernel substep multiplies mode nu by exp(i tau s_nu) over a stage
    of length tau.
    """

    multipliers: np.ndarray  # float64; (nx, Nk) or (nx1, nx2, Nk1, Nk2)
    grid: PhaseSpaceGrid
    potential: PotentialSpec

    def __post_init__(self):
        if np.iscomplexobj(self.multipliers):
            raise ParameterError("kernel table must hold the real s_nu (c_nu = i s_nu)")
        self.multipliers = np.asarray(self.multipliers, float)
        if self.multipliers.shape != self.grid.shape:
            raise ParameterError(
                f"table shape {self.multipliers.shape} does not match grid {self.grid.shape}"
            )


def _sinc_L(w: np.ndarray, L: float) -> np.ndarray:
    w = np.asarray(w, float)
    small = np.abs(w) < _SMALL_OMEGA
    safe = np.where(small, 1.0, w)
    return np.where(small, L - w * w * L**3 / 6.0, np.sin(safe * L) / safe)


def _k_cos_moment(w: np.ndarray, L: float) -> np.ndarray:
    """int_0^L k cos(w k) dk without cancellation near w = 0."""
    w = np.asarray(w, float)
    small = np.abs(w) < _SMALL_OMEGA
    safe = np.where(small, 1.0, w)
    u = safe * L
    exact = L * np.sin(u) / safe - 2.0 * np.sin(0.5 * u) ** 2 / safe**2
    taylor = L * L * (0.5 - (w * L) ** 2 / 8.0)
    return np.where(small, taylor, exact)


def _log_cos_transform_pair(wp, wm, L: float):
    """C(w+) - C(w-) for phi = 1/k, regularized by the (0, eps) Taylor split."""
    eps = LOG_SPLIT_EPS

    def g(w):
        absw = np.abs(w)
        zero = absw == 0.0
        safe = np.where(zero, 1.0, absw)
        val = cosine_integral(safe * eps) - cosine_integral(safe * L)
        return np.where(zero, -math.log(L / eps), val)

    return 0.5 * (g(wp) - g(wm))


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


def _coeff_table_1d(spec, grid: PhaseSpaceGrid, consts: PhysicalConstants) -> np.ndarray:
    xm, km = grid.x, grid.k
    L = km.length
    hbar = consts.hbar
    x = xm.collocation_points
    freqs = km.mode_frequencies
    wp = 2.0 * x[:, None] + freqs[None, :]
    wm = 2.0 * x[:, None] - freqs[None, :]

    if isinstance(spec, DeltaPotential):
        pref = 2.0 * spec.H / (math.pi * hbar)
        diff = _sinc_L(wp, L) - _sinc_L(wm, L)
    elif isinstance(spec, InverseSquarePotential):
        pref = -4.0 * spec.H / hbar
        diff = _k_cos_moment(wp, L) - _k_cos_moment(wm, L)
    elif isinstance(spec, GaussianBarrier):
        pref = 2.0 * spec.H / (math.pi * hbar)
        # separable quadrature already returns C(w+) - C(w-) = -2 int sin sin
        diff = -_gauss_cos_transform(spec, x, freqs, L)
    elif isinstance(spec, LogPotential):
        pref = 2.0 * spec.H / hbar
        nt = freqs[None, :]
        xc = x[:, None]
        eps = LOG_SPLIT_EPS
        taylor = nt * xc * eps**2 - (nt * xc**3 / 3.0 + nt**3 * xc / 12.0) * eps**4
        diff = taylor + _log_cos_transform_pair(wp, wm, L)
        return pref * diff
    elif isinstance(spec, InversePowerPotential):
        pref = _inverse_power_prefactor(spec, hbar)
        beta = 1.0 - spec.alpha  # exponent of |k| in the kernel denominator
        cp, cm = cos_power_integral(np.stack([wp, wm]), beta, L)
        diff = cp - cm
    else:
        raise ParameterError(f"unsupported 2-D potential {spec!r}")
    return pref * diff


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


# A table costs 8 B per phase-space point: the bound holds about sixty
# 45^2 x 16^2 multi-delta tables, or six hundred 2-D tables at 420 x 128.
_TABLE_CACHE_BYTES = 256 * 2**20
_TABLE_CACHE = ByteLRU(_TABLE_CACHE_BYTES)


def clear_table_cache():
    _TABLE_CACHE.clear()


def kernel_coefficients(
    spec: PotentialSpec, grid: PhaseSpaceGrid, consts: PhysicalConstants
) -> KernelTable:
    """Exact-route coefficient table s_nu(x) over K' = [-L_k, L_k]."""
    key = ("exact", spec, grid.cache_key(), consts)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    if isinstance(spec, MultiDeltaPotential2D):
        if grid.ndim_space != 2:
            raise ParameterError("multi-delta potential needs a 4-D grid")
        for d1, d2 in spec.points:
            if not (
                grid.spatial[0].domain_lo <= d1 <= grid.spatial[0].domain_hi
                and grid.spatial[1].domain_lo <= d2 <= grid.spatial[1].domain_hi
            ):
                raise ParameterError(f"delta point ({d1}, {d2}) outside the spatial domain")
        table = KernelTable(_coeff_table_multidelta(spec, grid, consts), grid, spec)
    else:
        if grid.ndim_space != 1:
            raise ParameterError("scalar potential families need a 2-D phase-space grid")
        table = KernelTable(_coeff_table_1d(spec, grid, consts), grid, spec)
    _TABLE_CACHE.put(key, table)
    return table


def _poisson_samples(spec, x, y):
    """V(x + y/2) - V(x - y/2) on the sampling lattice, with the logarithmic
    singularity rule: lattice terms that land exactly on x = 0 are dropped."""
    up = x[:, None] + 0.5 * y[None, :]
    dn = x[:, None] - 0.5 * y[None, :]
    if isinstance(spec, GaussianBarrier):
        return spec.value(up) - spec.value(dn)
    if isinstance(spec, LogPotential):
        dead = (up == 0.0) | (dn == 0.0)
        safe_up = np.where(dead, 1.0, np.abs(up))
        safe_dn = np.where(dead, 1.0, np.abs(dn))
        dV = spec.H * (np.log(safe_up) - np.log(safe_dn))
        return np.where(dead, 0.0, dV)
    raise ParameterError(
        "the discrete-sum route supports smooth-away-from-origin potentials only "
        f"(logarithmic or Gaussian), got {spec!r}"
    )


def poisson_kernel_coefficients(
    spec: PotentialSpec,
    grid: PhaseSpaceGrid,
    consts: PhysicalConstants,
    delta_y: float | None = None,
    lattice_offset: float = 0.0,
) -> KernelTable:
    """Approximate-route table from the discrete-sum (Poisson summation)
    kernel with y_zeta = (zeta + lattice_offset) * delta_y over the mode
    index set.

    delta_y defaults to pi/L_k, the sampling dual of the coefficient window
    [-L_k, L_k]; at that spacing the route reproduces the exact table for
    smooth, localized potentials.  The summation index runs over
    |zeta| <= N_k (the smallest symmetric truncation of the infinite sum
    containing the dual-lattice survivor of every tabulated mode).
    lattice_offset = 0.5 shifts the samples half a cell so the potential is
    never evaluated at its center.
    """
    if grid.ndim_space != 1:
        raise ParameterError("the discrete-sum route is implemented for 2-D phase space")
    km = grid.k
    L = km.length
    if delta_y is None:
        delta_y = math.pi / L
    if delta_y <= 0:
        raise ParameterError(f"delta_y must be positive, got {delta_y}")
    key = ("poisson", spec, grid.cache_key(), consts, float(delta_y), float(lattice_offset))
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    x = grid.x.collocation_points
    zeta = np.arange(-km.num_points, km.num_points + 1)
    y = (zeta + lattice_offset) * delta_y
    dV = _poisson_samples(spec, x, y)
    # int_{-L}^{L} e^{-ik(y_zeta + nu~)} dk = 2 sinc_L(y_zeta + nu~)
    G = 2.0 * _sinc_L(y[:, None] + km.mode_frequencies[None, :], L)
    # c = -i (...), so s is minus the real sum
    s = -((delta_y / (2.0 * math.pi * consts.hbar)) * (dV @ G))
    # nu = 0 must stay exactly zero: the substep may not touch the marginal
    s[:, km.mode_position(0)] = 0.0
    table = KernelTable(s, grid, spec)
    _TABLE_CACHE.put(key, table)
    return table
