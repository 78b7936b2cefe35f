"""Wigner kernels of the supported potential families and their mode tables.

Every family in scope has a kernel odd in k of the form pref * sin(2 x k) *
phi(|k|) (tensor combinations of such factors in the 2-D multi-delta case),
so each coefficient c_nu = i s_nu reduces to one-dimensional cosine
transforms:

    s_nu(x) = pref * [ C(w+) - C(w-) ],     w+- = 2x +- 2 pi nu / L_k,
    C(w)    = int_0^{L_k} cos(w k) phi(k) dk.

C is a sinc moment for the delta, inverse-square and multi-delta families
and a Faddeeva form for the Gaussian barrier (DLMF 7.2).  The inverse-power
C is specfun.cos_power_integral: a power series for |w| L_k <= 5, and above
that the half-line value minus a tail from Legendre's continued fraction for
Gamma(a, -i w L_k) (DLMF 8.9.2).  Since nu~ L_k = 2 pi nu, sin(w+- L_k) =
sin(2x L_k) depends on x alone, so the delta, multi-delta and inverse-square
tables take their sines once per x row (_sinc_L_shared).  The Gaussian and
inverse-power C depend on |w| alone, which repeats wherever 2x +- nu~ does,
so their tables evaluate C once per distinct |w| of both signs
(_even_difference).  The log C diverges but its difference is
s_nu = (H/hbar) [Cin(|w+| L_k) - Cin(|w-| L_k)], with
Cin(u) = gamma + ln u - Ci(u) (DLMF 6.2.2), a difference of the same form:
the log table, too, evaluates Cin(|w| L_k) once per distinct |w|.  The
discrete-sum route's window transform vanishes on its lattice
y = zeta pi/L_k but at one point per mode, so
s_nu(x) = [V(x + nu pi/L_k) - V(x - nu pi/L_k)] / hbar.  Every 2-D family
is even about x = 0, so its table is odd in x on both routes:
s_nu(-x) = -s_nu(x).  On a mesh that is its own mirror image bit for bit
(any symmetric domain, grid.build_spatial_mesh) both builders evaluate the
rows with x >= 0 alone and fill the others with their negated mirror images
(_odd_in_x); the sines, |w| and differences above are exactly odd or even
in IEEE arithmetic, so those rows carry the bits a full build gives them,
and the distinct-|w| pass sorts half the entries.  Every table holds
the real s (c = i s) on the rfft bins alone; s_0 = 0 keeps the marginal, and
the odd kernel's s_{-nu} = -s_nu, implied, keeps the kernel substep real.
One rule, check_route, says which potentials each route tabulates on which
grid; both table builders and dynamics.SimulationConfig call it.

The table cache here is the package's one cache of values derived from a
grid: the kernel tables, the uniform-mesh quadratures of
observables.UniformMeshQuadrature, and the transport's sweep plans and the
kernel substep's DFT matrices (dynamics._sweep_plans, dynamics._Stepper),
filled by _cached under one byte bound and emptied by clear_table_cache.
A run takes each value that an earlier run left under the same key, and
every cached array is read-only.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, wofz

from .errors import ParameterError
from .grid import PhaseSpaceGrid, WavenumberMesh
from .specfun import cos_power_integral, cosine_integral

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
    "kernel_coefficients",
    "poisson_kernel_coefficients",
    "check_route",
    "clear_table_cache",
]

# from here on e^{-b^2} < 3e-16, so the two terms of the Faddeeva form of the
# Gaussian transform can no longer cancel (see _gauss_cos_transform)
_GAUSS_ERF_B = 6.0


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar in eV fs, particle mass in eV fs^2 nm^-2."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.hbar < math.inf and 0.0 < self.mass < math.inf):
            raise ParameterError(
                f"hbar and mass must be positive and finite, got {self.hbar!r}, {self.mass!r}"
            )


@dataclass(frozen=True)
class _Strength:
    """The strength H every potential family carries: finite, of any sign."""

    H: float

    def __post_init__(self):
        if not math.isfinite(self.H):
            raise ParameterError(f"potential strength H must be finite, got {self.H!r}")


@dataclass(frozen=True)
class DeltaPotential(_Strength):
    """V(x) = H delta(x); H in eV nm."""


@dataclass(frozen=True)
class LogPotential(_Strength):
    """Logarithmic potential with strength H in eV.

    The pointwise potential is only sampled by the discrete-sum route, which
    uses the even extension H log|x|; the kernel itself is defined for all x.
    """


@dataclass(frozen=True)
class InversePowerPotential(_Strength):
    """V(x) = H |x|^-alpha with alpha in (0, 1); H in eV nm^alpha."""

    alpha: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class InverseSquarePotential(_Strength):
    """V(x) = H |x|^-2; H in eV nm^2."""


@dataclass(frozen=True)
class GaussianBarrier(_Strength):
    """Finite-size barrier H exp(-x^2/(2 a^2)) / (sqrt(2 pi) a); H in eV nm."""

    a: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.a < math.inf:
            raise ParameterError(f"barrier size must be positive and finite, got {self.a!r}")

    def value(self, x):
        x = np.asarray(x, float)
        return self.H / (math.sqrt(2.0 * math.pi) * self.a) * np.exp(-x * x / (2 * self.a**2))


@dataclass(frozen=True)
class MultiDeltaPotential2D(_Strength):
    """Sum of 2-D point potentials H delta(x1-d1) delta(x2-d2); H in eV nm^2."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        super().__post_init__()
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


PotentialSpec = (DeltaPotential | LogPotential | InversePowerPotential | InverseSquarePotential
                 | GaussianBarrier | MultiDeltaPotential2D)


def _inverse_power_prefactor(spec: InversePowerPotential, hbar: float) -> float:
    # kernel of H |x|^-alpha from the defining transform:
    #   2^(1+alpha) H Gamma(1-alpha) sin(pi alpha/2) / (pi hbar) * sin(2xk) |k|^(alpha-1)
    a = spec.alpha
    return 2.0 ** (1.0 + a) * spec.H * math.gamma(1.0 - a) * math.sin(0.5 * math.pi * a) / (
        math.pi * hbar
    )


@dataclass
class KernelTable:
    """Real mode coefficients s_nu(x) on the rfft bins, c_nu = i s_nu.

    A stage of length tau multiplies bin nu of the field's real FFT over k by
    exp(i tau s_nu), so s has scipy.fft.rfft/rfft2's output layout: (nx,
    Nk/2+1), nu = 0..Nk/2; in 4-D (nx1, nx2, Nk1, Nk2/2+1), nu1 in fft order,
    nu2 = 0..Nk2/2.  s_{-nu} = -s_nu is implied; Nyquist bins are never read.
    The tables the two routes return are cached and shared: read-only.

    c_0 = 0, which keeps the spatial marginal, is checked to 1e-12 of max|s|:
    in 2-D the nu = 0 bin must vanish, in 4-D the nu2 = 0 plane must be odd
    in nu1 (s(0, 0) = 0 among it), all but its inert nu1 Nyquist line.  The
    real transform would otherwise apply only part of such a table.  A table
    that is not finite passes, and the run's divergence check stops it.
    """

    multipliers: np.ndarray  # float64, shaped as above
    grid: PhaseSpaceGrid

    def __post_init__(self):
        if np.iscomplexobj(self.multipliers):
            raise ParameterError("kernel table must hold the real s_nu (c_nu = i s_nu)")
        s = self.multipliers = np.asarray(self.multipliers, float)
        expect = self.grid.shape[:-1] + (self.grid.shape[-1] // 2 + 1,)
        if s.shape != expect:
            raise ParameterError(f"table shape {s.shape} is not {expect},"
                                 f" the rfft bins of grid {self.grid.shape}")
        if s.ndim == 2:
            stray, what = s[:, 0], "its nu = 0 bin is not 0"
        else:
            # s(nu1) + s(-nu1) for nu1 = 0..N1/2-1 in fft order
            nu1 = np.arange(s.shape[2] // 2)
            stray = s[:, :, nu1, 0] + s[:, :, -nu1 % s.shape[2], 0]
            what = "its nu2 = 0 plane is not odd in nu1"
        bad = np.abs(stray).max()
        # built tables hold c_0 = 0 exactly and skip the scale
        if bad > 0 and bad > 1e-12 * max(s.max(), -s.min()):
            raise ParameterError(f"kernel table breaks c_0 = 0: {what}")


def _bin_frequencies(km: WavenumberMesh, fft_order: bool = False) -> np.ndarray:
    """nu~ = 2 pi nu/L_k on a table's bins: nu = 0..Nk/2, or every fft bin in fft order."""
    nu = np.roll(km.mode_indices, 1 - km.num_points // 2)  # 0..Nk/2, then 1-Nk/2..-1
    return 2.0 * np.pi * (nu if fft_order else nu[: km.num_points // 2 + 1]) / km.length


def _sinc_L(w: np.ndarray, L: float) -> np.ndarray:
    """int_0^L cos(w k) dk = sin(w L)/w, L at w = 0; no cancellation anywhere."""
    w = np.asarray(w, float)
    zero = w == 0.0
    safe = np.where(zero, 1.0, w)
    return np.where(zero, L, np.sin(safe * L) / safe)


def _sinc_L_shared(w: np.ndarray, sin_wL: np.ndarray, L: float) -> np.ndarray:
    """_sinc_L(w) from a given sin(w L): sin_wL/w, and _sinc_L's own form
    wherever |w| L < 1, where that quotient loses its accuracy near w = 0."""
    near = np.abs(w) * L < 1.0
    out = sin_wL / np.where(near, 1.0, w)
    out[near] = _sinc_L(w[near], L)
    return out


def _k_cos_moment(w: np.ndarray, sin_wL: np.ndarray, sin_half: np.ndarray,
                  L: float) -> np.ndarray:
    """int_0^L k cos(w k) dk = L sin(w L)/w - 2 sin^2(w L/2)/w^2, both terms
    sincs, from a given sin(w L) and sin(w L/2) (the latter's sign squares out)."""
    return L * _sinc_L_shared(w, sin_wL, L) - 0.5 * _sinc_L_shared(0.5 * w, sin_half, L) ** 2


def _even_difference(C, wp: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """C(|w+|) - C(|w-|) for a transform C of |w| alone, with one call of C
    on the distinct |w| of both arrays, in ascending order.  One sort finds
    them; each value is repeated over its run of equal |w| and scattered
    back through the sort's permutation."""
    both = np.stack([wp, wm]).ravel()
    np.abs(both, out=both)
    order = np.argsort(both)
    w = both[order]
    first = np.empty(w.size, bool)  # where a run of equal |w| starts
    first[0] = True
    np.not_equal(w[1:], w[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    both[order] = np.repeat(C(w[starts]), np.diff(starts, append=w.size))
    vals = both.reshape(2, *wp.shape)
    return vals[0] - vals[1]


def _cin(u: np.ndarray) -> np.ndarray:
    """Cin(u) = gamma + ln u - Ci(u) for u >= 0, Cin(0) = 0 (DLMF 6.2.2)."""
    zero = u == 0.0
    safe = np.where(zero, 1.0, u)
    return np.where(zero, 0.0, np.euler_gamma + np.log(safe) - cosine_integral(safe))


def _gauss_cos_transform(w: np.ndarray, a: float, L: float) -> np.ndarray:
    """int_0^L cos(w k) e^{-2 a^2 k^2} dk in closed form (DLMF 7.2).  With
    r = sqrt(2) a and b = |w|/(2r) it is sqrt(pi)/(2r) e^{-b^2} Re erf(rL - ib)
    = sqrt(pi)/(2r) [e^{-b^2} - e^{-(rL)^2} Re(e^{i|w|L} w(b + i rL))], w the
    Faddeeva function; Im(b + i rL) > 0 keeps both terms bounded for every a
    and w.  Below b = _GAUSS_ERF_B those terms cancel for small rL (a narrow
    barrier), so the erf form, far from overflow there, is used instead."""
    r = math.sqrt(2.0) * a
    rL = r * L
    b = np.abs(w) / (2.0 * r)
    out = np.empty_like(b)
    near = b < _GAUSS_ERF_B
    bn, bf = b[near], b[~near]
    out[near] = (np.exp(-bn * bn) * erf(rL - 1j * bn)).real
    tail = np.exp(1j * np.abs(w[~near]) * L) * wofz(bf + 1j * rL)
    out[~near] = np.exp(-bf * bf) - math.exp(-rL * rL) * tail.real
    return math.sqrt(math.pi) / (2.0 * r) * out


def _odd_in_x(x: np.ndarray, rows) -> np.ndarray:
    """The table rows(x) (x.size, bins) of an even potential, whose table is
    odd in x: s_nu(-x) = -s_nu(x).

    rows must evaluate each x on its own, from x alone, through operations
    that are exactly odd or even in IEEE arithmetic (negation, abs, sin,
    subtraction), and the potential must be even: every family but the
    multi-delta one is.  When the mesh is its own mirror image, x[::-1] ==
    -x exactly (a symmetric domain, grid.build_spatial_mesh), only the
    rows with x >= 0 are evaluated, the x = 0 row among them when x.size is
    odd, and the others are their negated mirror images: the same bits as
    rows(x) but for the sign of a zero.  Any other mesh evaluates every row.
    """
    if not np.array_equal(x[::-1], -x):
        return rows(x)
    half = x.size // 2  # the first row with x >= 0
    upper = rows(x[half:])
    out = np.empty((x.size,) + upper.shape[1:])
    out[half:] = upper
    np.negative(upper[::-1][:half], out=out[:half])
    return out


def _coeff_table_1d(spec, grid: PhaseSpaceGrid, consts: PhysicalConstants) -> np.ndarray:
    freqs, L = _bin_frequencies(grid.k), grid.k.length
    hbar = consts.hbar

    def rows(x):
        wp = 2.0 * x[:, None] + freqs[None, :]
        wm = 2.0 * x[:, None] - freqs[None, :]
        if isinstance(spec, DeltaPotential):
            pref = 2.0 * spec.H / (math.pi * hbar)
            # nu~ L = 2 pi nu, so sin(w+- L) = sin(2 x L): one sin per x row
            sin_row = np.sin(2.0 * x * L)[:, None]
            diff = _sinc_L_shared(wp, sin_row, L) - _sinc_L_shared(wm, sin_row, L)
        elif isinstance(spec, InverseSquarePotential):
            pref = -4.0 * spec.H / hbar
            # sin(w+- L) = sin(2 x L) and sin(w+- L/2) = (-1)^nu sin(x L): per x row
            sin_row, sin_half = np.sin(2.0 * x * L)[:, None], np.sin(x * L)[:, None]
            diff = (_k_cos_moment(wp, sin_row, sin_half, L)
                    - _k_cos_moment(wm, sin_row, sin_half, L))
        elif isinstance(spec, GaussianBarrier):
            pref = 2.0 * spec.H / (math.pi * hbar)
            diff = _even_difference(lambda w: _gauss_cos_transform(w, spec.a, L), wp, wm)
        elif isinstance(spec, LogPotential):
            pref = spec.H / hbar
            diff = _even_difference(lambda w: _cin(w * L), wp, wm)
        else:  # InversePowerPotential, the last scalar family check_route admits
            pref = _inverse_power_prefactor(spec, hbar)
            beta = 1.0 - spec.alpha  # exponent of |k| in the kernel denominator
            # looked up at call time, where the layer trace wraps it
            diff = _even_difference(lambda w: cos_power_integral(w, beta, L), wp, wm)
        return pref * diff
    return _odd_in_x(grid.x.collocation_points, rows)


def _coeff_table_multidelta(
    spec: MultiDeltaPotential2D, grid: PhaseSpaceGrid, consts: PhysicalConstants
) -> np.ndarray:
    (x1m, x2m), (k1m, k2m) = grid.spatial, grid.wavenumber
    L = k1m.length
    pts = np.asarray(spec.points)

    def factors(xs, d, mu):
        # (P, x, nu) transforms of every delta, a = 2(x - d): the sine one
        # A = Im int_{-L}^{L} sin(a k) e^{-i mu k} dk and its cosine twin B;
        # mu L = 2 pi nu, so sin((a +- mu) L) = sin(a L): one sin per (P, x) row
        a = 2.0 * (xs[None, :, None] - d[:, None, None])
        sin_row = np.sin(a * L)
        up, dn = _sinc_L_shared(a + mu, sin_row, L), _sinc_L_shared(a - mu, sin_row, L)
        return up - dn, up + dn

    A1, B1 = factors(x1m.collocation_points, pts[:, 0], _bin_frequencies(k1m, fft_order=True))
    A2, B2 = factors(x2m.collocation_points, pts[:, 1], _bin_frequencies(k2m))
    # sum_p A1_p (x) B2_p + B1_p (x) A2_p as one contraction over the 2P axis
    pref = 4.0 * spec.H / (math.pi * consts.hbar)
    s = np.tensordot(pref * np.concatenate([A1, B1]), np.concatenate([B2, A2]), axes=(0, 0))
    return s.transpose(0, 2, 1, 3)  # (x1, nu1, x2, nu2) -> (x1, x2, nu1, nu2)


# A table costs 8 B per stored bin: the bound holds about a hundred and ten
# 45^2 x 16 x 9 multi-delta tables, or twelve hundred 2-D tables at 420 x 65.
# A uniform-mesh quadrature at N_um = 600 on the 420 x 128 grid counts 50 kB,
# a sweep plan there 0.45 MB and a kernel layout's DFT matrices 41 kB.
_TABLE_CACHE_BYTES = 256 * 2**20
# (route, potential, grid, consts) -> table, ("quadrature", grid, N_um) ->
# uniform-mesh quadrature, ("sweep plan", mesh, wavenumber mesh, consts, tau,
# edge) -> sweep plan and ("dft matrices", grid, layout) -> the tuple of a
# kernel layout's matrices, least recently used first
_TABLE_CACHE: OrderedDict = OrderedDict()


def clear_table_cache():
    """Empty the cache of grid-derived values: kernel tables, uniform-mesh
    quadratures, sweep plans and DFT matrices."""
    _TABLE_CACHE.clear()


def _arrays(value) -> list[np.ndarray]:
    """The arrays a cached value holds: the items of a tuple, else its attributes."""
    items = value if isinstance(value, tuple) else vars(value).values()
    return [a for a in items if isinstance(a, np.ndarray)]


def _nbytes(value) -> int:
    # a view counts in full, so a value that keeps views is overcounted
    return sum(a.nbytes for a in _arrays(value))


def _cached(key, build):
    """The cached value for key, or build() cached read-only as the newest.

    Every caller shares a cached value (a KernelTable, a uniform-mesh
    quadrature, a sweep plan or a tuple of DFT matrices), so none of its
    arrays can be written.  Older values are evicted until the cache holds
    _TABLE_CACHE_BYTES at most, but the newest one always stays.
    """
    value = _TABLE_CACHE.get(key)
    if value is not None:
        _TABLE_CACHE.move_to_end(key)
        return value
    value = _TABLE_CACHE[key] = build()
    for a in _arrays(value):
        a.setflags(write=False)
    total = sum(_nbytes(v) for v in _TABLE_CACHE.values())
    while total > _TABLE_CACHE_BYTES and len(_TABLE_CACHE) > 1:
        total -= _nbytes(_TABLE_CACHE.popitem(last=False)[1])
    return value


def kernel_coefficients(
    spec: PotentialSpec, grid: PhaseSpaceGrid, consts: PhysicalConstants
) -> KernelTable:
    """Exact-route coefficient table s_nu(x) over K' = [-L_k, L_k]."""
    check_route("exact", spec, grid)
    build = _coeff_table_multidelta if isinstance(spec, MultiDeltaPotential2D) else _coeff_table_1d
    return _cached(("exact", spec, grid, consts),
                   lambda: KernelTable(build(spec, grid, consts), grid))


def check_route(route: str, spec: PotentialSpec, grid: PhaseSpaceGrid) -> None:
    """Raise ParameterError unless route ("exact" or "poisson") can tabulate
    spec on grid: spec is an instance of one of the potential families; the
    discrete-sum route samples V pointwise, so it takes the families smooth
    away from the origin only; the multi-delta family lives on a 4-D grid
    with equal wavenumber windows and its points in the spatial domain, every
    other family on a 2-D grid."""
    if not isinstance(spec, PotentialSpec):
        raise ParameterError(f"potential must be one of the potential families, got {spec!r}")
    if route == "poisson" and not isinstance(spec, (LogPotential, GaussianBarrier)):
        raise ParameterError("the discrete-sum route supports smooth-away-from-origin potentials"
                             f" only (logarithmic or Gaussian), got {spec!r}")
    if not isinstance(spec, MultiDeltaPotential2D):
        if grid.ndim_space != 1:
            raise ParameterError("scalar potential families need a 2-D phase-space grid")
        return
    if grid.ndim_space != 2:
        raise ParameterError("multi-delta potential needs a 4-D grid")
    if grid.wavenumber[0].length != grid.wavenumber[1].length:
        raise ParameterError("multi-delta table expects matching wavenumber domains")
    for d in spec.points:
        if not all(m.domain_lo <= c <= m.domain_hi for m, c in zip(grid.spatial, d)):
            raise ParameterError(f"delta point {d} outside the spatial domain")


def _poisson_samples(spec, x, h):
    """V(x + h) - V(x - h) for every x and offset h, with the logarithmic
    singularity rule: a difference with a sample exactly at x = 0 is 0."""
    up = x[:, None] + h[None, :]
    dn = x[:, None] - h[None, :]
    if isinstance(spec, GaussianBarrier):
        return spec.value(up) - spec.value(dn)
    dead = (up == 0.0) | (dn == 0.0)
    safe_up = np.where(dead, 1.0, np.abs(up))
    safe_dn = np.where(dead, 1.0, np.abs(dn))
    dV = spec.H * (np.log(safe_up) - np.log(safe_dn))
    return np.where(dead, 0.0, dV)


def poisson_kernel_coefficients(
    spec: PotentialSpec, grid: PhaseSpaceGrid, consts: PhysicalConstants
) -> KernelTable:
    """Approximate-route table from the discrete-sum (Poisson summation)
    kernel, sampled on the lattice y_zeta = zeta * pi/L_k.

    pi/L_k is the sampling dual of the coefficient window [-L_k, L_k]; on
    that lattice the route reproduces the exact table for smooth, localized
    potentials.  The window transform 2 sin((y_zeta + nu~) L_k)/(y_zeta + nu~)
    of mode nu vanishes at every lattice point but y_zeta = -2 pi nu/L_k, so
    the sum is that one term:

        s_nu(x) = [V(x + nu pi/L_k) - V(x - nu pi/L_k)] / hbar,

    which is exactly 0 at nu = 0.  A difference with a sample exactly on the
    logarithmic singularity at x = 0 is dropped (_poisson_samples).
    """
    check_route("poisson", spec, grid)

    def build():
        h = np.arange(grid.k.num_points // 2 + 1) * (math.pi / grid.k.length)
        s = _odd_in_x(grid.x.collocation_points,
                      lambda x: _poisson_samples(spec, x, h) / consts.hbar)
        return KernelTable(s, grid)
    return _cached(("poisson", spec, grid, consts), build)
