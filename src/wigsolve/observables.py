"""Initial data and every recorded observable.

Wavenumber integrals are exact in mode space (the marginal is L_k times the
zero mode); position integrals of marginals use per-element Clenshaw-Curtis
weights.  The moment observables and error norms follow the reference
pipeline instead: evaluate the field on the cell-centered uniform mesh and
apply the midpoint rule there.  Evaluation is barycentric in x and
periodic-sinc in k, and no interpolation matrix is ever formed: the field is
resampled by gathers over the element nodes and two FFTs, and the moment
functionals, bilinear forms in the nodal values, reduce to vectors built by
the transposes of the same two maps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError
from .grid import (
    PhaseSpaceGrid,
    WignerState,
    _spatial_interp,
    _spatial_interp_adjoint,
    _uniform_wavenumber_interp,
    _uniform_wavenumber_interp_adjoint,
    clenshaw_curtis_weights,
    uniform_mesh,
)
from .kernels import PhysicalConstants
from .specfun import _gl

__all__ = [
    "GaussianPacketSpec",
    "FermiDiracSpec",
    "ObservableSeries",
    "UncertaintyResult",
    "UniformMeshQuadrature",
    "resample_uniform",
    "init_gaussian",
    "init_fermi_dirac_4d",
    "total_mass",
    "spatial_marginal",
    "spatial_marginal_2d",
    "partial_mass",
    "uncertainty",
    "error_norms",
]


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Minimum-uncertainty packet: center (x0, k0), position spread sigma."""

    x0: float
    k0: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ParameterError("sigma must be positive")


@dataclass(frozen=True)
class FermiDiracSpec:
    """Constants of the position-independent 2-D Fermi-Dirac initial data."""

    effective_mass_ratio: float = 0.067
    m_e: float = 5.68562966  # eV fs^2 nm^-2
    k_B: float = 8.61734279e-5  # eV / K
    T: float = 300.0
    E_F: float = 0.1  # eV

    def __post_init__(self):
        for name in ("effective_mass_ratio", "m_e", "k_B", "T", "E_F"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")

    @property
    def mass(self) -> float:
        return self.effective_mass_ratio * self.m_e

    def constants(self, hbar: float = 0.658211899) -> PhysicalConstants:
        return PhysicalConstants(hbar=hbar, mass=self.mass)


def _gaussian_plane(xm, km, spec: GaussianPacketSpec):
    x = xm.collocation_points
    k = km.collocation_k
    gx = np.exp(-((x - spec.x0) ** 2) / (2.0 * spec.sigma**2))
    gk = np.exp(-2.0 * spec.sigma**2 * (k - spec.k0) ** 2)
    return gx, gk


def _tail_mass_outside(xm, km, spec: GaussianPacketSpec) -> float:
    sx = spec.sigma
    sk = 1.0 / (2.0 * sx)
    px = 0.5 * (
        math.erfc((xm.domain_hi - spec.x0) / (math.sqrt(2.0) * sx))
        + math.erfc((spec.x0 - xm.domain_lo) / (math.sqrt(2.0) * sx))
    )
    pk = 0.5 * (
        math.erfc((km.k_max - spec.k0) / (math.sqrt(2.0) * sk))
        + math.erfc((spec.k0 - km.k_min) / (math.sqrt(2.0) * sk))
    )
    return 1.0 - (1.0 - px) * (1.0 - pk)


def init_gaussian(grid: PhaseSpaceGrid, spec) -> WignerState:
    """Unit-mass Gaussian packet; per-dimension specs in 4-D phase space."""
    if grid.ndim_space == 1:
        if not isinstance(spec, GaussianPacketSpec):
            raise ParameterError("2-D initial data takes one GaussianPacketSpec")
        tail = _tail_mass_outside(grid.x, grid.k, spec)
        if tail > 1e-3:
            warnings.warn(
                f"initial packet leaves {tail:.2e} of its mass outside the domain",
                stacklevel=2,
            )
        gx, gk = _gaussian_plane(grid.x, grid.k, spec)
        return WignerState(grid, np.outer(gx, gk) / math.pi, 0.0)
    specs = tuple(spec)
    if len(specs) != 2 or not all(isinstance(s, GaussianPacketSpec) for s in specs):
        raise ParameterError("4-D initial data takes a pair of GaussianPacketSpec")
    g1x, g1k = _gaussian_plane(grid.spatial[0], grid.wavenumber[0], specs[0])
    g2x, g2k = _gaussian_plane(grid.spatial[1], grid.wavenumber[1], specs[1])
    values = (
        g1x[:, None, None, None]
        * g2x[None, :, None, None]
        * g1k[None, None, :, None]
        * g2k[None, None, None, :]
    ) / math.pi**2
    return WignerState(grid, values, 0.0)


def _fermi_dirac_profile(spec: FermiDiracSpec, hbar: float, ksq: np.ndarray) -> np.ndarray:
    kBT = spec.k_B * spec.T
    shift = (hbar**2 * ksq / (2.0 * spec.mass) - spec.E_F) / kBT
    y_max = math.sqrt(35.0 + max(0.0, spec.E_F / kBT))
    panels = int(math.ceil(y_max))
    nodes, weights = _gl(64)
    total = np.zeros_like(shift)
    with np.errstate(over="ignore"):  # deep tails overflow exp harmlessly to inf
        for p in range(panels):
            a = p * y_max / panels
            b = (p + 1) * y_max / panels
            y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * weights
            total += np.sum(
                w[:, None] / (1.0 + np.exp(y[:, None] ** 2 + shift[None, :])), axis=0
            )
    return math.sqrt(2.0 * spec.mass * kBT) / (math.pi * hbar) * total


def init_fermi_dirac_4d(
    grid: PhaseSpaceGrid, spec: FermiDiracSpec, hbar: float = 0.658211899
) -> WignerState:
    """Position-independent 2-D Fermi-Dirac occupation on a 4-D grid."""
    if grid.ndim_space != 2:
        raise ParameterError("Fermi-Dirac initial data needs a 4-D grid")
    k1 = grid.wavenumber[0].collocation_k
    k2 = grid.wavenumber[1].collocation_k
    ksq = (k1[:, None] ** 2 + k2[None, :] ** 2).ravel()
    prof = _fermi_dirac_profile(spec, hbar, ksq).reshape(k1.size, k2.size)
    nx1 = grid.spatial[0].num_points
    nx2 = grid.spatial[1].num_points
    values = np.broadcast_to(prof[None, None, :, :], (nx1, nx2, k1.size, k2.size)).copy()
    return WignerState(grid, values, 0.0)


def _initial_state(grid: PhaseSpaceGrid, spec, hbar: float) -> WignerState:
    """Initial field of a run; hbar is the run's, so data and transport agree."""
    if isinstance(spec, FermiDiracSpec):
        return init_fermi_dirac_4d(grid, spec, hbar)
    return init_gaussian(grid, spec)


# ----------------------------------------------------------------------
# mode-space marginals and masses
# ----------------------------------------------------------------------

def _cc_x_weights(mesh) -> np.ndarray:
    w = clenshaw_curtis_weights(mesh.points_per_element) * 0.5 * mesh.element_width
    return np.tile(w, mesh.num_elements)


def spatial_marginal(state: WignerState) -> np.ndarray:
    """Integral of f over wavenumbers at every spatial point (2-D)."""
    if state.grid.ndim_space != 1:
        raise ParameterError("spatial_marginal expects a 2-D phase-space state")
    return state.grid.k.length * state.values.mean(axis=1)


def spatial_marginal_2d(state: WignerState) -> np.ndarray:
    """F_sm(x1, x2): integral over both wavenumber axes (4-D)."""
    if state.grid.ndim_space != 2:
        raise ParameterError("spatial_marginal_2d expects a 4-D phase-space state")
    L1 = state.grid.wavenumber[0].length
    L2 = state.grid.wavenumber[1].length
    return L1 * L2 * state.values.mean(axis=(2, 3))


def total_mass(state: WignerState) -> float:
    """Phase-space integral of f: exact in modes over k, Clenshaw-Curtis in x."""
    if state.grid.ndim_space == 1:
        marg = spatial_marginal(state)
        return float(_cc_x_weights(state.grid.x) @ marg)
    marg = spatial_marginal_2d(state)
    w1 = _cc_x_weights(state.grid.spatial[0])
    w2 = _cc_x_weights(state.grid.spatial[1])
    return float(w1 @ marg @ w2)


# ----------------------------------------------------------------------
# uniform-mesh observable pipeline
# ----------------------------------------------------------------------

@dataclass
class UncertaintyResult:
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    product: float


class UniformMeshQuadrature:
    """Midpoint-rule functionals on the cell-centered N_um x N_um mesh.

    Resampling is linear: F = Rx f Rk.T with Rx barycentric (N_um x Q*M) and
    Rk periodic sinc (N_um x N_k), both applied matrix-free
    (`grid._spatial_interp`, `grid._uniform_wavenumber_interp`).  Every
    recorded observable is then a bilinear form u^T f v in the nodal values,
    and the per-step cost is one thin matrix product.  The seven reduced
    vectors Rx.T w and Rk.T w come from the transposed maps: the x ones
    scatter each target's barycentric row onto its element's nodes, the k
    ones come from two short FFTs (`grid._spatial_interp_adjoint`,
    `grid._uniform_wavenumber_interp_adjoint`).
    """

    def __init__(self, grid: PhaseSpaceGrid, n_uniform: int):
        if grid.ndim_space != 1:
            raise ParameterError("uniform-mesh observables are defined in 2-D phase space")
        if n_uniform < 1:
            raise ParameterError("N_um must be positive")
        self.grid = grid
        self.n_uniform = n_uniform
        xm, km = grid.x, grid.k
        self.x_pts = x = uniform_mesh(xm.domain_lo, xm.domain_hi, n_uniform)
        self.k_pts = k = uniform_mesh(km.k_min, km.k_max, n_uniform)
        self.dx = (xm.domain_hi - xm.domain_lo) / n_uniform
        self.dk = km.length / n_uniform
        ones = np.ones(n_uniform)
        self.u_x, self.u_x_right, self.v_x, self.v_x2 = (self.dx * self.dk) * (
            _spatial_interp_adjoint(xm, x, np.column_stack([ones, x >= 0.0, x, x**2]))
        )
        kvec = _uniform_wavenumber_interp_adjoint(km, np.column_stack([ones, k, k**2]))
        self.u_k, self.v_k, self.v_k2 = kvec
        self._kstack = kvec.T.copy()

    def resample(self, state: WignerState) -> np.ndarray:
        """The field on the uniform mesh, (N_um, N_um): x first, then k."""
        fx = _spatial_interp(self.grid.x, self.x_pts, state.values)
        return _uniform_wavenumber_interp(self.grid.k, fx, self.n_uniform)

    def partial_mass(self, state: WignerState) -> float:
        return float(self.u_x_right @ state.values @ self.u_k)

    def moments(self, state: WignerState, consts: PhysicalConstants) -> UncertaintyResult:
        return self._moments_from_reduced(state.values @ self._kstack, consts)

    def _moments_from_reduced(self, red: np.ndarray, consts: PhysicalConstants):
        hbar = consts.hbar
        mean_x = float(self.v_x @ red[:, 0])
        mean_x2 = float(self.v_x2 @ red[:, 0])
        mean_p = hbar * float(self.u_x @ red[:, 1])
        mean_p2 = hbar**2 * float(self.u_x @ red[:, 2])
        var_x = mean_x2 - mean_x**2
        var_p = mean_p2 - mean_p**2
        for name, v in (("var_x", var_x), ("var_p", var_p)):
            if v < -1e-10:
                raise DomainError(f"{name} = {v} is negative beyond roundoff")
        var_x = max(var_x, 0.0)
        var_p = max(var_p, 0.0)
        return UncertaintyResult(
            mean_x, mean_p, var_x, var_p, math.sqrt(var_x) * math.sqrt(var_p)
        )

    def append_row_from_work(self, series, t, mass_spectral, work, consts):
        """Record one row from a field in the stepper's (Nk, M, Q) work layout."""
        red = np.tensordot(self._kstack.T, work, axes=1)  # (3, M, Q)
        red = red.transpose(2, 1, 0).reshape(-1, 3)  # (nx, 3), x = (q, m)
        m = self._moments_from_reduced(red, consts)
        series.append(
            t=t,
            total_mass=mass_spectral,
            partial_mass=float(self.u_x_right @ red[:, 0]),
            mean_x=m.mean_x,
            mean_p=m.mean_p,
            var_x=m.var_x,
            var_p=m.var_p,
            uncertainty=m.product,
        )


def resample_uniform(state: WignerState, N_um: int) -> np.ndarray:
    """Evaluate a 2-D phase-space state on the N_um x N_um cell-centered mesh."""
    return UniformMeshQuadrature(state.grid, N_um).resample(state)


def partial_mass(state: WignerState, n_uniform: int) -> float:
    """Mass in the half-space x >= 0 (midpoint rule on the uniform mesh)."""
    return UniformMeshQuadrature(state.grid, n_uniform).partial_mass(state)


def uncertainty(
    state: WignerState, n_uniform: int, consts: PhysicalConstants = PhysicalConstants()
) -> UncertaintyResult:
    """Unnormalized moments of x and p = hbar k and their spread product."""
    return UniformMeshQuadrature(state.grid, n_uniform).moments(state, consts)


def error_norms(candidate: WignerState, reference: WignerState, n_uniform: int):
    """(L2, Linf) distance of two states sampled on the same uniform mesh."""
    gc, gr = candidate.grid, reference.grid
    if (
        gc.x.domain_lo != gr.x.domain_lo
        or gc.x.domain_hi != gr.x.domain_hi
        or gc.k.k_min != gr.k.k_min
        or gc.k.k_max != gr.k.k_max
    ):
        raise ParameterError("states live on different physical domains")
    qc = UniformMeshQuadrature(gc, n_uniform)
    qr = UniformMeshQuadrature(gr, n_uniform)
    diff = qc.resample(candidate) - qr.resample(reference)
    eps2 = math.sqrt(float((diff**2).sum()) * qc.dx * qc.dk)
    eps_inf = float(np.abs(diff).max())
    return eps2, eps_inf


# ----------------------------------------------------------------------
# per-step record
# ----------------------------------------------------------------------

@dataclass
class ObservableSeries:
    """Per-step observable record with strictly increasing times."""

    t: list = field(default_factory=list)
    total_mass: list = field(default_factory=list)
    partial_mass: list = field(default_factory=list)
    mean_x: list = field(default_factory=list)
    mean_p: list = field(default_factory=list)
    var_x: list = field(default_factory=list)
    var_p: list = field(default_factory=list)
    uncertainty: list = field(default_factory=list)

    def append(self, *, t, total_mass, partial_mass=math.nan, mean_x=math.nan,
               mean_p=math.nan, var_x=math.nan, var_p=math.nan, uncertainty=math.nan):
        if self.t and t <= self.t[-1]:
            raise ParameterError("observable times must increase strictly")
        for v, name in ((var_x, "var_x"), (var_p, "var_p")):
            if not math.isnan(v) and v < 0:
                raise ParameterError(f"{name} must be nonnegative")
        self.t.append(float(t))
        self.total_mass.append(float(total_mass))
        self.partial_mass.append(float(partial_mass))
        self.mean_x.append(float(mean_x))
        self.mean_p.append(float(mean_p))
        self.var_x.append(float(var_x))
        self.var_p.append(float(var_p))
        self.uncertainty.append(float(uncertainty))

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name), float)

    def at_time(self, t: float, name: str) -> float:
        arr = self.column("t")
        idx = int(np.argmin(np.abs(arr - t)))
        if abs(arr[idx] - t) > 1e-9:
            raise ParameterError(f"no record at t = {t}")
        return float(self.column(name)[idx])
