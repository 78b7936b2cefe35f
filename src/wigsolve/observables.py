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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, ParameterError
from .grid import (
    PhaseSpaceGrid,
    WignerState,
    _check_count,
    _spatial_interp,
    _spatial_interp_adjoint,
    _split,
    _uniform_wavenumber_interp,
    _uniform_wavenumber_interp_adjoint,
    clenshaw_curtis_weights,
    uniform_mesh,
)
from .kernels import PhysicalConstants, _cached
from .specfun import _gl

__all__ = [
    "GaussianPacketSpec",
    "FermiDiracSpec",
    "K_B",
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
        if not 0.0 < self.sigma < math.inf:
            raise ParameterError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not (math.isfinite(self.x0) and math.isfinite(self.k0)):
            raise ParameterError(f"packet centre must be finite, got ({self.x0!r}, {self.k0!r})")


# Boltzmann constant, eV / K
K_B = 8.61734279e-5


@dataclass(frozen=True)
class FermiDiracSpec:
    """Reservoir of the position-independent 2-D Fermi-Dirac initial data:
    temperature T in K and Fermi energy E_F in eV.  The particle mass and
    hbar are the run's (PhysicalConstants), the same ones the transport uses.
    """

    T: float = 300.0
    E_F: float = 0.1

    def __post_init__(self):
        for name in ("T", "E_F"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ParameterError(f"{name} must be positive and finite, got {value!r}")


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


def init_gaussian(grid: PhaseSpaceGrid, spec: GaussianPacketSpec) -> WignerState:
    """Unit-mass Gaussian packet.  In 4-D phase space the same packet lies
    along both dimensions: f(x1, x2, k1, k2) = f1(x1, k1) f2(x2, k2), each
    factor the 2-D packet on that dimension's (x, k) plane."""
    if not isinstance(spec, GaussianPacketSpec):
        raise ParameterError(f"Gaussian initial data takes one GaussianPacketSpec, got {spec!r}")
    planes = []
    for xm, km in zip(grid.spatial, grid.wavenumber):
        tail = _tail_mass_outside(xm, km, spec)
        if tail > 1e-3:
            warnings.warn(
                f"initial packet leaves {tail:.2e} of its mass outside the domain",
                stacklevel=2,
            )
        gx = np.exp(-((xm.collocation_points - spec.x0) ** 2) / (2.0 * spec.sigma**2))
        gk = np.exp(-2.0 * spec.sigma**2 * (km.collocation_k - spec.k0) ** 2)
        planes.append(np.outer(gx, gk) / math.pi)
    values = planes[0] if grid.ndim_space == 1 else np.einsum("ia,jb->ijab", *planes)
    return WignerState(grid, values, 0.0)


def _fermi_dirac_profile(spec: FermiDiracSpec, consts: PhysicalConstants,
                         ksq: np.ndarray) -> np.ndarray:
    # every panel's Gauss-Legendre nodes at once, over the distinct |k|^2
    # only, so equal |k|^2 get equal values
    hbar, mass = consts.hbar, consts.mass
    kBT = K_B * spec.T
    distinct, where = np.unique(ksq, return_inverse=True)
    shift = (hbar**2 * distinct / (2.0 * mass) - spec.E_F) / kBT
    y_max = math.sqrt(35.0 + max(0.0, spec.E_F / kBT))
    panels = int(math.ceil(y_max))
    nodes, weights = _gl(64)
    a = np.arange(panels)[:, None] * y_max / panels
    b = np.arange(1, panels + 1)[:, None] * y_max / panels
    y = (0.5 * (b - a) * nodes + 0.5 * (a + b)).reshape(-1, 1)
    w = (0.5 * (b - a) * weights).reshape(-1)
    with np.errstate(over="ignore"):  # deep tails overflow exp harmlessly to inf
        total = w @ (1.0 / (1.0 + np.exp(y**2 + shift)))
    return math.sqrt(2.0 * mass * kBT) / (math.pi * hbar) * total[where.reshape(np.shape(ksq))]


def init_fermi_dirac_4d(
    grid: PhaseSpaceGrid, spec: FermiDiracSpec, consts: PhysicalConstants
) -> WignerState:
    """Position-independent 2-D Fermi-Dirac occupation on a 4-D grid, for
    particles of mass consts.mass in units with consts.hbar.

    The values are a read-only broadcast of the (Nk1, Nk2) profile, with
    zero strides along x: copy them before writing to them."""
    if grid.ndim_space != 2:
        raise ParameterError("Fermi-Dirac initial data needs a 4-D grid")
    k1 = grid.wavenumber[0].collocation_k
    k2 = grid.wavenumber[1].collocation_k
    ksq = (k1[:, None] ** 2 + k2[None, :] ** 2).ravel()
    prof = _fermi_dirac_profile(spec, consts, ksq).reshape(k1.size, k2.size)
    return WignerState(grid, np.broadcast_to(prof, grid.shape), 0.0)


def _initial_state(grid: PhaseSpaceGrid, spec, consts: PhysicalConstants) -> WignerState:
    """Initial field of a run; consts are the run's, so data and transport agree."""
    if isinstance(spec, FermiDiracSpec):
        return init_fermi_dirac_4d(grid, spec, consts)
    return init_gaussian(grid, spec)


# ----------------------------------------------------------------------
# mode-space marginals and masses
# ----------------------------------------------------------------------

def _cc_x_weights(mesh) -> np.ndarray:
    w = clenshaw_curtis_weights(mesh.points_per_element) * 0.5 * mesh.element_width
    return np.tile(w, mesh.num_elements)


def _marginal(values: np.ndarray, grid: PhaseSpaceGrid, order=None) -> np.ndarray:
    """Spatial marginal, (nx,) or (nx1, nx2), of a field whose axes are those
    of the element-split natural field (grid._split) in the given order, or
    of the natural field itself (order None): one sum over the k axes where
    they lie, so a work-layout field is read in place, never copied."""
    split = _split(grid)
    order = range(len(split)) if order is None else order
    axes = "abcdef"[: len(split)]
    x = 2 * grid.ndim_space  # the (q, m) axes lead the split field
    summed = np.einsum("".join(axes[a] for a in order) + "->" + axes[:x],
                       values.reshape([split[a] for a in order]))
    scale = math.prod(km.length for km in grid.wavenumber) / math.prod(split[x:])
    return summed.reshape(grid.shape[: grid.ndim_space]) * scale


def _mass(marginal: np.ndarray, weights: tuple[np.ndarray, ...]) -> float:
    """Clenshaw-Curtis integral of a spatial marginal: weights holds one
    per-node vector (_cc_x_weights) per spatial dimension."""
    first, *rest = weights
    mass = first @ marginal
    for w in rest:
        mass = mass @ w
    return float(mass)


def spatial_marginal(state: WignerState) -> np.ndarray:
    """Integral of f over wavenumbers at every spatial point (2-D)."""
    if state.grid.ndim_space != 1:
        raise ParameterError("spatial_marginal expects a 2-D phase-space state")
    return _marginal(state.values, state.grid)


def spatial_marginal_2d(state: WignerState) -> np.ndarray:
    """F_sm(x1, x2): integral over both wavenumber axes (4-D)."""
    if state.grid.ndim_space != 2:
        raise ParameterError("spatial_marginal_2d expects a 4-D phase-space state")
    return _marginal(state.values, state.grid)


def total_mass(state: WignerState) -> float:
    """Phase-space integral of f: exact in modes over k, Clenshaw-Curtis in x."""
    weights = tuple(_cc_x_weights(mesh) for mesh in state.grid.spatial)
    return _mass(_marginal(state.values, state.grid), weights)


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


def _node_order(rows: np.ndarray, mesh) -> np.ndarray:
    """Rows over the natural node order (q, m) in the work order (m, q)."""
    Q, M = mesh.num_elements, mesh.points_per_element
    return rows.reshape(len(rows), Q, M).transpose(0, 2, 1).reshape(len(rows), -1)


class UniformMeshQuadrature:
    """Midpoint-rule functionals on the cell-centered N_um x N_um mesh.

    Resampling is linear: F = Rx f Rk.T with Rx barycentric (N_um x Q*M) and
    Rk periodic sinc (N_um x N_k), both applied matrix-free
    (`grid._spatial_interp`, `grid._uniform_wavenumber_interp`).  Every
    recorded observable is then a bilinear form u^T f v in the nodal values.
    The seven reduced vectors Rx.T w and Rk.T w, which only the two factors
    of _reduce keep, come from the transposed maps: the x ones scatter each
    target's barycentric row onto its element's nodes, the k ones come from
    two short FFTs
    (`grid._spatial_interp_adjoint`, `grid._uniform_wavenumber_interp_adjoint`).

    A row reads the field once (_reduce): the k functionals (a row of ones,
    u_k, v_k, v_k2) times the field, (4, N_k) @ (N_k, Q*M), then that times
    the x functionals (ones, the Clenshaw-Curtis mass weights, u_x_right,
    v_x, v_x2, u_x), a (4, 6) matrix of every bilinear form a row needs, the
    field's sum and its Clenshaw-Curtis mass among them.  _row turns that
    matrix into the row's columns; the record, moments and partial_mass all
    read the field through _reduce.

    An instance depends on (grid, N_um) alone.  evolve and the functions
    below share one per (grid, N_um) from the package's cache of
    grid-derived values (_shared_quadrature), so a shared instance is
    read-only: none of its arrays can be written.
    """

    def __init__(self, grid: PhaseSpaceGrid, n_uniform: int):
        if grid.ndim_space != 1:
            raise ParameterError("uniform-mesh observables are defined in 2-D phase space")
        # uniform_mesh refuses an N_um that is not a positive integer
        self.grid = grid
        self.n_uniform = n_uniform
        xm, km = grid.x, grid.k
        self.x_pts = x = uniform_mesh(xm.domain_lo, xm.domain_hi, n_uniform)
        self.k_pts = k = uniform_mesh(km.k_min, km.k_max, n_uniform)
        self.dx = (xm.domain_hi - xm.domain_lo) / n_uniform
        self.dk = km.length / n_uniform
        ones = np.ones(n_uniform)
        u_x, u_x_right, v_x, v_x2 = (self.dx * self.dk) * (
            _spatial_interp_adjoint(xm, x, np.column_stack([ones, x >= 0.0, x, x**2]))
        )
        kvec = _uniform_wavenumber_interp_adjoint(km, np.column_stack([ones, k, k**2]))
        # the two factors of the reduction (_reduce): the k functionals (1,
        # u_k, v_k, v_k2) as rows, the x functionals as columns in the work
        # order (m, q) of the nodes
        self._k_rows = np.vstack([np.ones(km.num_points), kvec])
        x_cols = np.stack([np.ones(xm.num_points), _cc_x_weights(xm) * km.length / km.num_points,
                           u_x_right, v_x, v_x2, u_x])
        self._x_cols = _node_order(x_cols, xm).T.copy()

    def resample(self, state: WignerState) -> np.ndarray:
        """The field on the uniform mesh, (N_um, N_um): x first, then k."""
        fx = _spatial_interp(self.grid.x, self.x_pts, state.values)
        return _uniform_wavenumber_interp(self.grid.k, fx, self.n_uniform)

    def _reduce(self, field: np.ndarray) -> np.ndarray:
        """The reduced field: entry [a, b] is the k functional a (1, u_k,
        v_k, v_k2) and the x functional b (1, the Clenshaw-Curtis mass
        weights, u_x_right, v_x, v_x2, u_x) applied to the field, a (4, 6)
        matrix.  [0, 0] is the sum of the field's entries.

        A field in the stepper's (Nk, M, Q) work layout is reduced by the
        two products.  The natural (Q*M, Nk) field is read in place, through
        its transpose: the k product gives (4, Q*M) with the nodes in (q, m)
        order, a copy of that puts them in the work order (m, q), and the x
        product is the work layout's own.  Neither makes a field-sized copy."""
        if field.ndim == 3:
            return self._k_rows @ field.reshape(len(field), -1) @ self._x_cols
        Q, M = self.grid.x.num_elements, self.grid.x.points_per_element
        by_node = (self._k_rows @ field.T).reshape(-1, Q, M).transpose(0, 2, 1)
        return by_node.reshape(len(by_node), -1) @ self._x_cols

    def _row(self, reduced: np.ndarray, consts: PhysicalConstants) -> dict:
        """Every ObservableSeries column but t from a reduced field (_reduce)."""
        hbar = consts.hbar
        mean_x = float(reduced[1, 3])
        mean_x2 = float(reduced[1, 4])
        mean_p = hbar * float(reduced[2, 5])
        mean_p2 = hbar**2 * float(reduced[3, 5])
        var_x = mean_x2 - mean_x**2
        var_p = mean_p2 - mean_p**2
        for name, v in (("var_x", var_x), ("var_p", var_p)):
            if v < -1e-10:
                raise DomainError(f"{name} = {v} is negative beyond roundoff")
        var_x = max(var_x, 0.0)
        var_p = max(var_p, 0.0)
        return {"total_mass": reduced[0, 1], "partial_mass": reduced[1, 2], "mean_x": mean_x,
                "mean_p": mean_p, "var_x": var_x, "var_p": var_p,
                "uncertainty": math.sqrt(var_x) * math.sqrt(var_p)}

    def partial_mass(self, state: WignerState) -> float:
        return float(self._reduce(state.values)[1, 2])

    def moments(self, state: WignerState, consts: PhysicalConstants) -> UncertaintyResult:
        row = self._row(self._reduce(state.values), consts)
        return UncertaintyResult(row["mean_x"], row["mean_p"], row["var_x"], row["var_p"],
                                 row["uncertainty"])

    def append_row_from_work(self, series, t, work, consts) -> float:
        """Record one row from a field in the stepper's (Nk, M, Q) work layout
        or in the natural layout (_reduce), and return the sum of its
        entries; a field whose sum is not finite (a NaN, an infinity or an
        overflow) records no row."""
        with np.errstate(over="ignore", invalid="ignore"):
            reduced = self._reduce(work)
        total = float(reduced[0, 0])
        if math.isfinite(total):
            series.append(t=t, **self._row(reduced, consts))
        return total


def _shared_quadrature(grid: PhaseSpaceGrid, n_uniform: int) -> UniformMeshQuadrature:
    """The quadrature of (grid, N_um), built once and shared read-only
    through the cache of grid-derived values (kernels._cached)."""
    _check_count("N_um", n_uniform)  # before the lookup, where 600.0 would find 600
    return _cached(("quadrature", grid, n_uniform),
                   lambda: UniformMeshQuadrature(grid, n_uniform))


def resample_uniform(state: WignerState, N_um: int) -> np.ndarray:
    """Evaluate a 2-D phase-space state on the N_um x N_um cell-centered mesh."""
    return _shared_quadrature(state.grid, N_um).resample(state)


def partial_mass(state: WignerState, n_uniform: int) -> float:
    """Mass in the half-space x >= 0 (midpoint rule on the uniform mesh)."""
    return _shared_quadrature(state.grid, n_uniform).partial_mass(state)


def uncertainty(
    state: WignerState, n_uniform: int, consts: PhysicalConstants = PhysicalConstants()
) -> UncertaintyResult:
    """Unnormalized moments of x and p = hbar k and their spread product."""
    return _shared_quadrature(state.grid, n_uniform).moments(state, consts)


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
    qc = _shared_quadrature(gc, n_uniform)
    qr = _shared_quadrature(gr, n_uniform)
    diff = qc.resample(candidate) - qr.resample(reference)
    eps2 = math.sqrt(float((diff**2).sum()) * qc.dx * qc.dk)
    eps_inf = float(np.abs(diff).max())
    return eps2, eps_inf


# ----------------------------------------------------------------------
# per-step record
# ----------------------------------------------------------------------

@dataclass
class ObservableSeries:
    """Per-step observable record with strictly increasing times.

    Its fields, in order, are the one list of the record's columns
    (_COLUMNS); a 4-D run records t and total_mass alone.
    """

    t: list = field(default_factory=list)
    total_mass: list = field(default_factory=list)
    partial_mass: list = field(default_factory=list)
    mean_x: list = field(default_factory=list)
    mean_p: list = field(default_factory=list)
    var_x: list = field(default_factory=list)
    var_p: list = field(default_factory=list)
    uncertainty: list = field(default_factory=list)

    def append(self, *, t, total_mass, **rest):
        """Append one row; a column left out records NaN, an unknown one fails."""
        if self.t and t <= self.t[-1]:
            raise ParameterError("observable times must increase strictly")
        unknown = rest.keys() - _COLUMNS
        if unknown:
            raise ParameterError(f"unknown observable columns: {', '.join(sorted(unknown))}")
        for name in ("var_x", "var_p"):
            if rest.get(name, 0.0) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        rest["t"], rest["total_mass"] = t, total_mass
        for name in _COLUMNS:
            getattr(self, name).append(float(rest.get(name, math.nan)))

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


# the series columns, in row order: the one list of them
_COLUMNS = tuple(f.name for f in fields(ObservableSeries))
