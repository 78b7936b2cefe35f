"""Phase-space discretization.

Position space [X_L, X_R] is split into Q equal elements, each carrying the
same M Chebyshev-Gauss-Lobatto nodes; interpolation inside an element uses
the second barycentric formula.  Wavenumber space [k_min, k_max] carries N_k
uniform collocation nodes k_j = k_min + j*L_k/N_k dual to the Fourier modes
exp(2*pi*i*nu*(k - k_min)/L_k), nu = -N_k/2+1 .. N_k/2.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, DomainError

__all__ = [
    "SpatialMesh",
    "WavenumberMesh",
    "PhaseSpaceGrid",
    "WignerState",
    "build_spatial_mesh",
    "build_wavenumber_mesh",
    "uniform_mesh",
    "clenshaw_curtis_weights",
]


def _cgl_reference_nodes(M: int) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto nodes on [-1, 1], ascending, endpoints exact.

    The odd form sin(pi (2j - n) / 2n), n = M - 1 (Trefethen's cheb.m), not
    -cos(j pi / n): its argument is negated exactly under j -> n - j and sin
    is odd in IEEE arithmetic, so nodes[::-1] == -nodes bit for bit, with
    the middle node of an odd M exactly 0.
    """
    n = M - 1
    nodes = np.sin(np.pi * (2 * np.arange(M) - n) / (2 * n))
    nodes[0] = -1.0
    nodes[-1] = 1.0
    return nodes


def _cgl_barycentric_weights(M: int) -> np.ndarray:
    # (-1)^j with halved endpoints; any common scale cancels in the formula
    w = np.ones(M)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class SpatialMesh:
    """Equal-width spectral elements with shared CGL nodes.

    A value: meshes compare and hash by (domain, Q, M), the numbers that fix
    the node arrays, so a mesh can key a cache.
    """

    domain_lo: float
    domain_hi: float
    num_elements: int
    points_per_element: int
    element_boundaries: np.ndarray = field(compare=False)  # (Q+1,)
    # (Q*M,) element-major, ascending per element
    collocation_points: np.ndarray = field(compare=False)
    # (M,) reference weights, shared by all elements
    barycentric_weights: np.ndarray = field(compare=False)

    @property
    def num_points(self) -> int:
        return self.num_elements * self.points_per_element

    @property
    def element_width(self) -> float:
        return (self.domain_hi - self.domain_lo) / self.num_elements

    @property
    def points_by_element(self) -> np.ndarray:
        return self.collocation_points.reshape(self.num_elements, self.points_per_element)

    def element_of(self, x) -> np.ndarray:
        """Element index containing x (right-closed at the last boundary)."""
        e = np.floor((np.asarray(x, float) - self.domain_lo) / self.element_width)
        return np.clip(e, 0, self.num_elements - 1).astype(np.int64)


@dataclass(frozen=True)
class WavenumberMesh:
    """Uniform wavenumber collocation with Fourier mode bookkeeping.

    A value: meshes compare and hash by (k window, N_k), the numbers that fix
    the node and mode arrays.
    """

    k_min: float
    k_max: float
    num_points: int
    collocation_k: np.ndarray = field(compare=False)  # (N_k,)
    mode_indices: np.ndarray = field(compare=False)  # (N_k,) ascending: -N_k/2+1 .. N_k/2

    @property
    def length(self) -> float:
        return self.k_max - self.k_min


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an integer, a bool included; numpy integers pass."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Refuse a value that is not a real number, a bool included; numpy floats pass."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


def build_spatial_mesh(X_L: float, X_R: float, Q: int, M: int) -> SpatialMesh:
    """Q equal elements on [X_L, X_R] with M CGL nodes each.

    Nodes ascend within each element, the domain ends are exact, and the
    nodes an element shares with its neighbours equal their boundary bit for
    bit.  On a symmetric domain, X_L = -X_R, the mesh is its own mirror
    image bit for bit: collocation_points[::-1] == -collocation_points and
    element_boundaries[::-1] == -element_boundaries.  The boundaries
    (X_R q - X_L (q - Q)) / Q are then exactly antisymmetric under
    q -> Q - q, the element midpoints and half-widths follow, and the
    reference nodes are odd (_cgl_reference_nodes).  The kernel tables of
    even potentials read that symmetry (kernels._odd_in_x).
    """
    _check_count("Q", Q)
    _check_count("M", M)
    if not (np.isfinite(X_L) and np.isfinite(X_R)) or X_L >= X_R:
        raise ParameterError(f"degenerate spatial domain [{X_L}, {X_R}]")
    if Q < 1 or M < 3:
        raise ParameterError(f"need Q >= 1 and M >= 3, got Q={Q}, M={M}")
    q = np.arange(Q + 1)
    boundaries = (X_R * q - X_L * (q - Q)) / Q
    boundaries[0], boundaries[-1] = X_L, X_R
    ref = _cgl_reference_nodes(M)
    mid = 0.5 * (boundaries[:-1] + boundaries[1:])
    half = 0.5 * (boundaries[1:] - boundaries[:-1])
    pts = mid[:, None] + half[:, None] * ref[None, :]
    # shared nodes must coincide with the element boundaries bit-for-bit
    pts[:, 0] = boundaries[:-1]
    pts[:, -1] = boundaries[1:]
    return SpatialMesh(
        domain_lo=float(X_L),
        domain_hi=float(X_R),
        num_elements=Q,
        points_per_element=M,
        element_boundaries=boundaries,
        collocation_points=pts.ravel(),
        barycentric_weights=_cgl_barycentric_weights(M),
    )


def build_wavenumber_mesh(k_min: float, k_max: float, N_k: int) -> WavenumberMesh:
    _check_count("N_k", N_k)
    if not (np.isfinite(k_min) and np.isfinite(k_max)) or k_min >= k_max:
        raise ParameterError(f"degenerate wavenumber domain [{k_min}, {k_max}]")
    if N_k < 4 or N_k % 2 != 0:
        raise ParameterError(f"N_k must be even and >= 4, got {N_k}")
    L = k_max - k_min
    k = k_min + L * np.arange(N_k) / N_k
    modes = np.arange(-N_k // 2 + 1, N_k // 2 + 1)
    return WavenumberMesh(float(k_min), float(k_max), N_k, k, modes)


def _barycentric_rows(diff: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Second-form barycentric rows from target-minus-node differences (..., M),
    written into diff, which is returned: the caller passes a fresh array.

    weights are the (M,) barycentric weights of the nodes; a target that hits
    a node exactly gets that node's unit row.  Besides diff, only the (...,
    M) mask of exact hits is allocated.
    """
    exact = diff == 0.0
    np.copyto(diff, 1.0, where=exact)
    np.divide(weights, diff, out=diff)
    diff /= diff.sum(axis=-1, keepdims=True)
    hit = exact.any(axis=-1)
    diff[hit] = exact[hit]
    return diff


def _interp_rows(mesh: SpatialMesh, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-target element index and barycentric row over that element's nodes.

    Every target must lie in the spatial domain: interpolation does not
    extrapolate.
    """
    targets = np.asarray(targets, float)
    if targets.min() < mesh.domain_lo or targets.max() > mesh.domain_hi:
        raise DomainError("interpolation targets outside the spatial domain")
    elems = mesh.element_of(targets)
    diff = targets[:, None] - mesh.points_by_element[elems]  # (n, M)
    return elems, _barycentric_rows(diff, mesh.barycentric_weights)


def _spatial_interp(mesh: SpatialMesh, targets, values) -> np.ndarray:
    """The interpolant of nodal values (Q*M, c) at the targets, (n_targets, c).

    One gather per element node, weighted by that node's barycentric
    entries, so no temporary is larger than the result.
    """
    elems, rows = _interp_rows(mesh, targets)
    first = elems * mesh.points_per_element
    out = rows[:, :1] * values[first]
    for m in range(1, mesh.points_per_element):
        out += rows[:, m:m + 1] * values[first + m]
    return out


def _spatial_interp_adjoint(mesh: SpatialMesh, targets, columns) -> np.ndarray:
    """The transpose of `_spatial_interp`: columns (n_targets, c) -> (c, Q*M).

    Each target's barycentric row scatters onto the M nodes of its element,
    one bincount per column, so the work is O(n_targets * M * c).
    """
    elems, rows = _interp_rows(mesh, targets)
    M = mesh.points_per_element
    cols = (elems[:, None] * M + np.arange(M)).ravel()
    return np.stack([
        np.bincount(cols, (rows * w[:, None]).ravel(), minlength=mesh.num_points)
        for w in np.asarray(columns, float).T
    ])


def _cell_centred_modes(N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes nu = -N/2 .. N/2 of the periodic-sinc interpolant of N nodes and
    their factors c_nu exp(i pi nu / n) on the cell-centred n-point mesh.

    The interpolant is (1/N) sum_nu c_nu exp(i nu theta), theta = 2 pi (t -
    k_j) / L, with c_{+-N/2} = 1/2 and every other c_nu = 1 (the cosine
    treatment of the Nyquist mode keeps real data real).  At the targets
    t_i = k_min + (i + 1/2) L/n of `uniform_mesh`, exp(i nu theta) carries
    the phase exp(2 pi i nu i / n) exp(i pi nu / n) exp(-2 pi i nu j / N).
    """
    nu = np.arange(-N // 2, N // 2 + 1)
    factor = np.exp(1j * np.pi * nu / n)
    factor[[0, -1]] *= 0.5
    return nu, factor


def _fold(terms: np.ndarray, nu: np.ndarray, n: int, kept: int | None = None) -> np.ndarray:
    """Sum terms (..., len(nu)) into n bins by nu mod n; with kept, only into
    bins 0..kept-1, the others' terms left out."""
    kept = n if kept is None else kept
    out = np.zeros(terms.shape[:-1] + (kept,), complex)
    for lo in range(0, nu.size, n):
        # n consecutive modes fill distinct bins: from nu[lo] mod n up to
        # n - 1, then from 0
        start = nu[lo] % n
        chunk = terms[..., lo:lo + n]
        for first, run in ((start, chunk[..., : n - start]), (0, chunk[..., n - start :])):
            run = run[..., : max(0, kept - first)]
            out[..., first : first + run.shape[-1]] += run
    return out


def _uniform_wavenumber_interp(mesh: WavenumberMesh, values, n: int) -> np.ndarray:
    """The periodic-sinc interpolant of real nodal values (c, N) on the
    cell-centred n-point mesh, (c, n).

    With alpha_nu = fft(values)[nu mod N] / N,

        f(t_i) = sum_nu c_nu alpha_nu exp(i pi nu / n) exp(2 pi i nu i / n)
               = n ifft(fold_n(c_nu alpha_nu exp(i pi nu / n)))_i.

    Real values make the term of -nu the conjugate of that of nu, so the
    fold is Hermitian: one rfft of length N gives the terms, and one irfft of
    length n reads the fold's bins 0..n/2 alone.  It is exact for every n,
    n < N/2 included: aliasing enters through the fold.
    """
    N = mesh.num_points
    nu, factor = _cell_centred_modes(N, n)
    half = np.fft.rfft(values)  # N alpha_nu for nu = 0..N/2
    terms = np.empty(half.shape[:-1] + (N + 1,), complex)
    np.multiply(factor[N // 2 :], half, out=terms[..., N // 2 :])
    np.multiply(factor[: N // 2], half[..., :0:-1].conj(), out=terms[..., : N // 2])
    del half
    folded = _fold(terms, nu, n, n // 2 + 1)
    del terms  # the irfft holds only the folded bins and its result
    out = np.fft.irfft(folded, n)
    out *= n / N
    return out


def _uniform_wavenumber_interp_adjoint(mesh: WavenumberMesh, columns) -> np.ndarray:
    """The transpose of `_uniform_wavenumber_interp`: columns (n, c) -> (c, N).

        (R.T w)_j = (1/N) Re sum_nu c_nu W_nu exp(-2 pi i nu j / N),
        W_nu = sum_i w_i exp(2 pi i nu (i + 1/2) / n)
             = n exp(i pi nu / n) ifft(w)[nu mod n],

    one inverse FFT of length n and one FFT of length N for all columns.
    """
    N = mesh.num_points
    w = np.asarray(columns, float).T  # (c, n)
    n = w.shape[1]
    nu, factor = _cell_centred_modes(N, n)
    W = n * factor * np.fft.ifft(w)[:, nu % n]
    return np.fft.fft(_fold(W, nu, N)).real / N


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """One spatial mesh and one wavenumber mesh per spatial dimension."""

    spatial: tuple[SpatialMesh, ...]
    wavenumber: tuple[WavenumberMesh, ...]

    def __post_init__(self):
        if len(self.spatial) != len(self.wavenumber) or len(self.spatial) not in (1, 2):
            raise ParameterError("grid needs 1 or 2 (spatial, wavenumber) mesh pairs")

    @classmethod
    def plane(cls, x: SpatialMesh, k: WavenumberMesh) -> "PhaseSpaceGrid":
        return cls((x,), (k,))

    @classmethod
    def tensor4d(cls, x1, x2, k1, k2) -> "PhaseSpaceGrid":
        return cls((x1, x2), (k1, k2))

    @property
    def ndim_space(self) -> int:
        return len(self.spatial)

    @property
    def x(self) -> SpatialMesh:
        return self.spatial[0]

    @property
    def k(self) -> WavenumberMesh:
        return self.wavenumber[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(m.num_points for m in self.spatial) + tuple(
            m.num_points for m in self.wavenumber
        )


def _split(grid: PhaseSpaceGrid) -> tuple[int, ...]:
    """The natural field's shape with each x axis split per element: (Q, M,
    Nk) in 2-D phase space, (Q1, M1, Q2, M2, Nk1, Nk2) in 4-D.  Every work
    layout is an axis order of this split field."""
    spatial = tuple(n for x in grid.spatial for n in (x.num_elements, x.points_per_element))
    return spatial + tuple(k.num_points for k in grid.wavenumber)


@dataclass
class WignerState:
    """Real phase-space field on a grid at one time instant."""

    grid: PhaseSpaceGrid
    values: np.ndarray  # (nx, Nk) in 2-D phase space, (nx1, nx2, Nk1, Nk2) in 4-D
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != self.grid.shape:
            raise ParameterError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )


def uniform_mesh(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell-centered evaluation points lo + (i - 1/2)(hi - lo)/n, i = 1..n:
    the uniform mesh of n = N_um cells."""
    _check_count("N_um", n)
    if n < 1:
        raise ParameterError(f"N_um must be positive, got {n}")
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def clenshaw_curtis_weights(M: int) -> np.ndarray:
    """Quadrature weights on the M CGL reference nodes for integrals over [-1, 1]."""
    if M < 2:
        raise ParameterError("need at least two nodes")
    n = M - 1
    j = np.arange(M)
    m = np.arange(0, n + 1, 2)
    # moments of cos(m*theta): integral over [-1,1] is 2/(1-m^2) for even m
    mu = 2.0 / (1.0 - m**2)
    cos_table = np.cos(np.outer(j, m) * np.pi / n)
    scale = np.full(m.size, 2.0 / n)
    scale[0] = 1.0 / n
    if n % 2 == 0:
        scale[-1] = 1.0 / n
    w = cos_table @ (mu * scale)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w
