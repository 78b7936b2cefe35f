"""Time evolution by operator splitting of the two exact sub-flows.

The transport substep is solved along characteristics: every wavenumber
slice is shifted by v = hbar*k/m times the stage length and re-read through
per-element barycentric interpolation (semi-Lagrangian, no CFL bound, signed
stage lengths allowed).  A sweep plan fixes, per (slice, stage length), one
interpolation matrix, and groups adjacent slices that read the same source
elements into runs, so a sweep is at most two batched matmuls a run, each
from a view of the source straight into the shifted view of its target (no
gather); a whole-element shift is a copy, and the CGL endpoint that two
elements share is computed once.
The pseudo-differential substep is diagonal in the wavenumber modes:
alpha_nu picks up exp(tau * c_nu(x)) = exp(i tau s_nu(x)), with s the real
kernel table.  Strang composition gives order two; the triple-jump
composition of three Strang steps with one negative middle stage gives
order four.

Every work layout is an axis order of the natural field split per element
(grid._split), listed once in _LAYOUTS: one in 2-D, two in 4-D.  One pair of
conversions (_to_work, _from_work), one stage-to-layout map (_layouts), one
multiplier builder (_multipliers, over the spectrum shape _bins of a layout)
and one buffer plan (_scratch) serve both dimensions.  Per dimension stay
the transport's layout switch, the kernel substep's DFT factorisation and
product form, and the record: a 2-D record is two products against the
observables' functionals in the work layout
(observables.UniformMeshQuadrature), a 4-D one the spatial marginal and its
mass (observables._marginal and _mass, read where the field lies).  Either
also sums every entry of the field, which is evolve's finiteness check.

One stepper (_Stepper) runs the stages; it builds the sweep plans and
multiplier tables of each distinct stage length once, and every buffer the
stages use: no stage allocates.  Both kernel substeps are four matrix
products against DFT matrices built once by one helper (_dft_matrices), the
multiply between the middle two; no np.fft call is left.  In 2-D they
factor the k axis, N_k = N1*N2 (Bailey's four-step FFT); in 4-D they run
along the layout's trailing k axis (rfft) and its leading one (complex).
At these sizes (N_k = 16 to 128) BLAS runs the transforms faster than
pocketfft, which transforms one lane at a time.  A 4-D field switches
layouts once per transport and always stays in the caller's array.  evolve
drives a run in either dimension with one stepper, dropped before the final
record and snapshot; advect, apply_kernel and step build a stepper for a
single call and leave their input state as it is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DivergenceError, DomainError, ParameterError
from .grid import (
    PhaseSpaceGrid,
    SpatialMesh,
    WavenumberMesh,
    WignerState,
    _barycentric_rows,
    _split,
    build_spatial_mesh,
    build_wavenumber_mesh,
)
from .kernels import (
    KernelTable,
    MultiDeltaPotential2D,
    PhysicalConstants,
    check_exact_route,
    check_poisson_route,
    kernel_coefficients,
    poisson_kernel_coefficients,
)
from . import observables

__all__ = [
    "SimulationConfig",
    "advect",
    "apply_kernel",
    "step",
    "evolve",
    "evolve_4d",
]

_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))

# advection stage lengths beyond this are treated as misconfiguration
MAX_STAGE_FS = 10.0

# a 4-D run whose estimated working set (_working_set_4d) exceeds this many
# bytes is refused before its table is built
MEMORY_BUDGET_BYTES = 8e9


# the named schemes' coefficients; the values each string setting takes
SCHEMES = {"strang": (1.0,), "yoshida4": (_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1, _YOSHIDA_W1)}
NAMED_SETTINGS = {
    "scheme": tuple(SCHEMES),
    "kernel_route": ("exact", "poisson"),
    "inflow": ("zero", "background"),
    "edge_transport": ("one_sided", "symmetrized"),
}


def _check_named(what: str, value: str, names) -> None:
    if value not in names:
        raise ParameterError(f"{what}: unknown value {value!r}; expected one of {', '.join(names)}")


# ----------------------------------------------------------------------
# semi-Lagrangian transport
# ----------------------------------------------------------------------

class _SweepPlan:
    """Shift of every wavenumber slice along one spatial mesh.

    Work layout is (Nk, M, Q, R): slice, node-in-element, element, slab.
    Equal-width elements make the interpolation matrices depend only on the
    fractional part of the shift.  A slice shifted by n elements plus a
    fraction serves each target node from a single source element: the
    nodes at or beyond the fraction, a contiguous suffix [m0, M) of the CGL
    nodes, from element q - n, the others from q - n - 1.  The two
    interpolation matrices of a slice thus have disjoint nonzero rows, and
    the plan stores their sum, one M x M matrix per slice.

    Adjacent slices share (n, m0) in runs, a few per stage (3 to 5 on the
    benchmark grids, 34 on the Q = 160, N_k = 512 grid of the convergence
    ladders at yoshida4 dt = 0.08), and the plan stores those runs as
    (first slice, end, n, m0).  apply() writes each run (_shift_run) with
    at most two batched matmuls, one per row group, each from a view of the
    source elements straight into the shifted view of the target elements;
    no per-node index exists.  A run with m0 = 0 has no fractional shift
    and identity matrices, and is a copy by n whole elements.  In every
    other run, row 0 of element q is row M-1 of element q-1, the CGL
    endpoint the two share: it is copied from its neighbour, and a row
    group that is only that row (m0 = 1 or M-1) runs no product but for
    the one end element without a neighbour.

    On a symmetric wavenumber domain the node at k_min has no +k_max partner
    (it represents both ends of the periodic window), so transporting it with
    the one-sided velocity breaks the parity and quarter-turn equivariance of
    the discrete evolution.  That slice gets the symmetrized transport
    (f(x - v tau) + f(x + v tau))/2 instead: its mirrored-velocity copy
    follows the Nk slices, with its own matrix and one more run, the last.
    """

    def __init__(self, mesh: SpatialMesh, velocities: np.ndarray, tau: float,
                 edge_slice: int | None = None):
        M = mesh.points_per_element
        width = mesh.element_width
        velocities = np.asarray(velocities, float)
        self.edge = edge_slice
        self.num_slices = len(velocities)
        if edge_slice is not None:
            velocities = np.concatenate([velocities, [-velocities[edge_slice]]])
        shift = velocities * tau
        n = np.floor(shift / width)
        frac = shift / width - n

        xi = (mesh.points_by_element[0] - mesh.element_boundaries[0]) / width  # in [0, 1]
        hi = xi[None, :] >= frac[:, None]  # (slices, M) rows served by element q - n
        local = xi[None, :] - frac[:, None]
        # departure point on the serving element's reference interval [-1, 1]
        r = 2.0 * np.where(hi, local, local + 1.0) - 1.0
        diff = r[:, :, None] - (2.0 * xi - 1.0)[None, None, :]
        self.matrices = _barycentric_rows(diff, mesh.barycentric_weights)

        n, m0 = n.astype(int).tolist(), (M - hi.sum(axis=1)).tolist()
        # a run ends where (n, m0) changes and at the mirrored slice, which
        # is a run of its own
        cuts = [0, *(s for s in range(1, len(n)) if (n[s], m0[s]) != (n[s - 1], m0[s - 1])
                     or s == self.num_slices), len(n)]
        self.runs = [(a, b, n[a], m0[a]) for a, b in zip(cuts, cuts[1:])]

    def apply(self, work: np.ndarray, inflow: np.ndarray | None = None,
              out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
        """The field work, (Nk, M, Q, R), shifted into out; returns out.

        inflow, if given, holds the (Nk, R) values read by departure points
        outside the domain; otherwise those points read 0.  out is a
        C-contiguous buffer of work's shape that shares no memory with it;
        with the symmetrized edge, scratch holds the mirrored slice's
        reading, at least M*Q*R floats apart from both.  A call given none
        allocates its own.
        """
        Nk = self.num_slices
        if work.shape[0] != Nk:
            raise ParameterError(f"sweep plan holds {Nk} slices, field has {work.shape[0]}")
        if out is None:
            out = np.empty_like(work)
        runs = self.runs
        e = self.edge
        if e is not None:
            *runs, mirror = runs
        for start, stop, n, m0 in runs:
            _shift_run(self.matrices[start:stop], work[start:stop], out[start:stop], n, m0,
                       None if inflow is None else inflow[start:stop])
        if e is not None:
            if scratch is None:
                scratch = np.empty(work[0].size)
            reading = scratch[: work[0].size].reshape(work[e : e + 1].shape)
            start, _, n, m0 = mirror
            _shift_run(self.matrices[start:], work[e : e + 1], reading, n, m0,
                       None if inflow is None else inflow[e : e + 1])
            out[e] += reading[0]
            out[e] *= 0.5
        return out


def _shift_run(matrices: np.ndarray, work: np.ndarray, out: np.ndarray, n: int, m0: int,
               inflow: np.ndarray | None) -> None:
    """Write K slices of work, (K, M, Q, R), that share (n, m0) into out: row
    m of target element q is matrices[:, m] times source element q - n for m
    >= m0, q - n - 1 below, or the (K, R) inflow (0 without) where that
    element lies outside [0, Q).

    With m0 = 0 the shift is a whole number of elements and every matrix
    the identity (_barycentric_rows gives unit rows on exact node hits): the
    run is a copy.  With m0 >= 1, row 0 of target q and row M-1 of target
    q-1 are one CGL endpoint with one departure point, source element and
    matrix row; that row is read from its neighbour, never computed twice.
    A row group that is only the shared row (m0 = 1 or M-1) runs one
    product for the end element that has no neighbour.
    """
    K, M, Q, R = work.shape
    fill = 0.0 if inflow is None else inflow[:, None, None, :]
    if m0 == 0:
        # targets [lo, hi) read sources [lo - n, hi - n); work and out share
        # no memory, so the copy makes no temporary
        lo, hi = min(max(n, 0), Q), min(max(Q + n, 0), Q)
        if lo < hi:
            np.copyto(out[:, :, lo:hi], work[:, :, lo - n : hi - n])
        if lo > 0:
            out[:, :, :lo] = fill
        if hi < Q:
            out[:, :, hi:] = fill
        return
    source, target = work.reshape(K, M, Q * R), out.reshape(K, M, Q * R)
    # a group that is only the shared row writes it for its end element
    upper_shared = m0 == M - 1
    lower_shared = m0 == 1 and not upper_shared
    groups = ((slice(m0, M), n, Q - 1 if upper_shared else 0, Q),
              (slice(0, m0), n + 1, 0, 1 if lower_shared else Q))
    for rows, shift, first, end in groups:
        # targets [lo, hi) of [first, end) read sources [lo - shift, hi - shift)
        lo, hi = min(max(shift, first), end), min(max(Q + shift, first), end)
        if lo < hi:
            np.matmul(matrices[:, rows], source[:, :, (lo - shift) * R : (hi - shift) * R],
                      out=target[:, rows, lo * R : hi * R])
        if lo > first:
            out[:, rows, first:lo] = fill
        if hi < end:
            out[:, rows, hi:end] = fill
    # the shared row, from the group that wrote it.  numpy first copies the
    # whole source when its extent overlaps the target's; one slice at a
    # time the two rows' extents are disjoint, and at R = 1 the whole source
    # is only K*Q floats
    lower, upper = target[:, 0, R:], target[:, M - 1, :-R]
    into, read = (upper, lower) if upper_shared else (lower, upper)
    for a, b in zip(into, read) if R > 1 else ((into, read),):
        np.copyto(a, b)


def _edge_slice(km: WavenumberMesh) -> int:
    """Index of the unpaired k_min node, which only a symmetric wavenumber
    domain has; the symmetrized edge transport needs one."""
    if km.k_min != -km.k_max:
        raise ParameterError(
            f"edge_transport = 'symmetrized' needs a symmetric wavenumber domain,"
            f" got [{km.k_min!r}, {km.k_max!r}]"
        )
    return 0


def _sweep_plans(grid: PhaseSpaceGrid, consts: PhysicalConstants, tau: float,
                 symmetrized_edge: bool = False) -> tuple[_SweepPlan, ...]:
    """One sweep plan per spatial dimension for the stage length tau; two
    dimensions with equal meshes share one plan."""
    dims = tuple(zip(grid.spatial, grid.wavenumber))
    plans: dict[tuple[SpatialMesh, WavenumberMesh], _SweepPlan] = {}
    for mesh, km in dict.fromkeys(dims):
        v = consts.hbar * km.collocation_k / consts.mass
        plans[mesh, km] = _SweepPlan(mesh, v, tau, _edge_slice(km) if symmetrized_edge else None)
    return tuple(plans[dim] for dim in dims)


# The work layouts, as axis orders of the natural field split per element
# (grid._split).  In 2-D, of (q, m, k): the one layout (k, m, q).  In 4-D, of
# (q1, m1, q2, m2, k1, k2): L1 = (k1, m1, q1, q2, m2, k2) leads with x1 and
# its slices, L2 = (k2, m2, q2, q1, m1, k1) with x2; each is the other with
# its axes reversed.  A spectrum has the axes of its field.
_LAYOUTS = {1: ((2, 1, 0),), 2: ((4, 1, 0, 2, 3, 5), (5, 3, 2, 0, 1, 4))}


def _to_work(values: np.ndarray, grid: PhaseSpaceGrid, order: tuple[int, ...]) -> np.ndarray:
    """A natural-layout field in the work layout order, always a private copy."""
    return values.reshape(_split(grid)).transpose(order).copy()


def _from_work(work: np.ndarray, grid: PhaseSpaceGrid, order: tuple[int, ...]) -> np.ndarray:
    """A new natural-layout field from a field in the work layout order."""
    out = np.empty(grid.shape)
    np.copyto(out.reshape(_split(grid)), work.transpose(np.argsort(order)))
    return out


# ----------------------------------------------------------------------
# pseudo-differential substep
# ----------------------------------------------------------------------

def _bins(grid: PhaseSpaceGrid, layout: int) -> tuple[int, ...]:
    """(leading bins, work nodes..., trailing bins), the spectrum a kernel
    substep multiplies in a layout.  In 2-D, N_k = N1*N2 (_factors), it is
    (k1, m, q, k2) with bin nu = k1 + N1*k2, k1 = 0..N1/2: every nu mod N_k
    once.  In 4-D it has the layout's axes, half along the trailing k axis:
    (nu1, ..., nu2 = 0..Nk2/2) in L1, (nu2, ..., nu1 = 0..Nk1/2) in L2."""
    split = _split(grid)
    if grid.ndim_space == 1:
        Q, M, Nk = split
        N1, N2 = _factors(Nk)
        return (N1 // 2 + 1, M, Q, N2)
    Nk1, Nk2 = split[4:]
    natural = split[:4] + ((Nk1, Nk2 // 2 + 1) if layout == 0 else (Nk1 // 2 + 1, Nk2))
    return tuple(natural[a] for a in _LAYOUTS[2][layout])


def _table_rows(table: KernelTable, layout: int):
    """Per leading bin of _bins(table.grid, layout), its row's parts as
    (trailing index, strided view of the table, sign) and the trailing
    indices of its Nyquist bins, which get phase 0.  The table stores nu >= 0
    along its last axis; a bin of negative nu reads s(-nu) = -s(nu), signed
    -1: in 2-D, N_k - nu backwards; in an L2 row of nu2 > Nk2/2, the row
    Nk2 - nu2 at -nu1, which is bin 0, then Nk1 - 1 down to Nk1/2."""
    split = _split(table.grid)
    if table.grid.ndim_space == 1:
        Q, M, N = split
        N1, N2 = _factors(N)
        s = table.multipliers.reshape(Q, M, -1).transpose(1, 0, 2)  # (m, q, nu)
        nyquist = divmod(N // 2, N1)  # (k2, k1)
        for k1 in range(N1 // 2 + 1):
            stored = (N // 2 - k1) // N1 + 1  # the k2 with nu <= N_k/2
            # N_k - nu runs down from N_k - k1 - N1*stored to N1 - k1
            mirrored = s[..., N1 - k1 : N1 * (N2 - stored + 1) - k1 : N1][..., ::-1]
            yield (((slice(None, stored), s[..., k1 : N // 2 + 1 : N1], 1.0),
                    (slice(stored, None), mirrored, -1.0)),
                   (nyquist[0],) if k1 == nyquist[1] else ())
        return
    # (nu1, ..., nu2) in L1, (nu2, ..., nu1) in L2
    s = table.multipliers.reshape(split[:5] + (-1,)).transpose(_LAYOUTS[2][layout])
    lead, *_, trail = _bins(table.grid, layout)
    for j in range(lead):
        if layout == 0 or j <= lead // 2:
            parts = ((slice(None), s[j][..., :trail], 1.0),)
        else:
            mirrored = s[lead - j]
            parts = ((slice(None, 1), mirrored[..., :1], -1.0),
                     (slice(1, None), mirrored[..., : trail - 2 : -1], -1.0))
        # the Nyquist planes: the whole row at nu = lead/2, else its last bin
        yield parts, (slice(None),) if j == lead // 2 else (trail - 1,)


def _multipliers(table: KernelTable, tau: float, layout: int, out: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """exp(i tau s_nu) on the spectrum a kernel substep multiplies in a
    layout, written into out (complex, of shape _bins) and returned: each
    leading bin's row is scaled from its table views (_table_rows) to the
    half angle tau s/2 in a row of scratch, which holds two, and _phasor
    writes exp(i tau s) through the other.  No value is written through a
    transposed view, and no table-sized temporary exists."""
    size = math.prod(out.shape[1:])
    t, d = scratch[:size], scratch[size : 2 * size]
    phases = t.reshape(out.shape[1:])
    half = 0.5 * tau
    for row, (parts, nyquist) in zip(out, _table_rows(table, layout)):
        for at, view, sign in parts:
            np.multiply(view, sign * half, out=phases[..., at])
        for at in nyquist:
            phases[..., at] = 0.0  # stays inert
        # flat, each ufunc of _phasor sets up one loop, not one per axis
        _phasor(row.reshape(-1), t, d)
    return out


def _phasor(out: np.ndarray, t: np.ndarray, d: np.ndarray) -> None:
    """exp(i theta) into the complex out from the half angles theta/2 in t,
    from one tangent: with t = tan(theta/2), cos = 2/(1 + t^2) - 1 and sin =
    t*2/(1 + t^2).  t and d, of out's shape, are overwritten.  numpy's
    float64 sin and cos run one lane at a time, tan vectorised.  A zero
    angle gives exactly 1."""
    np.tan(t, out=t)
    np.multiply(t, t, out=d)
    d += 1.0
    np.divide(2.0, d, out=d)
    np.multiply(t, d, out=out.imag)
    np.subtract(d, 1.0, out=out.real)


def _factors(n: int) -> tuple[int, int]:
    """(N1, N2) with N1*N2 = n for the 2-D kernel substep: N2 is the largest
    divisor of n at most sqrt(n/2), so N1 >= 2*N2 (16 x 8 at n = 128); N2 = 1
    leaves the dense real DFT."""
    n2 = max(d for d in range(1, math.isqrt(n // 2) + 1) if n % d == 0)
    return n // n2, n2


def _dft_matrices(n_real: int, n_complex: int, twiddled: bool) -> tuple[np.ndarray, ...]:
    """The DFT matrices of a kernel substep that transforms an n_real-point
    axis by real products and an n_complex-point axis by complex ones:
    roots, weights, lead and lead_inv.

    roots, (S, n_real, H) with H = n_real/2 + 1, holds per shift n2 < S the
    map of n_real real samples to H bins; weights, (H,), are the c2r
    weights over n_real that map them back: bins 0 and n_real/2 count once,
    every other bin twice, as its own conjugate partner.  lead and lead_inv
    are the complex n_complex-point DFT and its inverse.  Untwiddled (4-D),
    S = 1 and roots is the rfft matrix of its axis.  Twiddled (2-D), the two
    axes are the factors of one N = n_real*n_complex point axis, sample k =
    n_complex*n1 + n2 and bin nu = k1 + n_real*k2 (Bailey's four-step FFT):
    S = n_complex, and roots[n2, n1, k1] = exp(-2 pi i k1 k / N) carries the
    twiddle.
    """
    stride = n_complex if twiddled else 1
    n = n_real * stride
    samples = stride * np.arange(n_real)[:, None] + np.arange(stride)[:, None, None]
    phase = samples * np.arange(n_real // 2 + 1) % n
    roots = np.exp(-2j * np.pi * phase / n)
    roots.imag[2 * phase % n == 0] = 0.0  # the roots +-1 exactly
    weights = np.full(roots.shape[-1], 2.0 / n_real)
    weights[0] = 1.0 / n_real
    if n_real % 2 == 0:
        weights[-1] = 1.0 / n_real  # the Nyquist bin
    a = np.arange(n_complex)
    lead = np.exp(-2j * np.pi * (np.outer(a, a) % n_complex) / n_complex)
    return roots, weights, lead, lead.conj() / n_complex


def _real_form(matrix: np.ndarray) -> np.ndarray:
    """The real (2n, 2n) matrix R with v @ R = w for every complex (n, n)
    matrix D and vectors z, D @ z, stored as (Re, Im) pairs in v and w."""
    units = np.array([1.0, 1j])[:, None]
    return np.ascontiguousarray(matrix.T[:, None, :] * units).view(float).reshape(
        2 * len(matrix), -1)


# ----------------------------------------------------------------------
# composed step
# ----------------------------------------------------------------------

def _stage_sequence(scheme: str, dt: float) -> list[tuple[str, float]]:
    """Fused A(t/2) B(t) A(t/2) chains; adjacent transports merge."""
    _check_named("scheme", scheme, SCHEMES)
    seq: list[tuple[str, float]] = []
    for w in SCHEMES[scheme]:
        seq += [("A", 0.5 * w * dt), ("B", w * dt), ("A", 0.5 * w * dt)]
    fused: list[tuple[str, float]] = []
    for kind, tau in seq:
        if fused and fused[-1][0] == kind:
            fused[-1] = (kind, fused[-1][1] + tau)
        else:
            fused.append((kind, tau))
    return fused


def _transport_lengths(stages: list[tuple[str, float]]) -> dict[float, None]:
    """Distinct transport stage lengths, in order of first use."""
    return dict.fromkeys(tau for kind, tau in stages if kind == "A")


def _check_stage_lengths(stages: list[tuple[str, float]]) -> None:
    for tau in _transport_lengths(stages):
        if abs(tau) > MAX_STAGE_FS:
            raise ParameterError(f"stage length {tau} fs exceeds the configured bound")


def _layouts(stages: list[tuple[str, float]], ndim: int) -> tuple[list[int], int, dict]:
    """The layout (an index into _LAYOUTS[ndim]) in which each stage finds a
    field that starts in the first, the layout the last stage leaves, and
    the distinct (length, layout) pairs of the kernel stages in order of
    first use, one multiplier table each.  Every 4-D transport switches L1
    and L2; 2-D has one layout.  A step of every scheme has an even number
    of transports, so a step starts and ends in the first layout."""
    layouts, layout = [], 0
    for kind, _ in stages:
        layouts.append(layout)
        layout = (layout + (kind == "A")) % len(_LAYOUTS[ndim])
    kernel = dict.fromkeys((tau, at) for (kind, tau), at in zip(stages, layouts) if kind == "B")
    return layouts, layout, kernel


def _scratch(grid: PhaseSpaceGrid, transports: bool, kernel_layouts, symmetrized_edge: bool):
    """The stepper's scratch size in floats, and where in it the mirrored
    edge slice's reading starts.  The scratch holds in turn the field a 4-D
    transport's first sweep writes, then the reading of either sweep (a 2-D
    sweep's reading alone), and the spectrum of every kernel layout (_bins,
    complex), which also holds the two rows _multipliers needs."""
    points = math.prod(grid.shape)
    field = points if transports and grid.ndim_space == 2 else 0
    slices = min(km.num_points for km in grid.wavenumber)
    reading = points // slices if transports and symmetrized_edge else 0
    spectra = (2 * math.prod(_bins(grid, layout)) for layout in kernel_layouts)
    return max([field + reading, *spectra]), field


class _Stepper:
    """A fixed sequence of stages: transports ("A") and kernel substeps ("B").

    Every distinct stage length's sweep plans or half-spectrum multipliers
    are built once, here, and so is every buffer the stages use: no stage
    allocates, in 2-D or in 4-D.  table may be None without kernel stages,
    consts without transport stages.

    The work layouts are _LAYOUTS[ndim] (orders): stage i finds the field in
    orders[layouts[i]], advance() leaves it in orders[end_layout], and
    to_work and from_work convert through them.  The inflow profiles, the
    multiplier tables, one per (stage length, layout) over that layout's
    spectrum (_bins, _multipliers), and the buffer plan (_scratch) are built
    from them alike in both dimensions.

    The stepper owns one block, every kernel stage's multipliers and then
    the scratch, and in 2-D a second field buffer, the spare, kept apart.
    The 2-D work layout is (Nk, M, Q), so that every sweep runs along the
    leading axis: a transport moves the field between the work array and
    the spare, and a step, with an even number of transports, leaves it in
    the array it came in.  A 4-D field is in L1 or L2, and advance() takes
    it in L1: a transport sweeps the dimension its layout leads with into
    the scratch, switches layouts back into the field's array in two passes,
    the second into the scratch, and sweeps the other dimension back into
    the field's array, which then holds the other layout, so the field
    always stays in the caller's array.  The mirrored edge slice's reading
    follows the swept field in the scratch.  A kernel substep overwrites the
    field through the spectrum, which the scratch holds.  The stepper also
    owns the inflow profiles, broadcast over each sweep's slabs, and each
    kernel layout's DFT matrices.  Without stages its block is empty.

    A kernel substep keeps one product form per dimension (_kernel): the
    2-D spectrum, (N2, 2*H1, M*Q) for the factors Nk = N1*N2 (_factors), H1
    = N1/2 + 1, holds the (Re, Im) parts of its H1 bins as two blocks of
    rows; the 4-D half spectrum holds (Re, Im) column pairs that a complex
    view reads as the rfft.
    """

    def __init__(self, grid: PhaseSpaceGrid, table: KernelTable | None,
                 consts: PhysicalConstants | None, stages: list[tuple[str, float]],
                 inflow: np.ndarray | None = None, symmetrized_edge: bool = False):
        _check_stage_lengths(stages)
        if table is not None and table.grid != grid:
            raise ParameterError("kernel table was built on a different grid")
        N = tuple(km.num_points for km in grid.wavenumber)
        if inflow is not None:
            inflow = np.asarray(inflow, float)
            if inflow.shape != N:
                raise ParameterError(f"inflow must have shape {N}, got {inflow.shape}")
        self.grid = grid
        self.stages = stages
        self.orders = _LAYOUTS[grid.ndim_space]
        self.layouts, self.end_layout, kernel_stages = _layouts(stages, grid.ndim_space)
        self.plans = {tau: _sweep_plans(grid, consts, tau, symmetrized_edge)
                      for tau in _transport_lengths(stages)}
        # one block: each kernel stage's multipliers (complex, of its
        # layout's _bins), then the scratch.  Freed at once, it keeps
        # malloc's trim threshold above what a run frees, so the next run or
        # set-up reuses the heap's pages (a cold families2d set-up took about
        # 470 minor faults a config with the 2-D tables allocated one by one,
        # none with the block)
        bins = {key: _bins(grid, key[1]) for key in kernel_stages}
        ends = [0, *itertools.accumulate(2 * math.prod(b) for b in bins.values())]
        size, field = _scratch(grid, bool(self.plans), {at for _, at in kernel_stages},
                               symmetrized_edge)
        block = np.empty(ends[-1] + size)
        self.scratch = block[ends[-1] :]
        self.reading = self.scratch[field:]
        self.mults = {key: _multipliers(table, *key, block[a:b].view(complex).reshape(bins[key]),
                                        self.scratch)
                      for key, a, b in zip(bins, ends, ends[1:])}
        # the spare field buffer (2-D) stays apart: in the block it left the
        # heap top trimmed after a stream2d run, and each cold set-up after
        # it took 178 minor faults (none with it apart)
        self.spare = None
        if self.plans and grid.ndim_space == 1:
            self.spare = np.empty([_split(grid)[a] for a in self.orders[0]])
        self.spectra, self.dfts = {}, {}
        for layout in {at for _, at in kernel_stages}:
            bins = _bins(grid, layout)
            spectrum = self.scratch[: 2 * math.prod(bins)]
            # the real axis, then the complex one: in 2-D the factors of Nk;
            # in 4-D the trailing k axis (k2 in L1, k1 in L2), then the leading
            twiddled = grid.ndim_space == 1
            roots, weights, lead, lead_inv = _dft_matrices(
                *(_factors(N[0]) if twiddled else N[::-1] if layout == 0 else N), twiddled)
            if twiddled:
                # (n2, Re or Im of the H1 bins k1, node), the real products' output
                self.spectra[layout] = spectrum.reshape(len(lead), 2 * bins[0], -1)
                # the real products' (Re, Im) parts as two blocks of H1 bins
                planar = np.concatenate([roots.real, roots.imag], axis=2)
                self.dfts[layout] = (planar.transpose(0, 2, 1).copy(), _real_form(lead),
                                     _real_form(lead_inv).T, planar * np.tile(weights, 2))
            else:
                # (leading k bins, the rest), the shape the DFT along the
                # leading axis reads
                self.spectra[layout] = spectrum.view(complex).reshape(bins[0], -1)
                self.dfts[layout] = (roots[0].view(float), lead, lead_inv,
                                     np.ascontiguousarray((roots[0] * weights).view(float).T))
        self.profiles = (None, None)
        if inflow is not None and self.plans:
            # each layout's inflow as (slices, slab), the shape its sweeps
            # read: the profile broadcast over the x axes the slab holds
            natural = np.broadcast_to(inflow, _split(grid))
            lanes = [natural.transpose(order)[:, 0, 0] for order in self.orders]
            self.profiles = tuple(lane.reshape(len(lane), -1) for lane in lanes)

    def to_work(self, values: np.ndarray) -> np.ndarray:
        """Work layout of a field, always a private copy: the first layout."""
        return _to_work(values, self.grid, self.orders[0])

    def from_work(self, work: np.ndarray) -> np.ndarray:
        """A new natural-layout field from the work field advance() left."""
        return _from_work(work, self.grid, self.orders[self.end_layout])

    def advance(self, work: np.ndarray) -> np.ndarray:
        """Run every stage on a C-contiguous work-layout field (to_work
        gives one) and return the result.

        A 2-D field ends in the caller's array after an even number of
        transports and in the stepper's spare otherwise; the stepper keeps
        the array it does not return as its spare.  A 4-D field, given in
        L1, ends in end_layout in the caller's array: as that array after an
        even number of transports, as a view of it in L2's shape otherwise.
        """
        field = work
        for (kind, tau), layout in zip(self.stages, self.layouts):
            if kind == "A":
                field = self._transport(field, tau, layout)
            else:
                self._kernel(field, tau, layout)
        return work if self.grid.ndim_space == 2 and self.end_layout == 0 else field

    def apply(self, state: WignerState, dt: float = 0.0) -> WignerState:
        """The stages applied to a state, which is left as it is; time moves by dt."""
        values = self.from_work(self.advance(self.to_work(state.values)))
        return WignerState(state.grid, values, state.time + dt)

    def _sweep(self, plan: _SweepPlan, field: np.ndarray, out: np.ndarray, dim: int) -> None:
        shape = field.shape[:3] + (-1,)
        plan.apply(field.reshape(shape), self.profiles[dim], out.reshape(shape), self.reading)

    def _transport(self, work, tau, layout):
        plans = self.plans[tau]
        if self.grid.ndim_space == 1:
            out, self.spare = self.spare, work
            self._sweep(plans[0], work, out, 0)
            return out
        # the dimension this layout leads with into the scratch, then the
        # switch and the other dimension back into the field's array.  The
        # switch reverses all six axes in two passes: the leading axis goes
        # last, then the other five are reversed.  Each pass keeps a
        # contiguous inner run, where a one-pass reversal reads its inner
        # loop with the largest stride (on the fermi4d field 1.4 ms against
        # 3.2 ms, one core of a 2-core x86 host).
        swept = self.scratch[: work.size].reshape(work.shape)
        self._sweep(plans[layout], work, swept, layout)
        staged = work.reshape(work.shape[1:] + work.shape[:1])
        np.copyto(staged, np.moveaxis(swept, 0, -1))
        switched = swept.reshape(work.shape[::-1])
        np.copyto(switched, staged.transpose(4, 3, 2, 1, 0, 5))
        out = work.reshape(work.shape[::-1])
        self._sweep(plans[1 - layout], switched, out, 1 - layout)
        return out

    def _kernel(self, work, tau, layout):
        forward, lead, lead_inv, back = self.dfts[layout]
        spec = self.spectra[layout]
        if self.grid.ndim_space == 1:
            # the field as (N2, N1, M*Q), [n2, n1] holding slice N2*n1 + n2
            N2, N1 = len(forward), forward.shape[2]
            field = work.reshape(N1, N2, -1).transpose(1, 0, 2)
            np.matmul(forward, field, out=spec)
            # the complex DFT along n2, the multiply and the inverse cannot run
            # in place: they go through the spent field, half of the columns
            # (k1, node) at a time, each half's bins as (Re, Im) pairs along k2
            # (the larger half, 2*N2*ceil(H1/2) entries a node, fits in the
            # field's N1*N2 a node: N1 >= 4)
            columns = spec.reshape(2 * N2, -1)  # rows (n2, Re or Im)
            cut = len(self.mults[tau, layout]) // 2 * spec.shape[2]
            mults = self.mults[tau, layout].reshape(-1, N2)  # rows (k1, node), as the columns
            for cols in (slice(0, cut), slice(cut, None)):
                part = columns[:, cols]
                through = work.reshape(-1)[: part.size].reshape(part.shape[::-1])
                np.matmul(part.T, lead, out=through)
                bins = through.view(complex)
                bins *= mults[cols]
                np.matmul(lead_inv, through.T, out=part)
            np.matmul(back, spec, out=field)
            return
        # the products along the trailing k axis as a stack over the leading
        # (k, m) pairs, (q*q*m, k) blocks each, which BLAS runs faster than
        # one flat (points/k, k) product
        rows = work.reshape(work.shape[0] * work.shape[1], -1, work.shape[-1])
        bins = spec.view(float).reshape(len(rows), -1, forward.shape[1])  # (Re, Im) of each bin
        np.matmul(rows, forward, out=bins)
        mults = self.mults[tau, layout].reshape(spec.shape)
        # the leading-axis DFT, multiply and inverse cannot run in place: they
        # go through the spent field, half of the columns at a time (half a
        # spectrum is (Nk/2 + 1)/Nk of a field, Nk >= 4, so it fits)
        cut = spec.shape[1] // 2
        for cols in (slice(0, cut), slice(cut, None)):
            part = spec[:, cols]
            through = work.reshape(-1)[: 2 * part.size].view(complex).reshape(part.shape)
            np.matmul(lead, part, out=through)
            through *= mults[:, cols]
            np.matmul(lead_inv, through, out=part)
        np.matmul(bins, back, out=rows)


# The benchmark's layer trace still names the class _Stepper2D and the
# builder _multipliers_half_4d; the aliases go away with the next change to
# the benchmark.
_Stepper2D = _Stepper
_multipliers_half_4d = _multipliers


def advect(
    state: WignerState,
    consts: PhysicalConstants,
    tau: float,
    inflow: np.ndarray | None = None,
    symmetrized_edge: bool = False,
) -> WignerState:
    """Exact transport sub-flow over a signed stage length tau.

    Departure points outside the domain read 0 by default.  A prescribed
    inflow replaces that: shape (Nk,) in 2-D phase space, (Nk1, Nk2) in 4-D
    (a position-independent reservoir profile).  symmetrized_edge averages
    the two periodic-endpoint readings of the unpaired k_min slice, which
    makes the discrete evolution exactly parity- and quarter-turn
    equivariant at the cost of a first-order perturbation of that slice.
    """
    stepper = _Stepper(state.grid, None, consts, [("A", tau)], inflow, symmetrized_edge)
    return stepper.apply(state)


def apply_kernel(state: WignerState, table: KernelTable, tau: float) -> WignerState:
    """Exact flow of the truncated pseudo-differential sub-equation."""
    return _Stepper(state.grid, table, None, [("B", tau)]).apply(state)


def step(
    state: WignerState,
    table: KernelTable,
    consts: PhysicalConstants,
    dt: float,
    scheme: str,
    inflow: np.ndarray | None = None,
    symmetrized_edge: bool = False,
) -> WignerState:
    """One composed time step of a named scheme; advances state.time by dt."""
    stepper = _Stepper(state.grid, table, consts, _stage_sequence(scheme, dt), inflow,
                       symmetrized_edge)
    return stepper.apply(state, dt)


def _spatial_dims(potential) -> int:
    return 2 if isinstance(potential, MultiDeltaPotential2D) else 1


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Everything needed for one reproducible run, passed by keyword.

    The defaults here are the only ones: a config file that leaves a key out
    gets its field's default.  Each string field takes one of its
    NAMED_SETTINGS values.  The potential fixes spatial_dims, which is a
    property, not a field.  initial is one GaussianPacketSpec (the same
    packet along every dimension) or, in 4-D, a FermiDiracSpec; both kinds
    of data use consts, as the transport and the kernel do.  Construction
    runs every check of evolve but the machine-dependent 4-D memory budget;
    that includes a symmetric wavenumber domain for the symmetrized edge.
    """

    x_lo: float
    x_hi: float
    num_elements: int
    points_per_element: int
    k_min: float = -math.pi
    k_max: float = math.pi
    num_modes: int
    potential: object
    initial: object
    dt: float
    t_final: float
    consts: PhysicalConstants = PhysicalConstants()
    snapshot_times: tuple[float, ...] = ()
    n_uniform: int = 600
    scheme: str = "yoshida4"
    kernel_route: str = "exact"
    inflow: str = "zero"
    edge_transport: str = "one_sided"

    def __post_init__(self):
        if not self.dt > 0 or not math.isfinite(self.dt):
            raise ParameterError(f"dt must be positive and finite, got {self.dt!r}")
        if not self.t_final >= 0 or not math.isfinite(self.t_final):
            raise ParameterError(f"t_final must be nonnegative and finite, got {self.t_final!r}")
        _step_index(self.t_final, self.dt, "t_final")
        if self.n_uniform < 1:
            raise ParameterError(f"N_um must be positive, got {self.n_uniform!r}")
        for name, names in NAMED_SETTINGS.items():
            _check_named(name, getattr(self, name), names)
        _snapshot_steps(self)
        _check_stage_lengths(_stage_sequence(self.scheme, self.dt))
        if self.kernel_route == "poisson":
            check_poisson_route(self.potential)
        if not isinstance(self.initial, (observables.GaussianPacketSpec,
                                         observables.FermiDiracSpec)):
            raise ParameterError(
                f"initial must be a GaussianPacketSpec or a FermiDiracSpec, got {self.initial!r}"
            )
        if isinstance(self.initial, observables.FermiDiracSpec) and self.spatial_dims != 2:
            raise ParameterError("Fermi-Dirac initial data needs spatial_dims = 2")
        grid = self.build_grid()  # a grid that cannot be built fails here, not mid-run
        if self.kernel_route == "exact":
            check_exact_route(self.potential, grid)
        if self.edge_transport == "symmetrized":
            for km in grid.wavenumber:
                _edge_slice(km)

    @property
    def spatial_dims(self) -> int:
        """2 for the planar multi-delta potential, else 1."""
        return _spatial_dims(self.potential)

    def build_grid(self) -> PhaseSpaceGrid:
        xm = build_spatial_mesh(self.x_lo, self.x_hi, self.num_elements, self.points_per_element)
        km = build_wavenumber_mesh(self.k_min, self.k_max, self.num_modes)
        if self.spatial_dims == 1:
            return PhaseSpaceGrid.plane(xm, km)
        return PhaseSpaceGrid.tensor4d(xm, xm, km, km)  # meshes are immutable

    def build_table(self, grid: PhaseSpaceGrid) -> KernelTable:
        if self.kernel_route == "poisson":
            return poisson_kernel_coefficients(self.potential, grid, self.consts)
        return kernel_coefficients(self.potential, grid, self.consts)


# ----------------------------------------------------------------------
# full evolution
# ----------------------------------------------------------------------

def _step_index(t: float, dt: float, what: str) -> int:
    """Number of steps of length dt that end at time t, which must lie on the step lattice."""
    s = round(t / dt)
    if abs(s * dt - t) > 1e-9 + 1e-12 * abs(t):
        raise ParameterError(f"{what} {t} is not on the step lattice of dt = {dt}")
    return s


def _snapshot_steps(config: SimulationConfig) -> dict[int, float]:
    """Step index of each snapshot time, which must lie on the step lattice in [0, t_final]."""
    out: dict[int, float] = {}
    for t in config.snapshot_times:
        if not 0.0 <= t <= config.t_final:
            raise ParameterError(f"snapshot time {t} outside [0, t_final]")
        out[_step_index(t, config.dt, "snapshot time")] = t
    return out


def _working_set_4d(config: SimulationConfig, grid: PhaseSpaceGrid) -> float:
    """Estimated peak bytes of a 4-D run: the table and what the stepper owns.

    The real kernel table over the L1 half spectrum (8 B a bin); one complex
    multiplier table (16 B a bin of its layout's half spectrum) per distinct
    kernel stage length and layout; the work field; and the stepper's
    scratch (_scratch).  A quarter more covers the rest.
    """
    stages = _stage_sequence(config.scheme, config.dt)
    _, _, kernel_stages = _layouts(stages, 2)
    layouts = [layout for _, layout in kernel_stages]
    bins = [math.prod(_bins(grid, layout)) for layout in (0, 1)]  # the half spectra
    scratch, _ = _scratch(grid, bool(_transport_lengths(stages)), set(layouts),
                          config.edge_transport == "symmetrized")
    tables = sum(16 * bins[layout] for layout in layouts)
    return 1.25 * (8 * bins[0] + tables + 8 * math.prod(grid.shape) + 8 * scratch)


def evolve(config: SimulationConfig):
    """Run a simulation in 2-D or 4-D phase space; returns (snapshots, series).

    In 2-D the snapshots are WignerStates and the series holds every
    uniform-mesh observable.  In 4-D a snapshot is a pair (t, spatial
    marginal) and the series holds the total mass.  A field that stops being
    finite, or whose moments the record step refuses, raises DivergenceError
    carrying the series recorded so far.
    """
    grid = config.build_grid()
    if config.spatial_dims == 2:
        need = _working_set_4d(config, grid)
        if need > MEMORY_BUDGET_BYTES:
            raise CapacityError(
                f"estimated working set {need/1e9:.2f} GB exceeds the memory budget"
            )
    table = config.build_table(grid)
    consts = config.consts
    values = observables._initial_state(grid, config.initial, consts).values
    series = observables.ObservableSeries()
    snapshots: list = []
    n_steps = _step_index(config.t_final, config.dt, "t_final")
    snap_at = _snapshot_steps(config)

    # reservoir inflow: the wavenumber profile of the initial data feeds the
    # inflow boundaries (averaged over x in 2-D; 4-D data are uniform in x)
    background = values.mean(axis=0) if config.spatial_dims == 1 else values[0, 0].copy()
    # the field is held once, in the first work layout, and read there; a
    # step-less 4-D run reads its initial data as they are (a read-only
    # Fermi-Dirac broadcast stays one), never copied
    order = None if config.spatial_dims == 2 and not n_steps else _LAYOUTS[grid.ndim_space][0]
    work = values if order is None else _to_work(values, grid, order)
    # record(t, work) returns a sum over every entry of the field, read from
    # its k-sums (the 2-D record's unweighted row, the 4-D marginal), and in
    # 4-D the marginal, which a snapshot of that step reuses; it appends a
    # row only if that sum is finite.  A sum is finite only if every entry
    # is, and a sum of finite entries that overflows is divergence too
    if config.spatial_dims == 1:
        quad = observables.UniformMeshQuadrature(grid, config.n_uniform)

        def record(t, work):
            return quad.append_row_from_work(series, t, work, consts), None

        def snapshot(t, work, marginal):
            return WignerState(grid, _from_work(work, grid, order), t)
    else:
        weights = tuple(observables._cc_x_weights(mesh) for mesh in grid.spatial)

        def record(t, work):
            with np.errstate(over="ignore", invalid="ignore"):
                marginal = observables._marginal(work, grid, order)
                total = float(marginal.sum())
            if math.isfinite(total):
                series.append(t=t, total_mass=observables._mass(marginal, weights))
            return total, marginal

        def snapshot(t, work, marginal):
            return t, marginal

    # the work layout is the field from here on, and the stepper's tables and
    # scratch are built without the natural layout alive
    del values
    stepper = _Stepper(
        grid, table, consts,
        _stage_sequence(config.scheme, config.dt) if n_steps else [],
        background if config.inflow == "background" else None,
        config.edge_transport == "symmetrized",
    )
    for i in range(n_steps + 1):
        if i:
            work = stepper.advance(work)
        if i == n_steps:
            # the stepper's tables and buffers are spent: dropping them lowers
            # the peak of the final record and snapshot, and in 4-D frees the
            # block before the field, which lies below it on the heap.  Freed
            # last, the field leaves malloc a heap top below its trim threshold,
            # so the next run reuses those pages (a warm fermi4d run: about
            # 1 840 minor faults, about 2 350 with the block freed last)
            del stepper
        try:
            total, marginal = record(i * config.dt, work)
        except DomainError as err:
            raise DivergenceError(f"unphysical field after step {i}: {err}", series) from err
        if not math.isfinite(total):
            raise DivergenceError(f"non-finite field after step {i}", series)
        if i in snap_at or i == n_steps and not snap_at:
            snapshots.append(snapshot(i * config.dt, work, marginal))
        del marginal  # not held through the next step
    return snapshots, series


def evolve_4d(config: SimulationConfig):
    """Run a 4-D phase-space simulation (see evolve); snapshots hold the spatial marginal."""
    if config.spatial_dims != 2:
        raise ParameterError("evolve_4d needs spatial_dims = 2")
    return evolve(config)
