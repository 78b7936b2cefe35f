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
conversions (_to_work, _from_work), one stage plan (_block: the layout each
stage finds, the multiplier tables and the stepper's one block, from one
pass over the stages), one multiplier builder (_multipliers, over the
spectrum shape _bins of a layout, from one signed gather of the table,
_table_rows) and one DFT matrix builder (_dft_matrices) serve both
dimensions.  Per dimension stay the transport's layout switch, the kernel
substep's product form, and the record: a 2-D record is two products
against the observables' functionals (observables.UniformMeshQuadrature), a
4-D one the spatial marginal and its mass (observables._marginal and _mass).
Either reads the field where it lies, in the work layout or, in a step-less
run, the initial data in their natural layout, and also sums every entry of
the field, which is evolve's finiteness check.

One stepper (_Stepper) runs the stages.  It takes the sweep plans of each
distinct transport length and the DFT matrices of each kernel layout from
the package's cache of grid-derived values (kernels._cached), so runs that
share a grid, constants, stage lengths and edge share them, read-only.  It
builds for itself only what depends on its table or its field: the
multiplier tables of each distinct kernel stage length, the inflow
profiles, and every buffer the stages use but the field's own: no stage
allocates.  A stepped field, in either dimension, heads a flat buffer of
the stepper's room floats (_block; _to_work makes one) and runs in that
buffer and the stepper's scratch.  A 2-D transport sweeps the field from
the one into the other, and a kernel substep writes its spectrum into the
one it is not in; a 4-D field has room 0, as it switches layouts once per
transport and always stays in its own buffer.  Both kernel substeps are
four matrix products against the DFT matrices of their layout
(_dft_matrices), the multiply between the middle two; no np.fft call is
left.  In 2-D they factor the k axis, N_k = N1*N2 (Bailey's four-step
FFT); in 4-D they run along the layout's trailing k axis (rfft) and its
leading one (complex).  At these sizes (N_k = 16 to 128) BLAS runs the
transforms faster than pocketfft, which transforms one lane at a time.
evolve drives a run in either dimension with one stepper, dropped before
the final record and snapshot; advect, apply_kernel and step build a
stepper for a single call and leave their input state as it is.

The stepper keeps one memo: the numpy calls its stages make, in order, as
one list of (function, operands), every in-place write an explicit out=
call and every operand a view bound when the memo is recorded.  It records
the memo on the first step of a field's buffer, drops it when handed a
field in another buffer, and replays it on every other step, so a warm
step builds no view, does no index arithmetic and swaps no buffer.  A
sweep's calls are its own memo, which _SweepPlan.apply fills on the first
step and replays on the later ones; every sweep enters through it.  A
symmetrized sweep spends its source, and its memo writes the mirrored
reading into slice edge + 1 only after the run that reads that slice.
"""

from __future__ import annotations

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
    _check_count,
    _check_real,
    _split,
    build_spatial_mesh,
    build_wavenumber_mesh,
)
from .kernels import (
    KernelTable,
    MultiDeltaPotential2D,
    PhysicalConstants,
    _cached,
    check_route,
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

# a run whose estimated working set (_working_set) exceeds this many bytes
# is refused before its table is built
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
    follows the Nk slices, with its own matrix and one more run, the last,
    which writes into slice edge + 1 of the spent source.
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

    def apply(self, work: np.ndarray, inflow: np.ndarray | None, out: np.ndarray,
              calls: list) -> np.ndarray:
        """The field work, (Nk, M, Q, R), shifted into out; returns out.

        inflow, if not None, holds the (Nk, R) values read by departure
        points outside the domain; otherwise those points read 0.  out is a
        C-contiguous buffer of work's shape that shares no memory with it.
        With the symmetrized edge the mirrored slice's reading overwrites
        slice edge + 1 of work, which that slice's run has already read:
        work is spent.

        A sweep is a sequence of numpy calls, (function, operands), every
        in-place write an explicit out= call, every operand a view of work,
        inflow, out or the plan's matrices; the calls run in order, so the
        mirrored reading still follows the run that spends slice edge + 1.
        calls is the caller's memo of them, bound to these arrays: an empty
        list is filled and then run; a filled one is only run, with no view
        built and no index arithmetic, and must be given the arrays it was
        filled with, out among them.
        """
        Nk = self.num_slices
        if work.shape[0] != Nk:
            raise ParameterError(f"sweep plan holds {Nk} slices, field has {work.shape[0]}")
        if not calls:
            calls += self._calls(work, inflow, out)
        for fn, args in calls:
            fn(*args)
        return out

    def _calls(self, work: np.ndarray, inflow: np.ndarray | None, out: np.ndarray):
        """Yield apply's calls on these arrays, in order."""
        runs = self.runs
        e = self.edge
        if e is not None:
            *runs, mirror = runs
        for start, stop, n, m0 in runs:
            yield from _shift_run(self.matrices[start:stop], work[start:stop], out[start:stop],
                                  n, m0, None if inflow is None else inflow[start:stop])
        if e is not None:
            reading = work[e + 1 : e + 2]
            start, _, n, m0 = mirror
            yield from _shift_run(self.matrices[start:], work[e : e + 1], reading, n, m0,
                                  None if inflow is None else inflow[e : e + 1])
            yield np.add, (out[e], reading[0], out[e])
            yield np.multiply, (out[e], 0.5, out[e])


def _shift_run(matrices: np.ndarray, work: np.ndarray, out: np.ndarray, n: int, m0: int,
               inflow: np.ndarray | None):
    """Yield, as (function, operands), the numpy calls that write K slices
    of work, (K, M, Q, R), that share (n, m0) into out: row m of target
    element q is matrices[:, m] times source element q - n for m >= m0,
    q - n - 1 below, or the (K, R) inflow (0 without) where that element
    lies outside [0, Q).

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
            yield np.copyto, (out[:, :, lo:hi], work[:, :, lo - n : hi - n])
        if lo > 0:
            yield np.copyto, (out[:, :, :lo], fill)
        if hi < Q:
            yield np.copyto, (out[:, :, hi:], fill)
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
            yield np.matmul, (matrices[:, rows], source[:, :, (lo - shift) * R : (hi - shift) * R],
                              target[:, rows, lo * R : hi * R])
        if lo > first:
            yield np.copyto, (out[:, rows, first:lo], fill)
        if hi < end:
            yield np.copyto, (out[:, rows, hi:end], fill)
    # the shared row, from the group that wrote it.  numpy first copies the
    # whole source when its extent overlaps the target's; one slice at a
    # time the two rows' extents are disjoint, and at R = 1 the whole source
    # is only K*Q floats
    lower, upper = target[:, 0, R:], target[:, M - 1, :-R]
    into, read = (upper, lower) if upper_shared else (lower, upper)
    for pair in zip(into, read) if R > 1 else ((into, read),):
        yield np.copyto, pair


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
    """One sweep plan per spatial dimension for the stage length tau.

    Each comes from the package's cache of grid-derived values
    (kernels._cached), keyed by what fixes its matrices: the spatial and
    wavenumber meshes, the constants (v = hbar k/m reads both), tau and the
    edge slice.  Runs that share those share the plan, read-only, and so do
    two dimensions with equal meshes."""
    def plan(mesh: SpatialMesh, km: WavenumberMesh) -> _SweepPlan:
        edge = _edge_slice(km) if symmetrized_edge else None
        return _cached(("sweep plan", mesh, km, consts, tau, edge), lambda: _SweepPlan(
            mesh, consts.hbar * km.collocation_k / consts.mass, tau, edge))
    return tuple(plan(mesh, km) for mesh, km in zip(grid.spatial, grid.wavenumber))


# The work layouts, as axis orders of the natural field split per element
# (grid._split).  In 2-D, of (q, m, k): the one layout (k, m, q).  In 4-D, of
# (q1, m1, q2, m2, k1, k2): L1 = (k1, m1, q1, q2, m2, k2) leads with x1 and
# its slices, L2 = (k2, m2, q2, q1, m1, k1) with x2; each is the other with
# its axes reversed.  A spectrum has the axes of its field.
_LAYOUTS = {1: ((2, 1, 0),), 2: ((4, 1, 0, 2, 3, 5), (5, 3, 2, 0, 1, 4))}


def _to_work(values: np.ndarray, grid: PhaseSpaceGrid, order: tuple[int, ...],
             length: int = 0) -> np.ndarray:
    """A natural-layout field in the work layout order, always a private copy,
    at the head of a new flat buffer of at least length floats (the room
    _block gives)."""
    split = _split(grid)
    work = np.empty(max(length, values.size))[: values.size].reshape([split[a] for a in order])
    np.copyto(work, values.reshape(split).transpose(order))
    return work


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


def _table_rows(table: KernelTable, layout: int, rows: np.ndarray) -> np.ndarray:
    """s on every bin of the spectrum a kernel substep multiplies in a layout
    (_bins(table.grid, layout)), written into rows, a float array of that
    shape, and returned.  The table stores nu >= 0 along its last axis; a bin
    of negative nu reads s(-nu) = -s(nu).  Every Nyquist bin holds 0, so its
    phase is 0.

    In 2-D the rows are gathered one k2 at a time, as s(nu) at nu = k1 +
    N1*k2 with s(N_k - nu) negated beyond N_k/2, reading the table in its
    storage order.  In 4-D, L1 is one transposed copy of the table; L2
    copies the rows of nu2 <= Nk2/2 and negates each other row nu2 from the
    table's row Nk2 - nu2 at -nu1: bin 0, then Nk1 - 1 down to Nk1/2."""
    split = _split(table.grid)
    if table.grid.ndim_space == 1:
        Q, M, N = split
        N1, N2 = _factors(N)
        H1 = N1 // 2 + 1
        s = table.multipliers.reshape(Q, M, -1)  # (q, m, nu)
        for k2 in range(N2):
            lo = N1 * k2
            stored = min(max(N // 2 + 1 - lo, 0), H1)  # the k1 with nu <= N_k/2
            into = rows[..., k2]  # (k1, m, q)
            np.copyto(into[:stored], s[..., lo : lo + stored].transpose(2, 1, 0))
            np.negative(s[..., N - lo - stored : N - lo - H1 : -1].transpose(2, 1, 0),
                        out=into[stored:])
            if 0 <= N // 2 - lo < H1:
                into[N // 2 - lo] = 0.0  # the Nyquist bin
        return rows
    # (nu1, ..., nu2) in L1, (nu2, ..., nu1) in L2
    s = table.multipliers.reshape(split[:5] + (-1,)).transpose(_LAYOUTS[2][layout])
    stored, trail = len(s), rows.shape[-1]
    np.copyto(rows[:stored], s[..., :trail])
    # row j >= stored (L2 only) reads the table's row len(rows) - j
    mirrored = s[len(rows) - stored : 0 : -1]
    np.negative(mirrored[..., :1], out=rows[stored:, ..., :1])
    np.negative(mirrored[..., : trail - 2 : -1], out=rows[stored:, ..., 1:])
    # the Nyquist planes: the whole middle row and every row's last bin
    rows[len(rows) // 2] = 0.0
    rows[..., -1] = 0.0
    return rows


def _multipliers(table: KernelTable, tau: float, layout: int, out: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """exp(i tau s_nu) on the spectrum a kernel substep multiplies in a
    layout, written into out (complex, contiguous, of shape _bins) and
    returned.  s on every bin (_table_rows) goes to the head of scratch,
    and two work rows of one leading bin's size right after it: each
    leading bin's row of s is scaled to the half angle tau s/2 in the
    first, and _phasor writes exp(i tau s) through the second.  scratch
    holds prod(bins) + 2*prod(bins[1:]) floats or more, which a spectrum's
    2*prod(bins) is, as bins[0] >= 2.  No table-sized temporary exists."""
    n, size = out.size, math.prod(out.shape[1:])
    rows = _table_rows(table, layout, scratch[:n].reshape(out.shape))
    t, d = scratch[n : n + size], scratch[n + size : n + 2 * size]
    half = 0.5 * tau
    # flat, each ufunc sets up one loop, not one per axis
    for row, s in zip(out, rows):
        np.multiply(s.reshape(-1), half, out=t)
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


def _dft_matrices(grid: PhaseSpaceGrid, layout: int) -> tuple[np.ndarray, ...]:
    """The four matrices a kernel substep in a layout multiplies by (_kernel):
    forward, lead, lead_inv and back.

    The substep transforms an n_real-point axis by real products and an
    n_complex-point axis by complex ones.  roots, (S, n_real, H) with H =
    n_real/2 + 1, holds per shift n2 < S the map of n_real real samples to H
    bins; weights, (H,), are the c2r weights over n_real that map them back:
    bins 0 and n_real/2 count once, every other bin twice, as its own
    conjugate partner.  lead and lead_inv are the complex n_complex-point DFT
    and its inverse.  In 4-D the real axis is the layout's trailing k axis
    (k2 in L1, k1 in L2), the complex one its leading k axis; S = 1 and roots
    is the rfft matrix of its axis.  In 2-D the two axes are the factors of
    the one N_k = n_real*n_complex point axis (_factors), sample k =
    n_complex*n1 + n2 and bin nu = k1 + n_real*k2 (Bailey's four-step FFT):
    S = n_complex, and roots[n2, n1, k1] = exp(-2 pi i k1 k / N_k) carries
    the twiddle.  The 2-D matrices act on (Re, Im) parts as real ones: the
    real products' output holds the H bins' Re and Im parts as two blocks.
    """
    n_real, n_complex, stride = _dft_axes(grid, layout)
    twiddled = grid.ndim_space == 1
    n = n_real * stride
    samples = stride * np.arange(n_real)[:, None] + np.arange(stride)[:, None, None]
    phase = samples * np.arange(n_real // 2 + 1) % n
    roots = np.exp(-2j * np.pi * phase / n)
    roots.imag[2 * phase % n == 0] = 0.0  # the roots +-1 exactly
    del samples, phase  # freed before the returned matrices, at a run's peak
    weights = np.full(roots.shape[-1], 2.0 / n_real)
    weights[0] = 1.0 / n_real
    if n_real % 2 == 0:
        weights[-1] = 1.0 / n_real  # the Nyquist bin
    a = np.arange(n_complex)
    lead = np.exp(-2j * np.pi * (np.outer(a, a) % n_complex) / n_complex)
    lead_inv = lead.conj() / n_complex
    if twiddled:
        # the (Re, Im) row blocks of forward and column blocks of back,
        # written from roots' parts with no planar copy
        S, _, H = roots.shape
        forward, back = np.empty((S, 2 * H, n_real)), np.empty((S, n_real, 2 * H))
        for i, part in enumerate((roots.real, roots.imag)):
            np.copyto(forward[:, i * H : (i + 1) * H], part.transpose(0, 2, 1))
            np.multiply(part, weights, out=back[..., i * H : (i + 1) * H])
        return forward, _real_form(lead), _real_form(lead_inv).T, back
    return (roots[0].view(float), lead, lead_inv,
            np.ascontiguousarray((roots[0] * weights).view(float).T))


def _dft_axes(grid: PhaseSpaceGrid, layout: int) -> tuple[int, int, int]:
    """(n_real, n_complex, S) of a kernel substep in a layout (_dft_matrices)."""
    N = tuple(km.num_points for km in grid.wavenumber)
    if grid.ndim_space == 1:
        n_real, n_complex = _factors(N[0])
        return n_real, n_complex, n_complex
    return (*(N[::-1] if layout == 0 else N), 1)


def _dft_floats(grid: PhaseSpaceGrid, layout: int) -> int:
    """Floats at the peak of _dft_matrices(grid, layout): four arrays of
    roots' size, S x n_real x H complex entries (in 2-D roots, forward, back
    and the temporaries of roots' build), and 16 n_complex^2 for lead,
    lead_inv, their real forms and temporaries."""
    n_real, n_complex, stride = _dft_axes(grid, layout)
    return 8 * stride * n_real * (n_real // 2 + 1) + 16 * n_complex ** 2


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
    """The stages of one step, A(t/2) B(t) A(t/2) per weight t = w*dt with
    adjacent transports fused: A(w0*dt/2), then per weight w, whose successor
    is nxt (0.0 after the last), B(w*dt) and A(w*dt/2 + nxt*dt/2)."""
    _check_named("scheme", scheme, SCHEMES)
    weights = SCHEMES[scheme]
    stages = [("A", 0.5 * weights[0] * dt)]
    for w, nxt in zip(weights, weights[1:] + (0.0,)):
        stages += [("B", w * dt), ("A", 0.5 * w * dt + 0.5 * nxt * dt)]
    return stages


def _check_stage_lengths(stages: list[tuple[str, float]]) -> None:
    for kind, tau in stages:
        if not math.isfinite(tau):
            raise ParameterError(f"stage length {tau} fs is not finite")
        if kind == "A" and abs(tau) > MAX_STAGE_FS:
            raise ParameterError(f"stage length {tau} fs exceeds the configured bound")


def _block(grid: PhaseSpaceGrid, stages: list[tuple[str, float]]):
    """Everything that follows from a stage list, in one pass over it: the
    layout (an index into _LAYOUTS[ndim]) in which each stage finds a field
    that starts in the first, the layout the last stage leaves, and the
    stepper's one block of floats, each kernel stage's multiplier table
    (complex, of its layout's _bins), then the scratch.  Every 4-D transport
    switches L1 and L2; 2-D has one layout.  A step of every scheme has an
    even number of transports, so a step starts and ends in the first
    layout.

    Returns (layouts, end layout, tables, scratch start, block length,
    room), the tables as {(length, layout): (slice, _bins)}, one per
    distinct kernel stage length and layout, in order of first use.  The
    room is the length of the flat buffer that a field in the first layout
    heads (_to_work makes one): in 2-D the scratch's, with which it trades
    places at each transport; in 4-D 0, as the field stays in its own
    buffer.
    With transports the scratch holds a field: in 4-D the one a transport's
    first sweep writes, in 2-D the one a sweep writes there.  It also holds
    the spectrum of every kernel layout (_bins, complex), and so, while a
    table is built, s on every bin at its head and the two work rows
    _multipliers takes right after it.  A 2-D spectrum, 2*N2*(N1/2 + 1)*M*Q
    floats, outgrows a field by at least 2*N2*M*Q floats."""
    layouts, layout, tables, start, field = [], 0, {}, 0, 0
    for kind, tau in stages:
        layouts.append(layout)
        if kind == "A":
            layout = (layout + 1) % len(_LAYOUTS[grid.ndim_space])
            field = math.prod(grid.shape)
        elif (tau, layout) not in tables:
            bins = _bins(grid, layout)
            tables[tau, layout] = (slice(start, start + 2 * math.prod(bins)), bins)
            start += 2 * math.prod(bins)
    spectra = (2 * math.prod(bins) for _, bins in tables.values())
    length = start + max([field, *spectra])
    return layouts, layout, tables, start, length, length - start if grid.ndim_space == 1 else 0


def _head_of(work: np.ndarray, length: int) -> np.ndarray | None:
    """The flat buffer of at least length floats whose head the C-contiguous
    field work is, as _to_work lays it out, else None.  work lies within its
    base, so it starts there exactly when it misses the base's tail past its
    own size."""
    base = work.base
    if (isinstance(base, np.ndarray) and base.ndim == 1 and len(base) >= length
            and work.flags.c_contiguous and not np.may_share_memory(work, base[work.size :])):
        return base
    return None


class _Stepper:
    """A fixed sequence of stages: transports ("A") and kernel substeps ("B").

    Each distinct transport length's sweep plans (_sweep_plans) and each
    kernel layout's DFT matrices (_dft_matrices) come from the package's
    cache of grid-derived values (kernels._cached), keyed by what fixes them,
    so the steppers of runs on one grid with equal constants, stage lengths
    and edge share them, read-only; clear_table_cache drops them.  What
    depends on the table or the field is built here, once per stepper: each
    distinct kernel stage length's half-spectrum multipliers, the inflow
    profiles and every buffer the stages use, so no stage allocates, in 2-D
    or in 4-D.  table may be None without kernel stages, consts without
    transport stages.

    The work layouts are _LAYOUTS[ndim] (orders).  One pass over the stages
    (_block) gives the layout stage i finds the field in, orders[layouts[i]],
    the one advance() leaves it in, orders[end_layout], the room of the
    field's buffer, and the stepper's one block: every kernel stage's
    multipliers, one table per (stage length, layout) over that layout's
    spectrum (_bins, _multipliers), and then the scratch.  apply() converts
    through the layouts.  The inflow profiles and the DFT matrices are read
    per layout alike in both dimensions.

    A field lies at the head of a flat buffer of room floats, as
    _to_work(..., room) makes one; advance() takes no other.  Its buffer and
    the scratch are the stepper's two buffers, and a transport that leaves
    the field in the other one swaps them.  The 2-D work layout is (Nk, M,
    Q), so that every sweep runs along the leading axis: a transport sweeps
    the field into the other buffer, and a kernel substep writes its
    spectrum into the one the field is not in and runs its middle products
    through the spent field.  A step, with an even number of transports,
    leaves the field in the buffer it came in.  A 4-D field, room 0, is in
    L1 or L2, and advance() takes it in L1: a transport sweeps the dimension
    its layout leads with into the scratch, switches layouts back into the
    field's buffer in two passes, the second into the scratch, and sweeps
    the other dimension back into the field's buffer, which then holds the
    other layout, so the field always stays in its own buffer.  A kernel
    substep overwrites the field through the spectrum, which the scratch
    holds.  The stepper also owns the inflow profiles, broadcast over each
    sweep's slabs.  Without stages its block is empty.

    A kernel substep keeps one product form per dimension (_kernel): the
    2-D spectrum, (N2, 2*H1, M*Q) for the factors Nk = N1*N2 (_factors), H1
    = N1/2 + 1, holds the (Re, Im) parts of its H1 bins as two blocks of
    rows; the 4-D half spectrum holds (Re, Im) column pairs that a complex
    view reads as the rfft.

    memo is the one list of (function, operands) calls every stage makes,
    in order, each operand a view bound when the memo is recorded: of the
    field's buffer (held), the scratch, the multiplier tables, the inflow
    profiles, the plans' matrices and the DFT matrices.  A transport adds
    each sweep as one call of _sweep with the sweep's own memo, which
    _SweepPlan.apply fills on the first step; a 4-D transport also adds the
    two copies of its layout switch.  A sweep with the symmetrized edge
    spends its source, and its memo keeps the mirrored reading after the
    run that reads slice edge + 1.  advance() records the memo (_record) on
    its first call and again, dropping the old one, whenever the field
    comes in another buffer; every other call replays it.  A step-less run
    records none.  The memo holds no reference to the stepper, so dropping
    it frees its block at once.
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
        self.plans = {tau: _sweep_plans(grid, consts, tau, symmetrized_edge)
                      for tau in dict.fromkeys(tau for kind, tau in stages if kind == "A")}
        # one block (_block).  Freed at once, it keeps malloc's trim
        # threshold above what a run frees, so the next run or set-up reuses
        # the heap's pages (a cold families2d set-up took about 470 minor
        # faults a config with the 2-D tables allocated one by one, none with
        # the block)
        self.layouts, self.end_layout, tables, start, length, self.room = _block(grid, stages)
        block = np.empty(length)
        self.scratch = block[start:]
        self.mults = {key: _multipliers(table, *key, block[at].view(complex).reshape(bins),
                                        self.scratch)
                      for key, (at, bins) in tables.items()}
        self.dfts = {layout: _cached(("dft matrices", grid, layout),
                                     lambda: _dft_matrices(grid, layout))
                     for layout in {at for _, at in tables}}
        self.profiles = (None, None)
        if inflow is not None and self.plans:
            # each layout's inflow as (slices, slab), the shape its sweeps
            # read: the profile broadcast over the x axes the slab holds
            natural = np.broadcast_to(inflow, _split(grid))
            lanes = [natural.transpose(order)[:, 0, 0] for order in self.orders]
            self.profiles = tuple(lane.reshape(len(lane), -1) for lane in lanes)
        # the memo, none until advance() records it (held: the buffer it is
        # bound to)
        self.held = self.memo = self.end = None

    def advance(self, work: np.ndarray) -> np.ndarray:
        """Run every stage on a C-contiguous field in the first work layout
        and return the result.

        The field must head a flat buffer of room floats that lies outside
        the scratch, as _to_work(..., room) makes one; any other is refused.
        A 2-D field runs in that buffer and the scratch and ends in that
        buffer after an even number of transports, in the scratch otherwise.
        A 4-D field, given in L1, ends in end_layout in its own buffer.  The
        result is work itself when it ends in the first layout in work's
        memory, else a view of the buffer it ends in.

        Both checks run on every call.  The memo is recorded on the first
        call and on every call that hands in a field in another buffer,
        which drops the old one; every other call replays it, in its
        recorded order, on the views it bound, so a symmetrized sweep still
        reads slice edge + 1 of its source before it writes the mirrored
        reading there.
        """
        held = _head_of(work, self.room)
        if held is None or np.may_share_memory(held, self.scratch):
            raise ParameterError(f"a field must head a buffer of room = {self.room}"
                                 " floats outside the stepper's scratch")
        if held is not self.held:
            self.memo, self.end = self._record(work, held)
            self.held = held
        for fn, args in self.memo:
            fn(*args)
        return work if self.end is None else self.end

    def apply(self, state: WignerState, dt: float = 0.0) -> WignerState:
        """The stages applied to a state, which is left as it is; time moves by dt."""
        work = self.advance(_to_work(state.values, self.grid, self.orders[0], self.room))
        values = _from_work(work, self.grid, self.orders[self.end_layout])
        return WignerState(state.grid, values, state.time + dt)

    def _record(self, work: np.ndarray, held: np.ndarray) -> tuple[list, np.ndarray | None]:
        """The memo for a field at work's place in held, and the view the
        last stage leaves it in (None where that is work)."""
        # the flat buffer the field is in, then the one it is not in; a
        # stage that leaves the field in the other one swaps them
        buffers = [held, self.scratch]
        field, memo = work, []
        for (kind, tau), layout in zip(self.stages, self.layouts):
            stage = self._transport if kind == "A" else self._kernel
            field = stage(field, tau, layout, buffers[1], memo)
            if np.may_share_memory(field, buffers[1]):
                buffers.reverse()
        ends_in_work = self.end_layout == 0 and np.may_share_memory(field, work)
        return memo, None if ends_in_work else field

    def _add_sweep(self, plan: _SweepPlan, field: np.ndarray, out: np.ndarray, dim: int,
                   memo: list) -> None:
        shape = field.shape[:3] + (-1,)
        memo.append((_sweep, (plan, field.reshape(shape), self.profiles[dim], out.reshape(shape),
                              [])))

    def _transport(self, work, tau, layout, spare, memo):
        plans = self.plans[tau]
        if self.grid.ndim_space == 1:
            out = spare[: work.size].reshape(work.shape)
            self._add_sweep(plans[0], work, out, 0, memo)
            return out
        # the dimension this layout leads with into the scratch, then the
        # switch and the other dimension back into the field's buffer.  The
        # switch reverses all six axes in two passes: the leading axis goes
        # last, then the other five are reversed.  Each pass keeps a
        # contiguous inner run, where a one-pass reversal reads its inner
        # loop with the largest stride (on the fermi4d field 1.4 ms against
        # 3.2 ms, one core of a 2-core x86 host).
        swept = spare[: work.size].reshape(work.shape)
        self._add_sweep(plans[layout], work, swept, layout, memo)
        staged = work.reshape(work.shape[1:] + work.shape[:1])
        switched = swept.reshape(work.shape[::-1])
        memo += [(np.copyto, (staged, np.moveaxis(swept, 0, -1))),
                 (np.copyto, (switched, staged.transpose(4, 3, 2, 1, 0, 5)))]
        out = work.reshape(work.shape[::-1])
        self._add_sweep(plans[1 - layout], switched, out, 1 - layout, memo)
        return out

    def _kernel(self, work, tau, layout, spare, memo):
        forward, lead, lead_inv, back = self.dfts[layout]
        mults = self.mults[tau, layout]
        if self.grid.ndim_space == 1:
            # the field as (N2, N1, M*Q), [n2, n1] holding slice N2*n1 + n2,
            # and the real products' output (n2, Re or Im of the H1 bins k1,
            # node) in the buffer the field is not in
            N2, N1 = len(forward), forward.shape[2]
            field = work.reshape(N1, N2, -1).transpose(1, 0, 2)
            spec = spare[: 2 * mults.size].reshape(N2, 2 * len(mults), -1)
            memo.append((np.matmul, (forward, field, spec)))
            # the complex DFT along n2, the multiply and the inverse cannot run
            # in place: they go through the spent field, half of the columns
            # (k1, node) at a time, each half's bins as (Re, Im) pairs along k2
            # (the larger half, 2*N2*ceil(H1/2) entries a node, fits in the
            # field's N1*N2 a node: N1 >= 4)
            columns = spec.reshape(2 * N2, -1)  # rows (n2, Re or Im)
            cut = len(mults) // 2 * spec.shape[2]
            mults = mults.reshape(-1, N2)  # rows (k1, node), as the columns
            for cols in (slice(0, cut), slice(cut, None)):
                part = columns[:, cols]
                through = work.reshape(-1)[: part.size].reshape(part.shape[::-1])
                bins = through.view(complex)
                memo += [(np.matmul, (part.T, lead, through)),
                         (np.multiply, (bins, mults[cols], bins)),
                         (np.matmul, (lead_inv, through.T, part))]
            memo.append((np.matmul, (back, spec, field)))
            return work
        # the products along the trailing k axis as a stack over the leading
        # (k, m) pairs, (q*q*m, k) blocks each, which BLAS runs faster than
        # one flat (points/k, k) product, into the spectrum as (leading k
        # bins, the rest), the shape the DFT along the leading axis reads
        spec = spare[: 2 * mults.size].view(complex).reshape(len(mults), -1)
        rows = work.reshape(work.shape[0] * work.shape[1], -1, work.shape[-1])
        bins = spec.view(float).reshape(len(rows), -1, forward.shape[1])  # (Re, Im) of each bin
        memo.append((np.matmul, (rows, forward, bins)))
        mults = mults.reshape(spec.shape)
        # the leading-axis DFT, multiply and inverse cannot run in place: they
        # go through the spent field, half of the columns at a time (half a
        # spectrum is (Nk/2 + 1)/Nk of a field, Nk >= 4, so it fits)
        cut = spec.shape[1] // 2
        for cols in (slice(0, cut), slice(cut, None)):
            part = spec[:, cols]
            through = work.reshape(-1)[: 2 * part.size].view(complex).reshape(part.shape)
            memo += [(np.matmul, (lead, part, through)),
                     (np.multiply, (through, mults[:, cols], through)),
                     (np.matmul, (lead_inv, through, part))]
        memo.append((np.matmul, (bins, back, rows)))
        return work


def _sweep(plan: _SweepPlan, work: np.ndarray, inflow: np.ndarray | None, out: np.ndarray,
           calls: list) -> None:
    """A sweep in the stepper's memo: plan.apply, looked up at each call, so
    that a wrapper put on the class (as a layer trace does) sees every
    sweep."""
    plan.apply(work, inflow, out, calls)


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
    runs every check of evolve but the machine-dependent memory budget of a
    run; that includes integral grid and mesh counts, a PhysicalConstants,
    kernels.check_route (a potential of one of the families that the route
    tabulates on the grid), and a symmetric wavenumber domain for the
    symmetrized edge.
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
        for name in ("x_lo", "x_hi", "k_min", "k_max", "dt", "t_final"):
            _check_real(name, getattr(self, name))
        if not isinstance(self.snapshot_times, tuple):
            raise ParameterError(f"snapshot_times must be a tuple, got {self.snapshot_times!r}")
        for t in self.snapshot_times:
            _check_real("snapshot_times", t)
        if not self.dt > 0 or not math.isfinite(self.dt):
            raise ParameterError(f"dt must be positive and finite, got {self.dt!r}")
        if not self.t_final >= 0 or not math.isfinite(self.t_final):
            raise ParameterError(f"t_final must be nonnegative and finite, got {self.t_final!r}")
        _step_index(self.t_final, self.dt, "t_final")
        for name in ("num_elements", "points_per_element", "num_modes", "n_uniform"):
            _check_count(name, getattr(self, name))
        if not isinstance(self.consts, PhysicalConstants):
            raise ParameterError(f"consts must be a PhysicalConstants, got {self.consts!r}")
        if self.n_uniform < 1:
            raise ParameterError(f"N_um must be positive, got {self.n_uniform!r}")
        for name, names in NAMED_SETTINGS.items():
            _check_named(name, getattr(self, name), names)
        _snapshot_steps(self)
        _check_stage_lengths(_stage_sequence(self.scheme, self.dt))
        if not isinstance(self.initial, (observables.GaussianPacketSpec,
                                         observables.FermiDiracSpec)):
            raise ParameterError(
                f"initial must be a GaussianPacketSpec or a FermiDiracSpec, got {self.initial!r}"
            )
        if isinstance(self.initial, observables.FermiDiracSpec) and self.spatial_dims != 2:
            raise ParameterError("Fermi-Dirac initial data needs spatial_dims = 2")
        grid = self.build_grid()  # a grid that cannot be built fails here, not mid-run
        check_route(self.kernel_route, self.potential, grid)
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
    # a count of 2**53 or more is no longer exact in float64, and s*dt no
    # longer tells a time on the lattice from one off it
    if not t / dt < 2**53:
        raise ParameterError(f"{what} {t} is not a finite number of steps of dt = {dt} below 2**53")
    s = round(t / dt)
    if abs(s * dt - t) > 1e-9 + 1e-12 * abs(t):
        raise ParameterError(f"{what} {t} is not on the step lattice of dt = {dt}")
    return s


def _snapshot_steps(config: SimulationConfig) -> dict[int, float]:
    """Step index of each snapshot time, which must lie on the step lattice in
    [0, t_final]; the indices must increase strictly, so that every time
    asked for gets its own snapshot, in the order asked for."""
    out: dict[int, float] = {}
    for t in config.snapshot_times:
        if not 0.0 <= t <= config.t_final:
            raise ParameterError(f"snapshot time {t} outside [0, t_final]")
        s = _step_index(t, config.dt, "snapshot time")
        if out and s <= max(out):
            raise ParameterError(f"snapshot_times must fall on strictly increasing steps;"
                                 f" {t} follows {out[max(out)]} at dt = {config.dt}")
        out[s] = t
    return out


def _working_set(grid: PhaseSpaceGrid, stages: list[tuple[str, float]]) -> float:
    """Estimated peak bytes of a run of these stages, in either dimension:
    the table and what the stepper owns.

    In floats of 8 B: the kernel table on its rfft bins (KernelTable); the
    flat buffer the field heads, room floats or the field alone; the
    stepper's block (_block), one complex multiplier table per distinct
    kernel stage length and layout, then the scratch; the sweep plans, one
    (N_k + 1) x M x M stack of matrices per spatial dimension and distinct
    transport length (the one more slice is the symmetrized edge's); each
    kernel layout's DFT matrices at their build's peak (_dft_floats); and
    the stepper's memo (_Stepper.advance), its one call list, at 40 floats
    a call: a few runs' calls a sweep, 16 counted, and in 4-D, where a slab
    is wider than one float, one shared-row copy a slice, and 8 calls a
    kernel substep.  A quarter more covers the rest.
    """
    _, _, tables, _, length, room = _block(grid, stages)
    table = math.prod(grid.shape[:-1]) * (grid.shape[-1] // 2 + 1)
    plans = len({tau for kind, tau in stages if kind == "A"}) * sum(
        (km.num_points + 1) * mesh.points_per_element ** 2
        for mesh, km in zip(grid.spatial, grid.wavenumber))
    dfts = sum(_dft_floats(grid, layout) for layout in {at for _, at in tables})
    sweep = sum(16 + (km.num_points + 1) * (grid.ndim_space > 1) for km in grid.wavenumber)
    memo = 40 * sum(sweep if kind == "A" else 8 for kind, _ in stages)
    return 1.25 * 8 * (table + max(room, math.prod(grid.shape)) + length + plans + dfts + memo)


def evolve(config: SimulationConfig):
    """Run a simulation in 2-D or 4-D phase space; returns (snapshots, series).

    In 2-D the snapshots are WignerStates and the series holds every
    uniform-mesh observable.  In 4-D a snapshot is a pair (t, spatial
    marginal) and the series holds the total mass.  A field that stops being
    finite, or whose moments the record step refuses, raises DivergenceError
    carrying the series recorded so far.  A run whose estimated working set
    (_working_set) exceeds MEMORY_BUDGET_BYTES raises CapacityError before
    its table is built.
    """
    grid = config.build_grid()
    n_steps = _step_index(config.t_final, config.dt, "t_final")
    stages = _stage_sequence(config.scheme, config.dt) if n_steps else []
    need = _working_set(grid, stages)
    if need > MEMORY_BUDGET_BYTES:
        raise CapacityError(f"estimated working set {need/1e9:.2f} GB exceeds the memory budget")
    table = config.build_table(grid)
    consts = config.consts
    values = observables._initial_state(grid, config.initial, consts).values
    series = observables.ObservableSeries()
    snapshots: list = []
    snap_at = _snapshot_steps(config)

    # reservoir inflow: the wavenumber profile of the initial data, averaged
    # over x, feeds the inflow boundaries; zero inflow and a step-less run
    # read none of the field
    background = None
    if config.inflow == "background" and n_steps:
        background = values.mean(axis=tuple(range(grid.ndim_space)))
    # the field is held once, in the first work layout, and read there, at
    # the head of a flat buffer of the stepper's room (_block).  A
    # step-less run, in either dimension, records and snapshots its initial
    # data as they are (a read-only Fermi-Dirac broadcast stays one), never
    # copied
    order = _LAYOUTS[grid.ndim_space][0] if n_steps else None
    work = values if order is None else _to_work(values, grid, order, _block(grid, stages)[-1])
    # record(t, work) returns a sum over every entry of the field, read from
    # its k-sums (the 2-D record's unweighted row, the 4-D marginal), and in
    # 4-D the marginal, which a snapshot of that step reuses; it appends a
    # row only if that sum is finite.  A sum is finite only if every entry
    # is, and a sum of finite entries that overflows is divergence too
    if config.spatial_dims == 1:
        quad = observables._shared_quadrature(grid, config.n_uniform)

        def record(t, work):
            return quad.append_row_from_work(series, t, work, consts), None

        def snapshot(t, work, marginal):
            return WignerState(grid, work if order is None else _from_work(work, grid, order), t)
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
    stepper = _Stepper(grid, table, consts, stages, background,
                       config.edge_transport == "symmetrized")
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
