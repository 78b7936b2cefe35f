"""Time evolution by operator splitting of the two exact sub-flows.

The transport substep is solved along characteristics: every wavenumber
slice is shifted by v = hbar*k/m times the stage length and re-read through
per-element barycentric interpolation (semi-Lagrangian, no CFL bound, signed
stage lengths allowed).  A sweep plan fixes, per (slice, stage length), one
interpolation matrix and the one source row each target node reads, so a
sweep is one batched matmul and one precomputed gather.  The
pseudo-differential substep is diagonal in the wavenumber modes: alpha_nu
picks up exp(tau * c_nu(x)) = exp(i tau s_nu(x)), with s the real kernel
table.  Strang composition gives order two; the triple-jump composition of
three Strang steps with one negative middle stage gives order four.

One stepper (_Stepper) runs the stages in 2-D and 4-D phase space; it builds
the sweep plans and multiplier tables of each distinct stage length once.
evolve drives a run in either dimension with one stepper; advect,
apply_kernel and step build a stepper for a single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.fft

from .errors import CapacityError, DivergenceError, ParameterError
from .grid import (
    PhaseSpaceGrid,
    SpatialMesh,
    WavenumberMesh,
    WignerState,
    _barycentric_rows,
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
    fraction serves each target node from a single source element: n away
    for nodes at or beyond the fraction, n+1 away for the others.  The two
    interpolation matrices of a slice thus have disjoint nonzero rows, and
    the plan stores their sum, one M x M matrix per slice.

    apply() multiplies every source element by its slice's matrix in one
    batched matmul, then reads each target (k, m, q) from exactly one row
    of that product: node m of element q - n - (0 or 1).  The flat index of
    that row is fixed per (slice, tau) and precomputed here (`rows`).  The
    product is preceded by one boundary row per slice, holding the inflow
    (or zero); departures outside the domain read it.

    On a symmetric wavenumber domain the node at k_min has no +k_max partner
    (it represents both ends of the periodic window), so transporting it with
    the one-sided velocity breaks the parity and quarter-turn equivariance of
    the discrete evolution.  That slice gets the symmetrized transport
    (f(x - v tau) + f(x + v tau))/2 instead: its mirrored-velocity copy is
    appended after the Nk slices and swept on its own.
    """

    def __init__(self, mesh: SpatialMesh, velocities: np.ndarray, tau: float,
                 edge_slice: int | None = None):
        M, Q = mesh.points_per_element, mesh.num_elements
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

        # product row read by target (k, m, q): boundary row k when the source
        # element lies outside the domain, else node m of element src
        src = np.arange(Q) - n.astype(np.intp)[:, None, None] - (~hi)[:, :, None]
        k = np.arange(len(velocities))[:, None, None]
        base = self.num_slices + (k * M + np.arange(M)[:, None]) * Q
        if edge_slice is not None:
            # the mirrored slice is swept alone: one boundary row, then its nodes
            k[-1], base[-1] = 0, 1 + np.arange(M)[:, None] * Q
        self.rows = np.where((src >= 0) & (src < Q), base + src, k)

    def apply(self, work: np.ndarray, inflow: np.ndarray | None = None) -> np.ndarray:
        """Shift the field work, (Nk, M, Q, R), in place and return it.

        inflow, if given, holds the (Nk, R) values read by departure points
        outside the domain; otherwise those points read 0.  Callers pass a
        private copy: sweeping in place spares an allocation per sweep.
        """
        Nk = self.num_slices
        if work.shape[0] != Nk:
            raise ParameterError(f"sweep plan holds {Nk} slices, field has {work.shape[0]}")
        mirrored = None
        if self.edge is not None:
            e = self.edge
            mirrored = _sweep(
                work[e : e + 1], self.matrices[Nk:], self.rows[Nk:],
                None if inflow is None else inflow[e : e + 1],
            )
        out = _sweep(work, self.matrices[:Nk], self.rows[:Nk], inflow, out=work)
        if mirrored is not None:
            out[e] += mirrored[0]
            out[e] *= 0.5
        return out


def _sweep(work, matrices, rows, inflow, out=None):
    # product rows: one boundary row per slice, then (slice, node, element)
    Nk, M, Q, R = work.shape
    product = np.empty((Nk + Nk * M * Q, R))
    product[:Nk] = 0.0 if inflow is None else inflow
    np.matmul(matrices, work.reshape(Nk, M, Q * R), out=product[Nk:].reshape(Nk, M, Q * R))
    # every row index is in range; mode="clip" skips the bounds check and
    # lets take write straight into out, which may be work itself
    return np.take(product, rows, axis=0, out=out, mode="clip")


def _edge_slice(km: WavenumberMesh) -> int | None:
    """Index of the unpaired k_min node on a symmetric wavenumber domain."""
    return 0 if km.k_min == -km.k_max else None


def _sweep_plans(grid: PhaseSpaceGrid, consts: PhysicalConstants, tau: float,
                 symmetrized_edge: bool = False) -> tuple[_SweepPlan, ...]:
    """One sweep plan per spatial dimension for the stage length tau."""
    plans = []
    for mesh, km in zip(grid.spatial, grid.wavenumber):
        v = consts.hbar * km.collocation_k / consts.mass
        plans.append(_SweepPlan(mesh, v, tau, _edge_slice(km) if symmetrized_edge else None))
    return tuple(plans)


def _to_work_2d(values: np.ndarray, mesh: SpatialMesh) -> np.ndarray:
    # (nx, Nk) -> (Nk, M, Q), always a private copy
    work = values.T.reshape(-1, mesh.num_elements, mesh.points_per_element)
    return work.transpose(0, 2, 1).copy()


def _advect_4d(values, grid, plans, inflow):
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
    plans[0].apply(work, prof1)
    # (k1, m1, q1, q2, m2, k2) -> (k2, m2, q2, q1, m1, k1)
    work = work.reshape(Nk1, M1, Q1, Q2, M2, Nk2).transpose(5, 4, 3, 2, 1, 0).copy()
    work = work.reshape(Nk2, M2, Q2, nx1 * Nk1)
    plans[1].apply(work, prof2)
    work = work.reshape(Nk2, M2, Q2, Q1, M1, Nk1).transpose(3, 4, 2, 1, 5, 0)
    return work.reshape(nx1, nx2, Nk1, Nk2)


# ----------------------------------------------------------------------
# pseudo-differential substep
# ----------------------------------------------------------------------

def _half_spectrum_positions(km: WavenumberMesh) -> np.ndarray:
    # rfft bin nu lives at ascending-storage position nu + N/2 - 1
    N = km.num_points
    return np.arange(0, N // 2 + 1) + N // 2 - 1


def _multipliers_half_2d(table: KernelTable, tau: float) -> np.ndarray:
    """exp(i tau s_nu) for the rfft bins nu = 0..Nk/2, in work layout (nu, M, Q)."""
    phases = table.multipliers[:, _half_spectrum_positions(table.grid.k)] * tau
    phases[:, -1] = 0.0  # Nyquist mode has no conjugate partner
    return np.exp(1j * _to_work_2d(phases, table.grid.x))


def _multipliers_half_4d(table: KernelTable, tau: float) -> np.ndarray:
    k1, k2 = table.grid.wavenumber
    N1 = k1.num_points
    order1 = np.mod(np.fft.fftfreq(N1, 1.0 / N1).astype(int) + N1 // 2 - 1, N1)
    pos2 = _half_spectrum_positions(k2)
    phases = table.multipliers[:, :, order1[:, None], pos2] * tau
    phases[:, :, N1 // 2, :] = 0.0  # both Nyquist planes stay inert
    phases[:, :, :, -1] = 0.0
    return np.exp(1j * phases)


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


def _lengths(stages: list[tuple[str, float]], kind: str) -> dict[float, None]:
    """Distinct stage lengths of one kind ("A" or "B"), in order of first use."""
    return dict.fromkeys(tau for k, tau in stages if k == kind)


def _check_stage_lengths(stages: list[tuple[str, float]]) -> None:
    for tau in _lengths(stages, "A"):
        if abs(tau) > MAX_STAGE_FS:
            raise ParameterError(f"stage length {tau} fs exceeds the configured bound")


class _Stepper:
    """A fixed sequence of stages: transports ("A") and kernel substeps ("B").

    Every distinct stage length's sweep plans or half-spectrum multipliers
    are built once, here.  The stages run on the field in work layout:
    (Nk, M, Q) in 2-D phase space, so that every sweep and transform runs
    along the leading axis; in 4-D the field's own layout, which the
    transport re-lays per dimension.  table may be None without kernel
    stages, consts without transport stages.
    """

    def __init__(self, grid: PhaseSpaceGrid, table: KernelTable | None,
                 consts: PhysicalConstants | None, stages: list[tuple[str, float]],
                 inflow: np.ndarray | None = None, symmetrized_edge: bool = False):
        _check_stage_lengths(stages)
        if table is not None and table.grid.cache_key() != grid.cache_key():
            raise ParameterError("kernel table was built on a different grid")
        self.grid = grid
        self.stages = stages
        self.inflow = None if inflow is None else np.asarray(inflow, float)
        self.plans = {
            tau: _sweep_plans(grid, consts, tau, symmetrized_edge) for tau in _lengths(stages, "A")
        }
        N = tuple(km.num_points for km in grid.wavenumber)
        if grid.ndim_space == 1:
            half = _multipliers_half_2d
            # the 1-D transforms skip scipy.fft's n-D argument handling, which
            # costs a few percent of a 2-D run
            self._rfft = partial(scipy.fft.rfft, axis=0)
            self._irfft = partial(scipy.fft.irfft, n=N[0], axis=0)
        else:
            half = _multipliers_half_4d
            self._rfft = partial(scipy.fft.rfft2, axes=(2, 3))
            self._irfft = partial(scipy.fft.irfft2, s=N, axes=(2, 3))
        self.mults = {tau: half(table, tau) for tau in _lengths(stages, "B")}

    def to_work(self, values: np.ndarray) -> np.ndarray:
        """Work layout of a field: a private copy in 2-D, the field itself in 4-D."""
        return values if self.grid.ndim_space == 2 else _to_work_2d(values, self.grid.x)

    def from_work(self, work: np.ndarray) -> np.ndarray:
        if self.grid.ndim_space == 2:
            return work
        Nk, M, Q = work.shape
        return np.ascontiguousarray(work.transpose(0, 2, 1).reshape(Nk, Q * M).T)

    def advance(self, work: np.ndarray) -> np.ndarray:
        """Run every stage on a work-layout field; a 2-D field is overwritten."""
        for kind, tau in self.stages:
            work = self._transport(work, tau) if kind == "A" else self._kernel(work, tau)
        return work

    def apply(self, state: WignerState, dt: float = 0.0) -> WignerState:
        """The stages applied to a state, which is left as it is; time moves by dt."""
        values = self.from_work(self.advance(self.to_work(state.values)))
        return WignerState(state.grid, values, state.time + dt)

    def _transport(self, work, tau):
        if self.grid.ndim_space == 2:
            return _advect_4d(work, self.grid, self.plans[tau], self.inflow)
        inflow = None if self.inflow is None else self.inflow[:, None]
        return self.plans[tau][0].apply(work[:, :, :, None], inflow)[:, :, :, 0]

    def _kernel(self, work, tau):
        spec = self._rfft(work)
        spec *= self.mults[tau]
        return self._irfft(spec)


# The benchmark's layer trace still names the class _Stepper2D; the alias
# goes away with the next change to the benchmark.
_Stepper2D = _Stepper


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
    property, not a field.  Construction runs every check of evolve but the
    machine-dependent 4-D memory budget.
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
    poisson_delta_y: float | None = None
    poisson_offset: float = 0.0
    inflow: str = "zero"
    edge_transport: str = "one_sided"

    def __post_init__(self):
        if not self.dt > 0 or not math.isfinite(self.dt):
            raise ParameterError(f"dt must be positive and finite, got {self.dt!r}")
        if not self.t_final >= 0 or not math.isfinite(self.t_final):
            raise ParameterError(f"t_final must be nonnegative and finite, got {self.t_final!r}")
        if self.t_final > 0 and self.t_final < self.dt:
            raise ParameterError("t_final must be at least one step")
        for name, names in NAMED_SETTINGS.items():
            _check_named(name, getattr(self, name), names)
        _snapshot_steps(self)
        _check_stage_lengths(_stage_sequence(self.scheme, self.dt))
        if self.kernel_route == "poisson":
            check_poisson_route(self.potential, self.poisson_delta_y)
        if isinstance(self.initial, observables.FermiDiracSpec):
            if self.spatial_dims != 2:
                raise ParameterError("Fermi-Dirac initial data needs spatial_dims = 2")
            if not math.isclose(self.consts.mass, self.initial.mass, rel_tol=1e-9):
                raise ParameterError(
                    f"consts.mass = {self.consts.mass!r} differs from the Fermi-Dirac"
                    f" effective mass {self.initial.mass!r}"
                )
        grid = self.build_grid()  # a grid that cannot be built fails here, not mid-run
        if self.kernel_route == "exact":
            check_exact_route(self.potential, grid)

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
            return poisson_kernel_coefficients(
                self.potential, grid, self.consts, self.poisson_delta_y, self.poisson_offset
            )
        return kernel_coefficients(self.potential, grid, self.consts)


# ----------------------------------------------------------------------
# full evolution
# ----------------------------------------------------------------------

def _snapshot_steps(config: SimulationConfig) -> dict[int, float]:
    """Step index of each snapshot time, which must lie on the step lattice in [0, t_final]."""
    out: dict[int, float] = {}
    for t in config.snapshot_times:
        if not 0.0 <= t <= config.t_final:
            raise ParameterError(f"snapshot time {t} outside [0, t_final]")
        s = round(t / config.dt)
        if abs(s * config.dt - t) > 1e-9 + 1e-12 * abs(t):
            raise ParameterError(f"snapshot time {t} is not on the step lattice")
        out[s] = t
    return out


def _working_set_4d(config: SimulationConfig, grid: PhaseSpaceGrid) -> float:
    """Estimated peak bytes of a 4-D run.

    The real kernel table (8 B a point); a step's input field and its
    running stage result; one cached complex half-spectrum multiplier table
    per distinct kernel stage length; and the largest stage temporaries, the
    spectrum and output of a kernel substep (a sweep's work copy and product
    are about as large).  A quarter more covers the small arrays beside them.
    """
    points = float(np.prod(grid.shape))
    Nk2 = grid.wavenumber[1].num_points
    half = points * (Nk2 // 2 + 1) / Nk2  # points of a half spectrum
    kernel_lengths = len(_lengths(_stage_sequence(config.scheme, config.dt), "B"))
    table = 8 * points
    fields = 2 * 8 * points
    multipliers = kernel_lengths * 16 * half
    temporaries = 16 * half + 8 * points
    return 1.25 * (table + fields + multipliers + temporaries)


def evolve(config: SimulationConfig):
    """Run a simulation in 2-D or 4-D phase space; returns (snapshots, series).

    In 2-D the snapshots are WignerStates and the series holds every
    uniform-mesh observable.  In 4-D a snapshot is a pair (t, spatial
    marginal) and the series holds the total mass.
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
    values = observables._initial_state(grid, config.initial, consts.hbar).values
    series = observables.ObservableSeries()
    snapshots: list = []
    n_steps = round(config.t_final / config.dt)
    snap_at = _snapshot_steps(config)

    # reservoir inflow: the wavenumber profile of the initial data feeds the
    # inflow boundaries (averaged over x in 2-D; 4-D data are uniform in x)
    if config.spatial_dims == 1:
        background = values.mean(axis=0)
        quad = observables.UniformMeshQuadrature(grid, config.n_uniform)
        mesh = grid.x
        wcc = observables._cc_x_weights(mesh).reshape(mesh.num_elements, -1).T  # (M, Q)

        def record(t, work):
            mass = grid.k.length * float((wcc * work.mean(axis=0)).sum())
            quad.append_row_from_work(series, t, mass, work, consts)

        def snapshot(t, work):
            return WignerState(grid, stepper.from_work(work), t)
    else:
        background = values[0, 0].copy()

        def record(t, work):
            series.append(t=t, total_mass=observables.total_mass(WignerState(grid, work, t)))

        def snapshot(t, work):
            return t, observables.spatial_marginal_2d(WignerState(grid, work, t))

    stepper = _Stepper(
        grid, table, consts,
        _stage_sequence(config.scheme, config.dt) if n_steps else [],
        background if config.inflow == "background" else None,
        config.edge_transport == "symmetrized",
    )
    work = stepper.to_work(values)
    del values  # in 2-D the work layout is a copy; the natural one is not needed again
    for i in range(n_steps + 1):
        if i:
            work = stepper.advance(work)
            if not np.isfinite(work).all():
                raise DivergenceError(f"non-finite field after step {i}")
        record(i * config.dt, work)
        if i in snap_at:
            snapshots.append(snapshot(i * config.dt, work))
    if not snapshots:
        snapshots.append(snapshot(n_steps * config.dt, work))
    return snapshots, series


def evolve_4d(config: SimulationConfig):
    """Run a 4-D phase-space simulation (see evolve); snapshots hold the spatial marginal."""
    if config.spatial_dims != 2:
        raise ParameterError("evolve_4d needs spatial_dims = 2")
    return evolve(config)
