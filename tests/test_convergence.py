"""Resolution ladders of full runs: self-convergence in N_k and in Q on the
exact route.

Each family runs one packet to t = 4 at N_k = 32, 64, 128 and 256 and is
compared with the same run at N_k = 512 (L2 error_norms on a 600-point
uniform mesh).  This is self-convergence, not physics validation: it shows
that the exact-route solver settles as the wavenumber resolution grows, not
that it settles on the right answer.  The decay is algebraic, not spectral,
so each family pins a floor under its observed mean order, set a little
below the order measured when the test was written (delta 1.36, log 2.02,
inverse power 1.42 at alpha = 0.5 and 2.27 at alpha = 0.2, inverse square
1.10).  At alpha = 0.8 the ladder runs at Q = 40: at Q = 20 the runs at
N_k = 64, 128, 256 and the N_k = 512 reference stop at t = 3.6-3.8 with a
position variance negative beyond round-off, an effect of the x
under-resolution below.  At Q = 40 every rung finishes, with L2 errors
0.143, 0.109, 0.0776 and 0.0226 at N_k = 32 to 256 (order 0.89).

The Q = 20 x grid (M = 21) is under-resolved in x: at N_k = 128 the x error
against the same run at Q = 160 is 1.3e-1 for delta and 2.1e-2 for log
(L2, yoshida4, dt = 0.01), larger than most of the N_k errors pinned here.
The N_k ladder measures the wavenumber discretisation on a fixed x grid,
not the distance to the converged Wigner function.

The Q ladder measures the x discretisation on a fixed wavenumber grid: the
same packet and window at N_k = 128, M = 21, dt = 0.01, with Q = 20, 40 and
80 compared with the same run at Q = 160 (measured L2 errors: delta 1.29e-1,
1.13e-2, 5.54e-4; log 2.14e-2, 7.12e-4, 8.86e-6).  Each family pins a
floor a little below the mean order in the element width measured when the
test was written (delta 3.93, log 5.62).

The 4-D ladder runs the benchmark's fermi4d set-up at seed 0 (multi-delta
annulus, Fermi-Dirac data, background inflow, symmetrized edge; Q = 5,
M = 9, yoshida4, dt = 0.01) to t = 0.2 at N_k = 16 and 32 and compares the
spatial marginal with the same run at N_k = 64 (the largest difference over
the largest reference value).  Each pins a bound a little above the error
measured when the test was written (0.113 and 0.037): the benchmark's
N_k = 16 is a speed workload, far from converged.

The 4-D Q ladder runs the same set-up at N_k = 16 with Q = 5 and 10 and
compares the spatial marginal, sampled on a 201 x 201 uniform mesh, with
the same run at Q = 20.  It does not converge, and is pinned as a strict
xfail: the errors were 0.82 and 1.02 of the reference's largest value
(order -0.30) when the test was written.  The cause is x resolution: every
delta's kernel oscillates in x as sin(2 L_k (x - d)), a wavelength of
pi/L_k = 0.5 nm at L_k = 2 pi, and the marginal's largest value, next to
the delta points, still moves with Q (0.136, 0.132, 0.144, 0.159 at Q = 5,
10, 20, 40) while its mean holds to 1e-3.  Against Q = 40 (an estimated
working set of 1.6 GB) the Q = 10 and 20 errors are 0.87 and 0.64: no rung
that fits a couple of minutes is asymptotic.  The 2-D analogue (one delta
at x = 0, a Gaussian packet on the same x and k windows, t = 0.2, against
Q = 160) converges only from Q = 20: L2 errors 8.0e-2, 4.4e-2, 2.2e-3 and
7.1e-5 at Q = 5, 10, 20 and 40 (orders 0.84, 4.3, 5.0).
"""

import math

import pytest

import numpy as np

from wigsolve import (
    DeltaPotential,
    FermiDiracSpec,
    GaussianPacketSpec,
    InversePowerPotential,
    InverseSquarePotential,
    LogPotential,
    MultiDeltaPotential2D,
    PhysicalConstants,
    SimulationConfig,
    annulus_points,
    error_norms,
    evolve,
)
from wigsolve.grid import _spatial_interp, build_spatial_mesh

pytestmark = pytest.mark.acceptance

LADDER = (32, 64, 128, 256)
REFERENCE_MODES = 512
N_UNIFORM = 600

# family -> (potential, floor under log2(e_32 / e_256) / 3)
FAMILIES = {
    "delta": (DeltaPotential(H=1.0), 1.3),
    "log": (LogPotential(H=1.0), 1.9),
    "inverse_power": (InversePowerPotential(H=1.0, alpha=0.5), 1.3),
    "inverse_power_alpha0.2": (InversePowerPotential(H=1.0, alpha=0.2), 2.1),
    "inverse_power_alpha0.8": (InversePowerPotential(H=1.0, alpha=0.8), 0.7),
    "inverse_square": (InverseSquarePotential(H=1.0), 1.0),
}
# family -> Q of its N_k ladder where it is not 20
LADDER_ELEMENTS = {"inverse_power_alpha0.8": 40}

ELEMENT_LADDER = (20, 40, 80)
REFERENCE_ELEMENTS = 160
ELEMENT_MODES = 128
# family -> floor under log2(e_20 / e_80) / 2
ELEMENT_FLOORS = {"delta": 3.7, "log": 5.4}

# N_k -> bound on the 4-D marginal's error against N_k = 64
TENSOR_BOUNDS = {16: 0.12, 32: 0.04}
TENSOR_REFERENCE_MODES = 64

# the 4-D Q ladder at N_k = 16 against Q = 20, and the floor under
# log2(e_5 / e_10) that a converging ladder would clear
TENSOR_ELEMENT_LADDER = (5, 10)
TENSOR_REFERENCE_ELEMENTS = 20
TENSOR_ELEMENT_FLOOR = 1.0


def _final_state(potential, num_modes, num_elements=20, dt=0.02):
    cfg = SimulationConfig(
        x_lo=-30.0, x_hi=30.0, num_elements=num_elements, points_per_element=21,
        k_min=-2.0 * math.pi, k_max=2.0 * math.pi, num_modes=num_modes,
        potential=potential, initial=GaussianPacketSpec(x0=-6.0, k0=1.5, sigma=1.5),
        dt=dt, t_final=4.0, scheme="yoshida4",
    )
    return evolve(cfg)[0][-1]


@pytest.mark.parametrize("family", FAMILIES)
def test_wavenumber_ladder_converges(family):
    potential, floor = FAMILIES[family]
    Q = LADDER_ELEMENTS.get(family, 20)
    reference = _final_state(potential, REFERENCE_MODES, num_elements=Q)
    errors = [error_norms(_final_state(potential, n, num_elements=Q), reference, N_UNIFORM)[0]
              for n in LADDER]
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    order = math.log2(errors[0] / errors[-1]) / math.log2(LADDER[-1] / LADDER[0])
    assert order > floor, (order, errors)


@pytest.mark.parametrize("family", ELEMENT_FLOORS)
def test_element_ladder_converges(family):
    potential, floor = FAMILIES[family][0], ELEMENT_FLOORS[family]

    def run(Q):
        return _final_state(potential, ELEMENT_MODES, num_elements=Q, dt=0.01)

    reference = run(REFERENCE_ELEMENTS)
    errors = [error_norms(run(Q), reference, N_UNIFORM)[0] for Q in ELEMENT_LADDER]
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    order = math.log2(errors[0] / errors[-1]) / math.log2(ELEMENT_LADDER[-1] / ELEMENT_LADDER[0])
    assert order > floor, (order, errors)


def _tensor_marginal(num_modes, num_elements=5):
    cfg = SimulationConfig(
        x_lo=-10.0, x_hi=10.0, num_elements=num_elements, points_per_element=9,
        num_modes=num_modes,
        potential=MultiDeltaPotential2D(H=1.0, points=annulus_points(2.0, 8)),
        initial=FermiDiracSpec(),
        consts=PhysicalConstants(hbar=0.658211899, mass=0.067 * 5.68562966),
        dt=0.01, t_final=0.2, scheme="yoshida4", inflow="background",
        edge_transport="symmetrized",
    )
    return evolve(cfg)[0][-1][1]


def test_tensor_wavenumber_ladder_converges():
    reference = _tensor_marginal(TENSOR_REFERENCE_MODES)
    errors = {n: float(np.abs(_tensor_marginal(n) - reference).max() / np.abs(reference).max())
              for n in TENSOR_BOUNDS}
    assert errors[16] > errors[32], errors
    assert all(errors[n] < bound for n, bound in TENSOR_BOUNDS.items()), errors


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Q <= 40 elements of M = 9 nodes do not resolve the marginal"
                          " next to the delta points, where the kernel oscillates in x"
                          " as sin(2 L_k (x - d)), a wavelength of 0.5 nm")
def test_tensor_element_ladder_converges():
    points = np.linspace(-10.0, 10.0, 201)

    def sampled(Q):
        mesh = build_spatial_mesh(-10.0, 10.0, Q, 9)
        along_x1 = _spatial_interp(mesh, points, _tensor_marginal(16, Q))
        return _spatial_interp(mesh, points, along_x1.T).T

    reference = sampled(TENSOR_REFERENCE_ELEMENTS)
    errors = [float(np.abs(sampled(Q) - reference).max() / np.abs(reference).max())
              for Q in TENSOR_ELEMENT_LADDER]
    assert errors[0] > errors[1], errors
    order = math.log2(errors[0] / errors[1])
    assert order > TENSOR_ELEMENT_FLOOR, (order, errors)
