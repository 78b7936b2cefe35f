"""Resolution ladders of full runs: self-convergence in N_k on the exact route.

Each family runs one packet to t = 4 at N_k = 32, 64, 128 and 256 and is
compared with the same run at N_k = 512 (L2 error_norms on a 600-point
uniform mesh).  This is self-convergence, not physics validation: it shows
that the exact-route solver settles as the wavenumber resolution grows, not
that it settles on the right answer.  The decay is algebraic, not spectral,
so each family pins a floor under its observed mean order, set a little
below the order measured when the test was written (delta 1.36, log 2.02,
inverse power 1.42, inverse square 1.10).

The Q = 20 x grid (M = 21) is under-resolved in x: at N_k = 128 the x error
against the same run at Q = 160 is 1.3e-1 for delta and 2.1e-2 for log
(L2, yoshida4, dt = 0.01), larger than most of the N_k errors pinned here.
The ladder measures the wavenumber discretisation on a fixed x grid, not
the distance to the converged Wigner function.
"""

import math

import pytest

from wigsolve import (
    DeltaPotential,
    GaussianPacketSpec,
    InversePowerPotential,
    InverseSquarePotential,
    LogPotential,
    SimulationConfig,
    error_norms,
    evolve,
)

pytestmark = pytest.mark.acceptance

LADDER = (32, 64, 128, 256)
REFERENCE_MODES = 512
N_UNIFORM = 600

# family -> (potential, floor under log2(e_32 / e_256) / 3)
FAMILIES = {
    "delta": (DeltaPotential(H=1.0), 1.3),
    "log": (LogPotential(H=1.0), 1.9),
    "inverse_power": (InversePowerPotential(H=1.0, alpha=0.5), 1.3),
    "inverse_square": (InverseSquarePotential(H=1.0), 1.0),
}


def _final_state(potential, num_modes):
    cfg = SimulationConfig(
        x_lo=-30.0, x_hi=30.0, num_elements=20, points_per_element=21,
        k_min=-2.0 * math.pi, k_max=2.0 * math.pi, num_modes=num_modes,
        potential=potential, initial=GaussianPacketSpec(x0=-6.0, k0=1.5, sigma=1.5),
        dt=0.02, t_final=4.0, scheme="yoshida4",
    )
    return evolve(cfg)[0][-1]


@pytest.mark.parametrize("family", FAMILIES)
def test_wavenumber_ladder_converges(family):
    potential, floor = FAMILIES[family]
    reference = _final_state(potential, REFERENCE_MODES)
    errors = [error_norms(_final_state(potential, n), reference, N_UNIFORM)[0] for n in LADDER]
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    order = math.log2(errors[0] / errors[-1]) / math.log2(LADDER[-1] / LADDER[0])
    assert order > floor, (order, errors)
