"""The transmitted fraction against a physics reference, not self-convergence.

R(t) is the mass at x >= 0: the Clenshaw-Curtis integral of the spatial
marginal over the elements right of x = 0, an element boundary of the
symmetric mesh.  For the Gaussian barrier H N(0, a^2), a = 0.5, H = 1, the
reference is a split-step Fourier Schrodinger run of the same packet
(oracles.split_step_transmission: N = 2^15 on [-100, 100), dt = 1e-3), which
gives R = 0.711222, 0.796823 and 0.802727 at t = 6, 9 and 12.  The solver at
Q = 40, M = 21, N_k = 128, L_k = 4 pi, yoshida4, dt = 0.01 missed them by
-2.3e-7, -2.4e-7 and -1.5e-5 when the test was written.

Split-step converges slowly on a singular potential, which is the paper's
point: log and inverse power have no cheap R oracle of this kind.  Energy
conservation is the reference-free check planned for them.
"""

import math

import numpy as np
import pytest

from oracles import split_step_transmission
from wigsolve import (
    GaussianBarrier,
    GaussianPacketSpec,
    SimulationConfig,
    evolve,
    spatial_marginal,
)
from wigsolve.observables import _cc_x_weights

pytestmark = pytest.mark.acceptance

PACKET = GaussianPacketSpec(x0=-6.0, k0=1.5, sigma=1.5)  # the convergence ladders' packet
TIMES = (6.0, 9.0, 12.0)
R_BOUND = 5e-5


def _transmitted(state) -> float:
    mesh = state.grid.x
    right = np.repeat(mesh.points_by_element[:, 0] >= 0.0, mesh.points_per_element)
    return float(_cc_x_weights(mesh)[right] @ spatial_marginal(state)[right])


def test_gaussian_barrier_transmission_matches_split_step():
    barrier = GaussianBarrier(H=1.0, a=0.5)
    cfg = SimulationConfig(
        x_lo=-30.0, x_hi=30.0, num_elements=40, points_per_element=21,
        k_min=-2.0 * math.pi, k_max=2.0 * math.pi, num_modes=128,
        potential=barrier, initial=PACKET, dt=0.01, t_final=TIMES[-1],
        snapshot_times=TIMES, scheme="yoshida4",
    )
    snapshots, _ = evolve(cfg)
    got = np.array([_transmitted(state) for state in snapshots])
    want = split_step_transmission(barrier, PACKET, cfg.consts, TIMES)
    assert np.abs(got - want).max() <= R_BOUND, (got, want)
