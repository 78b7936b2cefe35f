"""Deterministic spectral solver for the Wigner equation under singular potentials."""

__version__ = "0.1.0"

from .grid import (
    PhaseSpaceGrid,
    SpatialMesh,
    WavenumberMesh,
    WignerState,
    build_spatial_mesh,
    build_wavenumber_mesh,
)
from .kernels import (
    DeltaPotential,
    GaussianBarrier,
    InversePowerPotential,
    InverseSquarePotential,
    KernelTable,
    LogPotential,
    MultiDeltaPotential2D,
    PhysicalConstants,
    annulus_points,
    kernel_coefficients,
    poisson_kernel_coefficients,
)
from .dynamics import SimulationConfig, advect, apply_kernel, evolve, evolve_4d, step
from .observables import (
    FermiDiracSpec,
    GaussianPacketSpec,
    ObservableSeries,
    UniformMeshQuadrature,
    error_norms,
    init_fermi_dirac_4d,
    init_gaussian,
    partial_mass,
    resample_uniform,
    spatial_marginal,
    spatial_marginal_2d,
    total_mass,
    uncertainty,
)
