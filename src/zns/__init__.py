"""Pseudo-spectral 2D Navier-Stokes solver on the periodic beta-plane.

The package simulates the vorticity equation

    dw/dt + B(w, w) + (1/eps) L w + mu A w = f

on a doubly periodic rectangle with the odd-in-y symmetry, and ships a
verification harness for the two headline phenomena of the strongly
rotating regime: attenuation of the non-zonal flow component as eps -> 0,
and collapse of the long-time dynamics onto a single steady state.
"""

from .diagnostics import (
    AgmonReport,
    DiagnosticsRecord,
    agmon_check,
    approx_steady_state,
    record_state,
    sobolev_norm,
    steady_residual,
)
from .forcing import Forcing, ForcingSpec
from .harness import (
    ExperimentConfig,
    RunRecord,
    Tolerances,
    initial_state,
    integrate,
    run_contraction_test,
    run_epsilon_sweep,
    run_steady_residual_sweep,
    simulate,
)
from .lattice import (
    Domain,
    OddBand,
    SpectralField,
    inner,
    norm,
    project_parity,
    random_field,
    read_snapshot,
    to_grid,
    to_spectral,
    write_snapshot,
)
from .operators import (
    TriadReport,
    VelocityField,
    apply_A,
    apply_I_omega,
    apply_L,
    apply_inv_laplacian,
    b_coeff,
    jacobian,
    omega_freq,
    split,
    triad_scan,
    velocity,
)
from .stepper import (
    BlowUpError,
    EtdCoefficients,
    SimConfig,
    Stepper,
    budget_residual,
    build_coefficients,
)

__version__ = "0.1.0"
