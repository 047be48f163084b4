"""Semiclassical moment dynamics of the damped harmonic oscillator.

A numpy library (plus a small CLI) that evolves phase-space expectation
values together with their second moments for three related models: a
conservative two-oscillator realization of damping, its XY-frame view, and
the thermal (Lindblad-type) moment equations. The package verifies that the
two descriptions coincide under the standard parameter identification and
audits the uncertainty, diffusion, and ground-state invariants along every
run.
"""

from .model import (
    BT1,
    L1,
    XY,
    CanonicalFrame,
    CovarianceMatrix,
    FrameError,
    MeanVector,
    ModelParams,
    Trajectory,
    transform_state,
)
from .algebra import (
    QuadraticHamiltonian,
    SymplecticForm,
    bracket_table,
    expand_effective_hamiltonian,
    moment_bracket,
    sbth_hamiltonian,
)
from .systems import (
    DiffusionReport,
    ModelSystem,
    build_classical,
    build_lindblad,
    build_sbth,
    classical_analytic,
    diffusion_report,
    generate_dynamics,
    sbth_moment_rows,
    transform_system,
    xy_view,
)
from .integrator import (
    IntegrationError,
    IntegratorConfig,
    TrajectoryBlocks,
    convergence_order,
    integrate,
)
from .diagnostics import (
    AuditJoin,
    EnergyReport,
    InvariantAudit,
    Run,
    audit,
    coherent_initial_state,
    compare,
    energy_report,
    lindblad_mean_energy,
    trajectory_columns,
)

__version__ = "0.1.0"
