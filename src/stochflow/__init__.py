"""stochflow: cross-verification of the diffusion / Burgers / wave-equation correspondence.

The package connects three descriptions of the same dynamics and checks
them against each other numerically:

* forward Ito diffusions and their mean forward/backward (current/osmotic)
  velocities, sampled by Monte Carlo;
* the nonlinear velocity equations (viscous, antidiffusive, and complex
  Burgers variants) those velocities satisfy, solved directly;
* the linear heat / Schrodinger-type equations obtained from them by the
  Cole-Hopf substitution ``a = lam (grad F)/F``, with the quadratic
  density ``F F*`` recovered from pure continuity transport.

See the module docstrings for the individual pieces and the ``stochflow``
CLI for the packaged verification experiments.
"""

from .fields import (
    GridSpec,
    GridMismatchError,
    Norms,
    ScalarField,
    antiderivative,
    derivative,
    field_from_function,
    integrate,
    laplacian,
    log_derivative,
    norms,
)
from .clifford import (
    BLADE_NAMES,
    Multivector,
    StretchSpec,
    check_prop_identities,
    contraction,
    geometric_product,
    grad_wedge,
    gradient,
    linearization_cancellation,
    scalar_product,
    stretched_gradient,
    wedge,
)
from .sde import (
    ActionEstimate,
    ComplexIncrementStats,
    DiffusionModel,
    PathEnsemble,
    VelocityEstimate,
    backward_drift_from_forward,
    discretized_action,
    estimate_diffusion,
    estimate_velocities,
    make_rng,
    osmotic_velocity_from_density,
    sample_complex_increments,
    simulate_forward,
)
from .fokker_planck import (
    DensityState,
    cfl_timestep,
    complex_fp_residual,
    continuity_residual,
    discrete_stationary_density,
    osmotic_constraint_residual,
    solve_backward,
    solve_forward,
    step_density,
)
from .burgers import (
    VARIANTS,
    BurgersProblem,
    ColeHopfMap,
    effective_viscosity,
    geodesic_residual,
    heat_evolve_spectral,
    inversion_diagnostic,
    real_chain_residual,
    solve_burgers,
    solve_linearization_condition,
)
from .schrodinger import (
    SchrodingerProblem,
    SchrodingerResult,
    energy,
    evolve,
    wavefunction_norm,
)
from .born import (
    BornReport,
    VelocityDecomposition,
    born_pipeline,
    evolve_density_continuity,
    madelung_wavefunction,
    normalize_wavefunction,
    velocity_from_wavefunction,
)
from .output import all_passed, check, jsonable, write_csv, write_manifest, write_summary
from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
