"""Entropy-stable simulator for multicomponent two-phase flow with dynamic
capillary pressure.

The package is organised as a small library:

* :mod:`capmix.constitutive` — power-law coefficients, their primitives and
  the exponent admissibility check;
* :mod:`capmix.entropy` — mixing free energy, chemical potentials, the
  entropy-variable transform and cross-diffusion matrices;
* :mod:`capmix.fem` — 1d P1 mesh, nodal fields and the assembled
  frozen-coefficient system of one implicit step;
* :mod:`capmix.solver` — linear solves, the accelerated fixed-point time
  step with Newton finisher and homotopy fallback, time marching and
  refinement studies;
* :mod:`capmix.diagnostics` — Lyapunov functional, dissipation budget, the
  per-step entropy check, a-priori bound trackers, weak residuals and the
  Gibbs–Duhem consistency check;
* :mod:`capmix.runio` / :mod:`capmix.cli` — config parsing, deterministic
  output artifacts and the command-line front end.
"""

__version__ = "0.1.0"

from . import errors
from .constitutive import (
    AssumptionReport,
    CoefficientValues,
    ModelParams,
    default_params,
    entropy_E,
    eval_coeffs,
    f0_integral,
    validate_assumptions,
)
from .entropy import (
    DiffusionMatrixSpec,
    chem_potentials,
    free_energy,
    hypocoercivity_constants,
    jmz_inequality_check,
    project_orthogonal,
    relative_free_energy,
    states_from_w,
    w_from_states,
)
from .fem import (
    LinearSystem,
    Mesh,
    NodalField,
    assemble_system,
    beta_gradient_field,
    build_mesh,
    constant_field,
    field_norms,
    lumped_mass,
)
from .solver import (
    SolverConfig,
    StepStats,
    Trajectory,
    equilibrium_initial,
    refinement_study,
    run_simulation,
    sine_perturbation_initial,
    solve_linear,
    solve_time_step,
    step_profile_initial,
)
from .diagnostics import (
    DiagnosticsRecord,
    EntropyCheckResult,
    apriori_report,
    check_entropy_step,
    dissipation_budget,
    gibbs_duhem_check,
    initial_record,
    lyapunov_functional,
    weak_residual,
)
from .runio import (
    RunConfig,
    build_problem,
    parse_config,
    render_config,
    write_outputs,
)

__all__ = [
    "__version__",
    "errors",
    # constitutive
    "ModelParams",
    "CoefficientValues",
    "AssumptionReport",
    "default_params",
    "eval_coeffs",
    "f0_integral",
    "entropy_E",
    "validate_assumptions",
    # entropy
    "DiffusionMatrixSpec",
    "free_energy",
    "chem_potentials",
    "relative_free_energy",
    "project_orthogonal",
    "w_from_states",
    "states_from_w",
    "hypocoercivity_constants",
    "jmz_inequality_check",
    # fem
    "Mesh",
    "NodalField",
    "LinearSystem",
    "build_mesh",
    "constant_field",
    "assemble_system",
    "beta_gradient_field",
    "field_norms",
    "lumped_mass",
    # solver
    "SolverConfig",
    "StepStats",
    "Trajectory",
    "solve_linear",
    "solve_time_step",
    "run_simulation",
    "refinement_study",
    "equilibrium_initial",
    "sine_perturbation_initial",
    "step_profile_initial",
    # diagnostics
    "DiagnosticsRecord",
    "EntropyCheckResult",
    "lyapunov_functional",
    "dissipation_budget",
    "initial_record",
    "check_entropy_step",
    "apriori_report",
    "weak_residual",
    "gibbs_duhem_check",
    # runio
    "RunConfig",
    "parse_config",
    "render_config",
    "build_problem",
    "write_outputs",
]
