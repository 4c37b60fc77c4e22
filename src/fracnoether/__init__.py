"""Fractional isoperimetric variational calculus in the Riemann-Liouville sense.

Library layers:

- frac_kernels: RL fractional integrals and derivatives on uniform grids
- problems: the isoperimetric variational problem and Euler-Lagrange residuals
- noether: fractional conservation laws via the pair operator
- hamiltonian: the optimal-control layer and Pontryagin-side residuals
- solver: direct transcription Newton solver for extremals
- cli: the `fracnoether` command line front end
"""

from .fields import PointField, VectorField
from .frac_kernels import (
    Constant,
    PowerShifted,
    UnsupportedOrderError,
    closed_form_left_derivative,
    left_derivative_matrix,
    left_rl_derivative,
    left_rl_integral,
    right_rl_derivative,
    right_rl_integral,
)
from .gammafn import GammaPoleError, gamma, reciprocal_gamma
from .grids import FracOrder, Grid, SampledFunction, fill_endpoints, sample
from .hamiltonian import (
    AutonomyError,
    ControlProblem,
    PontryaginExtremal,
    autonomous_energy_residual,
    hamiltonian_noether_residual,
    hamiltonian_value,
    pontryagin_residuals,
)
from .noether import (
    SymmetryGenerator,
    frac_pair_operator,
    invariance_first_order_check,
    invariance_necessary_condition,
    momentum_law_residual,
    noether_law_residual,
)
from .problems import (
    DEFAULT_BAND,
    INVARIANCE_TOLERANCE,
    ResidualReport,
    VariationalProblem,
    augmented_lagrangian,
    certification_tolerance,
    constraint_values,
    endpoint_band,
    euler_lagrange_residual,
    frac_velocity,
    make_report,
    normality_check,
    objective_value,
)
from .solver import Solution, SolverError, refine, solve

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "PowerShifted",
    "UnsupportedOrderError",
    "closed_form_left_derivative",
    "left_derivative_matrix",
    "left_rl_derivative",
    "left_rl_integral",
    "right_rl_derivative",
    "right_rl_integral",
    "GammaPoleError",
    "gamma",
    "reciprocal_gamma",
    "FracOrder",
    "Grid",
    "SampledFunction",
    "fill_endpoints",
    "sample",
    "PointField",
    "VectorField",
    "DEFAULT_BAND",
    "INVARIANCE_TOLERANCE",
    "ResidualReport",
    "VariationalProblem",
    "augmented_lagrangian",
    "certification_tolerance",
    "constraint_values",
    "endpoint_band",
    "euler_lagrange_residual",
    "frac_velocity",
    "make_report",
    "normality_check",
    "objective_value",
    "SymmetryGenerator",
    "frac_pair_operator",
    "invariance_first_order_check",
    "invariance_necessary_condition",
    "momentum_law_residual",
    "noether_law_residual",
    "AutonomyError",
    "ControlProblem",
    "PontryaginExtremal",
    "autonomous_energy_residual",
    "hamiltonian_noether_residual",
    "hamiltonian_value",
    "pontryagin_residuals",
    "Solution",
    "SolverError",
    "refine",
    "solve",
    "__version__",
]
