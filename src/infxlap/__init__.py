"""Solver and verification harness for the variable-exponent
infinity-Laplace equation on 2-D Riemannian frames."""

from .expressions import DomainError, ParseError, evaluate, parse
from .grid import (FrameField, FrameSingular, Grid2D, GridError, build_grid,
                   grad_ln_p, identity_frame, make_frame, riemannian_distance,
                   riemannian_gradient, sample_frame, symmetrized_hessian)
from .operators import (ExponentData, PointJet, ResidualKernel,
                        infinity_residual_at, infinity_x_residual_at,
                        infinity_x_residual_field, max_form_residual,
                        min_form_residual, pk_residual_at, sup_extremal)
from .solvers import (FactorizationError, NewtonStall, ProblemSpec,
                      SolveReport, SolverConfig, SolverError, continue_k,
                      harmonic_extension, solve_dirichlet_infinity, solve_pk)
from .verify import (CheckReport, check_comparison, check_log_gradient_bound,
                     eikonal_check, harnack_constant, lipschitz_constant,
                     make_tent_cutoff, uniqueness_probe)
from .config import ConfigError, export_field, import_field, load_problem

__version__ = "0.1.0"
