"""Adaptive P1 finite element solver for the inhomogeneous infinity Laplacian.

The package solves the Dirichlet problem on the square [-1, 1]^2 with a
nonvariational Galerkin method: elementwise constant Hessians are
recovered from gradient jumps, the quasilinear operator is linearised by
freezing the gradient direction with a Laplacian relaxation term, and a
residual estimator drives newest-vertex bisection.
"""

from .adapt import (AdaptiveConfig, AdaptiveHistory, CycleRecord,
                    adaptive_solve, mark, transfer)
from .bench import (BenchmarkProblem, EOCRow, EOCTable, convergence_study,
                    registry, write_csv, write_vtu)
from .errors import (DivergenceError, EvaluationError, InvalidArgumentError,
                     SolverFailure)
from .estimator import (IndicatorField, estimate, interior_residual_norms,
                        jump_residuals)
from .fespace import (FEFunction, QuadratureRule, SpaceP0Tensor, SpaceP1,
                      gradients, h1_semi_error, integrate, interpolate,
                      l2_error, l2_norm, tensor_trace, tensor_values,
                      triangle_rule)
from .hessian import HessianOperator, fe_hessian, hessian_operator
from .mesh import (Triangulation, build_initial_mesh, conformity_errors,
                   min_angle_degrees, refine, uniform_refine)
from .solver import (Discretisation, ProblemData, SolveReport, SolverConfig,
                     StepFactor, apply_dirichlet, assemble_step,
                     default_initializer, diffusion_tensor, fixed_point_solve,
                     load_vector, solve_linear)

__version__ = "0.1.0"
