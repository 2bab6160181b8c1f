"""Adaptive P1 finite element solver for the inhomogeneous infinity Laplacian.

The package solves the Dirichlet problem on the square [-1, 1]^2 with a
nonvariational Galerkin method: elementwise constant Hessians are
recovered from gradient jumps, the quasilinear operator is linearised by
freezing the gradient direction with a Laplacian relaxation term, and a
residual estimator drives newest-vertex bisection.

The package namespace holds the user API: the pipeline, its drivers and
writers, the error norms and the types they take or return.  The steps
inside a solve or an estimate are imported from their modules.
"""

from .adapt import AdaptiveConfig, AdaptiveHistory, adaptive_solve, mark, transfer
from .bench import (BenchmarkProblem, EOCTable, convergence_study, registry, write_csv,
                    write_vtu)
from .errors import (DivergenceError, EvaluationError, InvalidArgumentError,
                     SolverFailure)
from .estimator import IndicatorField, estimate
from .fespace import FEFunction, h1_semi_error, l2_error
from .mesh import Triangulation, build_initial_mesh, refine, uniform_refine
from .solver import ProblemData, SolveReport, SolverConfig, fixed_point_solve

__version__ = "0.1.0"
