"""Bulk marking and the solve-estimate-mark-refine driver."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, SolverFailure, is_positive_integer
from .estimator import IndicatorField, estimate
from .fespace import FEFunction, h1_semi_error, l2_error
from .mesh import Triangulation, refine
from .solver import ProblemData, SolverConfig, fixed_point_solve, timed

logger = logging.getLogger(__name__)


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive loop.

    ``tau`` overrides the problem's relaxation parameter when set.  Left
    None, the run uses ``ProblemData.tau`` (1000 for classical), not
    ``BenchmarkProblem.adaptive_tau`` (1; 0.1 for aronsson) as ``inflap
    adapt`` does, and on classical refines far more slowly.  The dof budget
    bounds runaway refinement independently of the estimator tolerance.
    """

    estimator_tol: float
    theta: float = 0.5
    max_cycles: int = 30
    solver: SolverConfig = field(default_factory=SolverConfig)
    tau: Optional[float] = None
    dof_budget: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise InvalidArgumentError("theta must lie in (0, 1]")
        if not 0.0 < self.estimator_tol < np.inf:
            raise InvalidArgumentError("estimator_tol must be positive and finite")
        if not (self.tau is None or 0.0 < self.tau < np.inf):
            raise InvalidArgumentError("tau must be None or positive and finite")
        if not (is_positive_integer(self.max_cycles) and is_positive_integer(self.dof_budget)):
            raise InvalidArgumentError("cycle and dof budgets must be positive integers")


@dataclass
class CycleRecord:
    cycle: int
    dofs: int
    triangles: int
    estimator: float
    estimator_l1: float
    iterations: int
    converged: bool
    l2_error: Optional[float] = None
    h1_error: Optional[float] = None
    residual: Optional[float] = None


@dataclass
class AdaptiveHistory:
    records: list[CycleRecord] = field(default_factory=list)
    indicators: Optional[IndicatorField] = None     # the last cycle's, once the loop ends


def mark(indicators: IndicatorField, theta: float) -> np.ndarray:
    """Bulk criterion: smallest set carrying theta^2 of the squared total.

    Elements are taken greedily by descending indicator, ties broken by
    id; the returned ids are sorted.  Nothing is marked when all
    indicators vanish; a non-finite indicator raises.
    """
    if not 0.0 < theta <= 1.0:
        raise InvalidArgumentError("theta must lie in (0, 1]")
    if not np.isfinite(indicators.eta).all():
        raise InvalidArgumentError("indicators must be finite")
    eta_sq = indicators.eta ** 2
    order = np.argsort(-eta_sq, kind="stable")      # ties keep id order
    cumulative = np.cumsum(eta_sq[order])
    total = cumulative[-1]
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    count = int(np.searchsorted(cumulative, theta * theta * total, side="left")) + 1
    return np.sort(order[:min(count, len(eta_sq))])


def transfer(u: FEFunction, fine: Triangulation) -> FEFunction:
    """Prolong a P1 function onto a mesh produced by refining its own mesh.

    Bisection midpoints take the average of their parent edge's values,
    which reproduces the coarse function exactly.  A fine mesh whose
    vertex count or leading vertex coordinates differ from the coarse
    mesh's raises ``InvalidArgumentError``.
    """
    coarse = u.mesh
    pairs = fine.new_vertex_parents
    if (pairs is None or coarse.vertex_count + len(pairs) != fine.vertex_count
            or not np.array_equal(fine.vertex_coords[:coarse.vertex_count],
                                  coarse.vertex_coords)):
        raise InvalidArgumentError("fine mesh is not a refinement of the function's mesh")
    coefficients = np.empty(fine.vertex_count)
    coefficients[:coarse.vertex_count] = u.coefficients
    coefficients[coarse.vertex_count:] = 0.5 * (u.coefficients[pairs[:, 0]]
                                                + u.coefficients[pairs[:, 1]])
    return FEFunction(fine, coefficients)


def solve_and_measure(mesh: Triangulation, problem: ProblemData,
                      solver_config: Optional[SolverConfig], initial: Optional[FEFunction],
                      partial, where: str):
    """Solve, estimate, measure and log one mesh: the pass of both drivers.

    A ``SolverFailure`` gets ``partial``, the driver's finished records;
    ``where`` prefixes the unconverged WARNING and the INFO line.  Returns
    the report, its indicators and the fields ``EOCRow`` and ``CycleRecord``
    share, with None errors where the problem has no exact solution or
    gradient; ``residual`` is the solution's steady residual, the last of
    ``SolveReport.residuals``.  The INFO line ends with the seconds of each
    phase: the report's, then ``estimate`` and ``errors``.
    """
    try:
        report = fixed_point_solve(mesh, problem, solver_config, initial=initial)
    except SolverFailure as failure:
        failure.partial = partial
        raise
    if not report.converged:
        logger.warning("%s: fixed-point solve did not converge in %d iterations",
                       where, report.iterations)
    seconds = dict(report.seconds)
    with timed(seconds, "estimate"):
        indicators = estimate(report.solution, problem.f)
    measured = dict(dofs=mesh.vertex_count, estimator=indicators.eta_total,
                    iterations=report.iterations, converged=report.converged,
                    l2_error=None, h1_error=None, residual=report.residuals[-1])
    with timed(seconds, "errors"):
        if problem.exact_solution is not None:
            measured["l2_error"] = l2_error(report.solution, problem.exact_solution)
        if problem.exact_gradient is not None:
            measured["h1_error"] = h1_semi_error(report.solution, problem.exact_gradient)
    logger.info("%s: %d dofs, estimator %.4e, iterations %d, float64 fallbacks %d, "
                "factorizations %d, refinement LU solves %d, residual %.4e, seconds %s",
                where, mesh.vertex_count, indicators.eta_total, report.iterations,
                report.fallbacks, report.factorizations, sum(report.linear_iterations),
                measured["residual"],
                " ".join(f"{phase} {value:.4f}" for phase, value in seconds.items()))
    return report, indicators, measured


def adaptive_solve(problem: ProblemData, initial_mesh: Triangulation,
                   config: AdaptiveConfig):
    """Loop solve, estimate, mark, refine until the estimator tolerance.

    Each solve warm-starts from the previous solution prolonged onto the
    new mesh.  Returns the final solve report, the final mesh, and the
    per-cycle history with the final mesh's indicators.  Stops on the
    estimator tolerance, the cycle budget, the dof budget or an empty
    marking, whichever comes first; a stop with the last estimator above
    the tolerance logs a WARNING.  Each cycle is one
    ``solve_and_measure`` pass, which logs it and, on a solver failure,
    hands the history of the finished cycles to ``SolverFailure.partial``.
    A cycle's report and indicators are released before the next mesh is
    solved, so one mesh generation is alive at a time.
    """
    if config.tau is not None:
        problem = replace(problem, tau=config.tau)

    mesh = initial_mesh
    guess = None
    history = AdaptiveHistory()
    for cycle in range(config.max_cycles):
        report, indicators, measured = solve_and_measure(
            mesh, problem, config.solver, guess, history, f"cycle {cycle}")
        history.records.append(CycleRecord(
            cycle=cycle, triangles=mesh.triangle_count,
            estimator_l1=indicators.global_estimate, **measured))

        if indicators.eta_total <= config.estimator_tol:
            break
        if mesh.vertex_count >= config.dof_budget or cycle == config.max_cycles - 1:
            break
        marked = mark(indicators, config.theta)
        if marked.size == 0:
            break
        mesh = refine(mesh, marked)
        guess = transfer(report.solution, mesh)
        # the next solve holds only the new mesh; every exit from the loop
        # is a break above, so the returned report is the last solve's
        del report, indicators, marked
    if indicators.eta_total > config.estimator_tol:
        logger.warning("adaptive run stopped after %d cycles at %d dofs with estimator "
                       "%.4e above its tolerance %g", len(history.records),
                       mesh.vertex_count, indicators.eta_total, config.estimator_tol)
    history.indicators = indicators
    return report, mesh, history
