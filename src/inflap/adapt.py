"""Bulk marking and the solve-estimate-mark-refine driver."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError
from .estimator import IndicatorField, estimate
from .fespace import FEFunction, SpaceP1, h1_semi_error, l2_error
from .mesh import Triangulation, refine
from .solver import ProblemData, SolverConfig, fixed_point_solve

logger = logging.getLogger(__name__)


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive loop.

    ``tau`` overrides the problem's relaxation parameter when set.  The
    dof budget bounds runaway refinement independently of the estimator
    tolerance.
    """

    estimator_tol: float
    theta: float = 0.5
    max_cycles: int = 30
    solver: SolverConfig = field(default_factory=SolverConfig)
    tau: Optional[float] = None
    dof_budget: int = 200_000
    hessian_trace_residual: bool = False

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise InvalidArgumentError("theta must lie in (0, 1]")
        if not 0.0 < self.estimator_tol < np.inf:
            raise InvalidArgumentError("estimator_tol must be positive and finite")
        if self.max_cycles < 1 or self.dof_budget < 1:
            raise InvalidArgumentError("cycle and dof budgets must be positive")


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


@dataclass
class AdaptiveHistory:
    records: list[CycleRecord] = field(default_factory=list)


def mark(indicators: IndicatorField, theta: float) -> np.ndarray:
    """Bulk criterion: smallest set carrying theta^2 of the squared total.

    Elements are taken greedily by descending indicator, ties broken by
    id; the returned ids are sorted.  Nothing is marked when all
    indicators vanish.
    """
    if not 0.0 < theta <= 1.0:
        raise InvalidArgumentError("theta must lie in (0, 1]")
    eta_sq = indicators.eta ** 2
    order = np.lexsort((np.arange(len(eta_sq)), -eta_sq))
    cumulative = np.cumsum(eta_sq[order])
    total = cumulative[-1]
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    count = int(np.searchsorted(cumulative, theta * theta * total, side="left")) + 1
    return np.sort(order[:min(count, len(eta_sq))])


def transfer(u: FEFunction, fine: Triangulation) -> FEFunction:
    """Prolong a P1 function onto a mesh produced by refining its own mesh.

    Bisection midpoints take the average of their parent edge's values,
    which reproduces the coarse function exactly.
    """
    coarse = u.space.mesh
    pairs = fine.new_vertex_parents
    if pairs is None or coarse.vertex_count + len(pairs) != fine.vertex_count:
        raise InvalidArgumentError("fine mesh is not a refinement of the function's mesh")
    coefficients = np.empty(fine.vertex_count)
    coefficients[:coarse.vertex_count] = u.coefficients
    coefficients[coarse.vertex_count:] = 0.5 * (u.coefficients[pairs[:, 0]]
                                                + u.coefficients[pairs[:, 1]])
    return FEFunction(SpaceP1(fine), coefficients)


def adaptive_solve(problem: ProblemData, initial_mesh: Triangulation,
                   config: AdaptiveConfig):
    """Loop solve, estimate, mark, refine until the estimator tolerance.

    Each solve warm-starts from the previous solution prolonged onto the
    new mesh.  Returns the final solve report, the final mesh, and the
    per-cycle history.  Stops on the estimator tolerance, the cycle
    budget, or the dof budget, whichever comes first.
    """
    if config.tau is not None:
        problem = replace(problem, tau=config.tau)

    mesh = initial_mesh
    guess = None
    history = AdaptiveHistory()
    for cycle in range(config.max_cycles):
        report = fixed_point_solve(mesh, problem, config.solver, initial=guess)
        if not report.converged:
            logger.warning("cycle %d: fixed-point solve did not converge in %d iterations",
                           cycle, report.iterations)
        # Estimate at the self-consistent pair: plugging the returned iterate
        # into both slots makes the 1/tau jump contributions cancel exactly,
        # so the indicator measures the residual of the solution instead of
        # the (tolerance-sized) last linearisation step.
        indicators = estimate(mesh, report.solution, report.solution, problem.f,
                              problem.tau, hessian_trace=config.hessian_trace_residual)
        record = CycleRecord(
            cycle=cycle, dofs=mesh.vertex_count, triangles=mesh.triangle_count,
            estimator=indicators.eta_total, estimator_l1=indicators.global_estimate,
            iterations=report.iterations, converged=report.converged)
        if problem.exact_solution is not None:
            record.l2_error = l2_error(report.solution, problem.exact_solution)
        if problem.exact_gradient is not None:
            record.h1_error = h1_semi_error(report.solution, problem.exact_gradient)
        history.records.append(record)
        logger.info("cycle %d: %d dofs, estimator %.4e", cycle, record.dofs,
                    record.estimator)

        if indicators.eta_total <= config.estimator_tol:
            break
        if mesh.vertex_count >= config.dof_budget or cycle == config.max_cycles - 1:
            break
        marked = mark(indicators, config.theta)
        if marked.size == 0:
            break
        refined = refine(mesh, marked)
        guess = transfer(report.solution, refined)
        mesh = refined
    return report, mesh, history
