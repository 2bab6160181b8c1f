"""Linearised steps and the relaxed fixed-point loop.

Each step freezes the gradient direction of the previous iterate in the
diffusion tensor

    A = (p (x) p) / |p|^2 + I / tau,      p = grad of the previous iterate,

tests A : H[next iterate] with the P1 hat functions, and augments the
right-hand side with trace(H[previous]) / tau.  The tensor-valued unknown
is eliminated locally (its mass matrix is diagonal for elementwise
constants), so the linear system is of vertex size and generally
nonsymmetric.

Everything that depends only on the mesh is built once per
``fixed_point_solve`` call: the Hessian operator, the load vector, the
Dirichlet values and the LU factor of the first step matrix.  Later steps
on the same mesh differ only through the frozen gradient direction, so
that factor preconditions restarted GMRES (Saad & Schultz 1986) for them;
a step GMRES cannot settle is refactored and solved directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DivergenceError, InvalidArgumentError, SolverFailure
from .fespace import (FEFunction, SpaceP1, evaluate_field, gradients, l2_norm,
                      physical_points, tensor_trace, triangle_rule)
from .hessian import HessianOperator, fe_hessian, hessian_operator
from .mesh import Triangulation

logger = logging.getLogger(__name__)

# Later steps on a mesh run GMRES preconditioned by the LU of an earlier
# step matrix.  A GMRES iteration costs about one LU solve, 1/25 to 1/40 of
# a factorisation at 8k to 33k dofs, so GMRES gives up and the step is
# refactored once its preconditioned residual falls by less than
# GMRES_MIN_RATE per iteration on average (at that pace the 1e-12 target
# takes more than about 20 iterations), or after GMRES_CYCLES cycles of
# GMRES_RESTART iterations.
GMRES_RESTART = 20
GMRES_CYCLES = 2
GMRES_MIN_RATE = 0.3

# Floor on |p|^2 in the diffusion tensor; it only guards the exact 0/0 case
# of an element where the frozen gradient vanishes.
GRADIENT_FLOOR = 1e-10


@dataclass
class ProblemData:
    """Right-hand side, Dirichlet data and relaxation parameter.

    ``f`` must not change sign on the domain; ``tau`` acts as the
    timestep of the underlying pseudo-evolution.  Exact solution and
    gradient are optional and only used for error reporting.
    """

    f: Callable
    g: Callable
    exact_solution: Optional[Callable] = None
    exact_gradient: Optional[Callable] = None
    tau: float = 1.0

    def __post_init__(self):
        if self.tau <= 0:
            raise InvalidArgumentError("tau must be positive")


@dataclass
class SolverConfig:
    increment_tol_factor: float = 10.0
    max_iterations: int = 100
    linear_solver_tol: float = 1e-10

    def __post_init__(self):
        if min(self.increment_tol_factor, self.max_iterations,
               self.linear_solver_tol) <= 0:
            raise InvalidArgumentError("solver configuration values must be positive")


@dataclass
class SolveReport:
    """Outcome of a fixed-point solve.

    ``iterations`` counts linear solves; ``previous`` is the iterate one
    step before ``solution``, the pair the a posteriori estimator wants.
    ``linear_residuals`` holds the true relative residual of each step's
    linear solve and ``factorizations`` the number of LU factorisations
    of step matrices (one per mesh unless GMRES had to fall back).
    """

    solution: FEFunction
    hessian: FEFunction
    iterations: int
    increments: list[float] = field(default_factory=list)
    converged: bool = False
    previous: Optional[FEFunction] = None
    linear_residuals: list[float] = field(default_factory=list)
    factorizations: int = 0


class StepFactor:
    """Holder of the LU factor that ``solve_linear`` reuses across calls.

    ``lu`` is the SuperLU factor of the last matrix factored through this
    holder (None before the first solve), ``factorizations`` counts the
    factorisations and ``residual`` is the true relative residual of the
    last solve.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.residual = None


def diffusion_tensor(u: FEFunction, tau: float) -> np.ndarray:
    """Per-element tensors (p (x) p) / max(|p|^2, GRADIENT_FLOOR) + I / tau, shape (nt, 2, 2).

    Whenever |p|^2 >= GRADIENT_FLOOR the projection part has eigenvalues
    {0, 1}, and below the floor it is smaller still, so the spectrum always
    sits inside [1/tau, 1 + 1/tau].
    """
    if tau <= 0:
        raise InvalidArgumentError("tau must be positive")
    grad = gradients(u)
    denom = np.maximum((grad ** 2).sum(axis=1), GRADIENT_FLOOR)
    out = grad[:, :, None] * grad[:, None, :] / denom[:, None, None]
    out[:, 0, 0] += 1.0 / tau
    out[:, 1, 1] += 1.0 / tau
    return out


def load_vector(mesh: Triangulation, f, order: int = 4) -> np.ndarray:
    """Vertex vector of integrals of f against the hat functions."""
    rule = triangle_rule(order)
    pts = physical_points(mesh, rule)
    vals = evaluate_field(f, pts[..., 0], pts[..., 1])
    per_vertex = vals @ (rule.weights[:, None] * rule.points)   # (nt, 3)
    out = np.zeros(mesh.vertex_count)
    np.add.at(out, mesh.triangle_vertices, mesh.areas[:, None] * per_vertex)
    return out


def assemble_step(mesh: Triangulation, u_prev: FEFunction, h_prev: FEFunction,
                  problem: ProblemData, config: SolverConfig | None = None,
                  operator: HessianOperator | None = None,
                  load: np.ndarray | None = None):
    """Matrix and right-hand side of one linearised step.

    The matrix applies the hat-function test of A[u_prev] : H[.] with the
    tensor unknown eliminated through the recovered-Hessian operator; the
    right-hand side integrates f (order-4 quadrature) plus the elementwise
    constant trace(h_prev) / tau.  Pass ``operator`` and ``load`` (the
    ``load_vector`` of f) to reuse them across iterations.  ``config`` is
    not used; it keeps the positions of the later arguments.
    """
    if u_prev.space.mesh is not mesh or h_prev.space.mesh is not mesh:
        raise InvalidArgumentError("u_prev and h_prev must live on the given mesh")
    if operator is None:
        operator = hessian_operator(mesh)
    elif operator.mesh is not mesh:
        raise InvalidArgumentError("hessian operator belongs to a different mesh")

    nt = mesh.triangle_count
    tensors = diffusion_tensor(u_prev, problem.tau)
    # frobenius pairing with each element's tensor block
    pairing = sp.csr_matrix((tensors.reshape(-1), np.arange(4 * nt),
                             4 * np.arange(nt + 1)), shape=(nt, 4 * nt))
    # hat-function integrals: |K|/3 on each vertex of K
    test = sp.csr_matrix((np.repeat(mesh.areas / 3.0, 3),
                          mesh.triangle_vertices.reshape(-1),
                          3 * np.arange(nt + 1)),
                         shape=(nt, mesh.vertex_count))
    matrix = (test.T @ (pairing @ operator.matrix)).tocsr()

    rhs = load_vector(mesh, problem.f) if load is None else load.copy()
    relax = mesh.areas * tensor_trace(h_prev) / (3.0 * problem.tau)
    np.add.at(rhs, mesh.triangle_vertices, relax[:, None])
    return matrix, rhs


def dirichlet_values(space: SpaceP1, g) -> np.ndarray:
    """g evaluated at the boundary dofs, in ``space.boundary_dofs`` order."""
    coords = space.mesh.vertex_coords[space.boundary_dofs]
    return evaluate_field(g, coords[:, 0], coords[:, 1])


def apply_dirichlet(matrix: sp.spmatrix, rhs: np.ndarray, space: SpaceP1, g,
                    boundary_values: np.ndarray | None = None):
    """Impose boundary values by row replacement with a right-hand side lift.

    Boundary rows become identity rows with g(vertex) on the right, and
    the boundary columns are folded into the right-hand side of the
    interior rows.  Pass ``boundary_values`` (``dirichlet_values`` of g)
    to skip evaluating g.  Returns new objects.
    """
    boundary = space.boundary_dofs
    values = dirichlet_values(space, g) if boundary_values is None else boundary_values

    n = space.dof_count
    lifted = np.zeros(n)
    lifted[boundary] = values
    interior = np.ones(n)
    interior[boundary] = 0.0

    new_rhs = interior * (rhs - matrix @ lifted)
    new_rhs[boundary] = values
    keep = sp.diags(interior)
    pin = sp.diags(1.0 - interior)
    new_matrix = (keep @ matrix @ keep + pin).tocsr()
    return new_matrix, new_rhs


def _relative_residual(matrix, solution, rhs) -> float:
    scale = np.linalg.norm(rhs)
    residual = np.linalg.norm(matrix @ solution - rhs) if np.isfinite(solution).all() else np.inf
    return residual / scale if scale > 0 else residual


class _Stalled(Exception):
    """GMRES converges too slowly to beat a fresh factorisation."""


def _preconditioned_gmres(matrix, rhs, lu, rtol) -> np.ndarray | None:
    """GMRES started from and preconditioned by ``lu``; None if it stalls."""
    residuals = []

    def watch(residual):
        residuals.append(residual)
        if residual > residuals[0] * GMRES_MIN_RATE ** (len(residuals) - 1):
            raise _Stalled

    # The operator holds the bound lu.solve; it dies with this frame, so the
    # caller can drop the factor by clearing its own reference.
    preconditioner = spla.LinearOperator(matrix.shape, matvec=lu.solve, dtype=float)
    try:
        solution, _ = spla.gmres(matrix, rhs, x0=lu.solve(rhs), rtol=rtol, atol=0.0,
                                 restart=GMRES_RESTART, maxiter=GMRES_CYCLES,
                                 M=preconditioner, callback=watch,
                                 callback_type="pr_norm")
    except _Stalled:
        return None
    return solution


def solve_linear(matrix: sp.spmatrix, rhs: np.ndarray,
                 config: SolverConfig | None = None,
                 factor: StepFactor | None = None) -> np.ndarray:
    """Sparse solve with an explicit relative-residual check.

    A matrix is factored by SuperLU with the COLAMD column ordering, the
    result ``scipy.sparse.linalg.spsolve`` gives bit for bit.  With a
    ``factor`` holder that already carries an LU (of an earlier, similar
    matrix), the solve runs restarted GMRES preconditioned by that LU,
    started from its solution, and accepts the result when GMRES does not
    stall and its true relative residual is at most ``1e-2 *
    linear_solver_tol``.  Otherwise the old LU is released, ``matrix`` is
    factored, stored in the holder and solved directly.  Either way a
    relative residual above ``linear_solver_tol`` raises ``SolverFailure``.
    """
    config = config if config is not None else SolverConfig()
    holder = factor if factor is not None else StepFactor()
    accept = 1e-2 * config.linear_solver_tol
    solution = None
    if holder.lu is not None:
        solution = _preconditioned_gmres(matrix, rhs, holder.lu, accept)
        if solution is not None:
            relative = _relative_residual(matrix, solution, rhs)
            if not relative <= accept:
                solution = None
    if solution is None:
        holder.lu = None        # release the old factor before building a new one
        try:
            holder.lu = spla.splu(matrix.tocsc(), permc_spec="COLAMD")
        except RuntimeError as singular:
            raise SolverFailure(f"linear solve failed: {singular}") from singular
        holder.factorizations += 1
        solution = holder.lu.solve(rhs)
        relative = _relative_residual(matrix, solution, rhs)
    holder.residual = relative
    if not relative <= config.linear_solver_tol:
        raise SolverFailure(
            f"linear solve reached relative residual {relative:.3e} "
            f"(tolerance {config.linear_solver_tol:.1e})", residual=relative)
    return solution


def default_initializer(mesh: Triangulation, problem: ProblemData,
                        load: np.ndarray | None = None,
                        boundary_values: np.ndarray | None = None) -> FEFunction:
    """Poisson start-up guess: the P1 solution of laplace(u) = f, u = g.

    Away from its critical points the guess has a usable gradient
    direction, which keeps the first diffusion tensor well defined.
    ``load`` and ``boundary_values`` reuse an already computed load vector
    of f and Dirichlet values of g.
    """
    space = SpaceP1(mesh)
    local = mesh.areas[:, None, None] * np.einsum(
        "tid,tjd->tij", mesh.basis_gradients, mesh.basis_gradients)
    verts = mesh.triangle_vertices
    rows = np.repeat(verts, 3, axis=1).reshape(-1)
    cols = np.tile(verts, (1, 3)).reshape(-1)
    stiffness = sp.coo_matrix((local.reshape(-1), (rows, cols)),
                              shape=(space.dof_count, space.dof_count)).tocsr()
    rhs = -(load_vector(mesh, problem.f) if load is None else load)
    matrix, rhs = apply_dirichlet(stiffness, rhs, space, problem.g, boundary_values)
    return FEFunction(space, solve_linear(matrix, rhs))


def fixed_point_solve(mesh: Triangulation, problem: ProblemData,
                      config: SolverConfig | None = None,
                      initial: FEFunction | None = None) -> SolveReport:
    """Iterate linearised steps until the L2 increment drops below tol * h^2.

    The tolerance is ``increment_tol_factor * h^2`` with h the largest
    element diameter.  Divergence (five consecutive growing increments
    that gain a factor ten) raises ``DivergenceError``; a failed linear
    solve propagates with its iteration index attached.

    The Hessian operator, load vector and Dirichlet values are built once
    per call.  The first step matrix is factored and its LU kept in a
    ``StepFactor`` that later steps pass to ``solve_linear``, which then
    solves them by preconditioned GMRES.
    """
    config = config if config is not None else SolverConfig()
    space = SpaceP1(mesh)
    if initial is not None and initial.space.mesh is not mesh:
        raise InvalidArgumentError("initial guess lives on a different mesh")
    load = load_vector(mesh, problem.f)
    boundary_values = dirichlet_values(space, problem.g)
    if initial is None:
        current = default_initializer(mesh, problem, load, boundary_values)
    else:
        current = initial

    operator = hessian_operator(mesh)
    factor = StepFactor()
    residuals: list[float] = []
    h = float(mesh.diameters.max())
    tolerance = config.increment_tol_factor * h * h
    increments: list[float] = []

    previous = None
    for iteration in range(1, config.max_iterations + 1):
        h_prev = fe_hessian(current)
        matrix, rhs = assemble_step(mesh, current, h_prev, problem, config, operator, load)
        matrix, rhs = apply_dirichlet(matrix, rhs, space, problem.g, boundary_values)
        try:
            coefficients = solve_linear(matrix, rhs, config, factor)
        except SolverFailure as failure:
            failure.iteration = iteration
            raise
        residuals.append(factor.residual)
        if not np.isfinite(coefficients).all():
            raise DivergenceError("iterate has non-finite coefficients",
                                  iteration=iteration)
        proposed = FEFunction(space, coefficients)
        increment = l2_norm(FEFunction(space, proposed.coefficients - current.coefficients))
        increments.append(increment)
        logger.debug("iteration %d: increment %.3e (tolerance %.3e), "
                     "linear residual %.2e, factorizations %d",
                     iteration, increment, tolerance, factor.residual,
                     factor.factorizations)
        if increment <= tolerance:
            return SolveReport(proposed, fe_hessian(proposed), iteration,
                               increments, True, previous=current,
                               linear_residuals=residuals,
                               factorizations=factor.factorizations)
        if iteration >= 6 and increments[-1] > 10.0 * increments[-6] \
                and all(b > a for a, b in zip(increments[-6:-1], increments[-5:])):
            raise DivergenceError(
                f"increments grew tenfold over five iterations "
                f"(last {increment:.3e}); try a smaller tau", iteration=iteration)
        previous = current
        current = proposed

    return SolveReport(current, fe_hessian(current), config.max_iterations,
                       increments, False, previous=previous,
                       linear_residuals=residuals,
                       factorizations=factor.factorizations)
