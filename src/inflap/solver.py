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
``fixed_point_solve`` call: the Hessian operator (per-element Hessian
blocks plus the sparse pattern of the step matrix), the load vector, the
Dirichlet values and the LU factor of the first step matrix.  A step only
contracts each element's block with its diffusion tensor and scatters the
result into the fixed pattern.  Later steps on the same mesh differ only
through the frozen gradient direction, so that factor preconditions
restarted GMRES (Saad & Schultz 1986) for them, started from the previous
step's solution; a step GMRES cannot settle is refactored and solved
directly.
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

# Largest relative residual a linear solve may return; a GMRES result is
# accepted only at 1e-2 of it.
LINEAR_SOLVER_TOL = 1e-10


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

    def __post_init__(self):
        if min(self.increment_tol_factor, self.max_iterations) <= 0:
            raise InvalidArgumentError("solver configuration values must be positive")


@dataclass
class SolveReport:
    """Outcome of a fixed-point solve.

    ``iterations`` counts linear solves.  ``linear_residuals`` holds the
    true relative residual of each step's linear solve,
    ``linear_iterations`` its GMRES iterations (0 for a step solved by a
    fresh factorisation) and ``factorizations`` the number of LU
    factorisations of step matrices (one per mesh unless GMRES had to fall
    back).
    """

    solution: FEFunction
    iterations: int
    increments: list[float] = field(default_factory=list)
    converged: bool = False
    linear_residuals: list[float] = field(default_factory=list)
    linear_iterations: list[int] = field(default_factory=list)
    factorizations: int = 0


class StepFactor:
    """Holder of the LU factor that ``solve_linear`` reuses across calls.

    ``lu`` is the SuperLU factor of the last matrix factored through this
    holder (None before the first solve), ``factorizations`` counts the
    factorisations, ``solution`` is the last solution (the start of the
    next GMRES run), and ``residual`` and ``iterations`` are the true
    relative residual and the GMRES iterations (0 when factored) of the
    last solve.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.solution = None
        self.residual = None
        self.iterations = 0


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


def load_vector(mesh: Triangulation, f) -> np.ndarray:
    """Vertex vector of integrals of f against the hat functions (order 4)."""
    rule = triangle_rule(4)
    pts = physical_points(mesh, rule)
    vals = evaluate_field(f, pts[..., 0], pts[..., 1])
    per_vertex = vals @ (rule.weights[:, None] * rule.points)   # (nt, 3)
    return np.bincount(mesh.triangle_vertices.reshape(-1), minlength=mesh.vertex_count,
                       weights=(mesh.areas[:, None] * per_vertex).reshape(-1))


def assemble_step(mesh: Triangulation, u_prev: FEFunction, h_prev: FEFunction,
                  problem: ProblemData, operator: HessianOperator | None = None,
                  load: np.ndarray | None = None):
    """Matrix and right-hand side of one linearised step.

    The matrix applies the hat-function test of A[u_prev] : H[.] with the
    tensor unknown eliminated through the recovered-Hessian operator: each
    element adds |K|/3 * (A_K : B_K) over its stencil to the rows of its
    three vertices, in the operator's fixed CSR pattern (an entry that sums
    to zero stays stored).  The matrix shares the operator's read-only
    index arrays, so copy it before changing its pattern in place.  The
    right-hand side integrates f (order-4 quadrature) plus the elementwise
    constant trace(h_prev) / tau.  Pass ``operator`` and ``load`` (the
    ``load_vector`` of f) to reuse them across iterations.
    """
    if u_prev.space.mesh is not mesh or h_prev.space.mesh is not mesh:
        raise InvalidArgumentError("u_prev and h_prev must live on the given mesh")
    if operator is None:
        operator = hessian_operator(mesh)
    elif operator.mesh is not mesh:
        raise InvalidArgumentError("hessian operator belongs to a different mesh")

    # A : B per element and stencil slot, summed in row-major component
    # order and scaled by the hat-function integral |K|/3; bincount adds the
    # elements of each matrix entry in ascending element order
    tensors = diffusion_tensor(u_prev, problem.tau).reshape(-1, 4, 1)
    blocks = operator.blocks
    weights = (((tensors[:, 0] * blocks[0] + tensors[:, 1] * blocks[1])
                + tensors[:, 2] * blocks[2]) + tensors[:, 3] * blocks[3])
    weights *= (mesh.areas / 3.0)[:, None]
    data = np.bincount(operator.slots.reshape(-1), minlength=len(operator.indices),
                       weights=np.broadcast_to(weights[:, None], operator.slots.shape).reshape(-1))
    matrix = sp.csr_matrix((data, operator.indices, operator.indptr),
                           shape=(mesh.vertex_count, mesh.vertex_count))

    # the load first, then each element's relaxation term on its vertices
    load = load_vector(mesh, problem.f) if load is None else load
    relax = mesh.areas * tensor_trace(h_prev) / (3.0 * problem.tau)
    rhs = np.bincount(np.concatenate([np.arange(mesh.vertex_count),
                                      mesh.triangle_vertices.reshape(-1)]),
                      weights=np.concatenate([load, np.repeat(relax, 3)]))
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


def _preconditioned_gmres(matrix, rhs, lu, start, rtol):
    """GMRES preconditioned by ``lu``, from ``start`` plus one LU correction.

    Returns the solution and the number of iterations, or None if GMRES
    stalls.
    """
    residuals = []

    def watch(residual):
        residuals.append(residual)
        if residual > residuals[0] * GMRES_MIN_RATE ** (len(residuals) - 1):
            raise _Stalled

    # The operator holds the bound lu.solve; it dies with this frame, so the
    # caller can drop the factor by clearing its own reference.
    preconditioner = spla.LinearOperator(matrix.shape, matvec=lu.solve, dtype=float)
    x0 = lu.solve(rhs) if start is None else start + lu.solve(rhs - matrix @ start)
    try:
        solution, _ = spla.gmres(matrix, rhs, x0=x0, rtol=rtol, atol=0.0,
                                 restart=GMRES_RESTART, maxiter=GMRES_CYCLES,
                                 M=preconditioner, callback=watch,
                                 callback_type="pr_norm")
    except _Stalled:
        return None
    return solution, len(residuals)


def solve_linear(matrix: sp.spmatrix, rhs: np.ndarray,
                 factor: StepFactor | None = None) -> np.ndarray:
    """Sparse solve with an explicit relative-residual check.

    A matrix is factored by SuperLU with the COLAMD column ordering, the
    result ``scipy.sparse.linalg.spsolve`` gives bit for bit.  With a
    ``factor`` holder that already carries an LU (of an earlier, similar
    matrix), the solve runs restarted GMRES preconditioned by that LU,
    started from the holder's last solution plus the LU solve of its
    residual, and accepts the result when GMRES does not stall and its true
    relative residual is at most ``1e-2 * LINEAR_SOLVER_TOL``.  Otherwise
    the old LU is released, ``matrix`` is factored, stored in the holder and
    solved directly.  Either way a relative residual above
    ``LINEAR_SOLVER_TOL`` raises ``SolverFailure``.
    """
    holder = factor if factor is not None else StepFactor()
    accept = 1e-2 * LINEAR_SOLVER_TOL
    solution, iterations = None, 0
    if holder.lu is not None:
        result = _preconditioned_gmres(matrix, rhs, holder.lu, holder.solution, accept)
        if result is not None:
            solution, iterations = result
            relative = _relative_residual(matrix, solution, rhs)
            if not relative <= accept:
                solution, iterations = None, 0
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
    holder.iterations = iterations
    if not relative <= LINEAR_SOLVER_TOL:
        raise SolverFailure(
            f"linear solve reached relative residual {relative:.3e} "
            f"(tolerance {LINEAR_SOLVER_TOL:.1e})", residual=relative)
    holder.solution = solution
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

    The Hessian operator (with the step-matrix pattern), load vector and
    Dirichlet values are built once per call.  The first step matrix is
    factored and its LU kept in a ``StepFactor`` that later steps pass to
    ``solve_linear``, which then solves them by preconditioned GMRES
    started from the previous step's solution.
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
    linear_iterations: list[int] = []
    h = float(mesh.diameters.max())
    tolerance = config.increment_tol_factor * h * h
    increments: list[float] = []

    for iteration in range(1, config.max_iterations + 1):
        matrix, rhs = assemble_step(mesh, current, fe_hessian(current), problem,
                                    operator, load)
        matrix, rhs = apply_dirichlet(matrix, rhs, space, problem.g, boundary_values)
        try:
            coefficients = solve_linear(matrix, rhs, factor)
        except SolverFailure as failure:
            failure.iteration = iteration
            raise
        residuals.append(factor.residual)
        linear_iterations.append(factor.iterations)
        if not np.isfinite(coefficients).all():
            raise DivergenceError("iterate has non-finite coefficients",
                                  iteration=iteration)
        proposed = FEFunction(space, coefficients)
        increment = l2_norm(FEFunction(space, proposed.coefficients - current.coefficients))
        increments.append(increment)
        logger.debug("iteration %d: increment %.3e (tolerance %.3e), "
                     "linear residual %.2e, GMRES iterations %d, factorizations %d",
                     iteration, increment, tolerance, factor.residual,
                     factor.iterations, factor.factorizations)
        if increment <= tolerance:
            return SolveReport(proposed, iteration, increments, True,
                               linear_residuals=residuals,
                               linear_iterations=linear_iterations,
                               factorizations=factor.factorizations)
        if iteration >= 6 and increments[-1] > 10.0 * increments[-6] \
                and all(b > a for a, b in zip(increments[-6:-1], increments[-5:])):
            raise DivergenceError(
                f"increments grew tenfold over five iterations "
                f"(last {increment:.3e}); try a smaller tau", iteration=iteration)
        current = proposed

    return SolveReport(current, config.max_iterations, increments, False,
                       linear_residuals=residuals,
                       linear_iterations=linear_iterations,
                       factorizations=factor.factorizations)
