"""Linearised steps and the relaxed fixed-point loop.

Each step freezes the gradient direction p of the previous iterate u in
P = (p (x) p) / |p|^2, relaxes it by I / tau, and tests (P + I / tau) :
H[next iterate] with the P1 hat functions against the load plus
trace(H[u]) / tau.  The tensor-valued unknown is eliminated locally (its
mass matrix is diagonal for elementwise constants), so the step solves
the nonsymmetric vertex-sized system

    (M_P[u] + T / tau) u_next = load + T u / tau,

with M_P[u] the step matrix of P alone and T the hat-function test of
trace(H[.]), which depends on the mesh only.  At a fixed point the two
1/tau terms cancel, leaving M_P[u] u = load.

Everything that depends only on the mesh is built once per mesh.  The
``Triangulation`` holds the component-major hat-function gradients.  One
``Discretisation`` per ``fixed_point_solve`` call holds the Hessian
operator (per-element Hessian blocks over each element's stencil), the
step matrix's sparse pattern with each block entry's position in it, T in
that pattern, the load vector, the Dirichlet values with the pattern
positions the Dirichlet lift keeps, and the LU factor of the last factored
step matrix, a minimum-degree LU after a reverse Cuthill-McKee
pre-ordering.  Its ``step`` computes only values: the iterate's gradient
once, component by component, P's entries, which contract each element's
block, the sums into the fixed pattern plus T / tau, the load plus T u /
tau, the boundary lift by gathering the kept entries, and the solve.

Every linear system is solved by one loop of iterative refinement (Moler
1967) with one matrix-vector product per LU solve and one accept target,
``1e-2 * LINEAR_SOLVER_TOL``.  Later steps on the same mesh differ only
through the frozen gradient direction, so the loop runs with the last
factor, started from the previous step's solution.  The factor is
refreshed when the previous step needed more than ``REFACTOR_AFTER_SOLVES``
refinement LU solves or when the refinement stalls: the step matrix is
factored, and the same loop runs with the new factor from nothing, so its
first LU solve is the direct solve.

A fresh factor is computed in float32 and refined with float64 residuals
to the same accept target (Moler's own setting; Carson & Higham 2018),
which halves the stored L and U and shortens the factorisation.  It falls
back to float64 when the float32 cast of the matrix is not finite, when
SuperLU finds it singular, or when the loop from it stalls; the reports
count these fallbacks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import (DivergenceError, InvalidArgumentError, SolverFailure,
                     is_positive_integer)
from .estimator import diffusion_components
from .fespace import (FEFunction, evaluate_field, gradients, l2_norm, physical_points,
                      triangle_rule)
from .hessian import hessian_operator
from .mesh import Triangulation

logger = logging.getLogger(__name__)

# Later steps on a mesh are refined iteratively with the LU of an earlier
# step matrix.  An LU solve costs 1/25 to 1/40 of a factorisation at 8k to
# 33k dofs, so the refinement gives up and the step is refactored once its
# true residual falls by less than REFINE_MIN_RATE per LU solve on average
# (at that pace the 1e-12 target takes more than about 20 solves).
REFINE_MIN_RATE = 0.3
# A factor goes stale as the frozen gradient drifts away from the step it was
# factored for, and each later step needs more LU solves.  Once a solve took
# more than REFACTOR_AFTER_SOLVES of them, the next step matrix is factored
# afresh.  On the uniform Aronsson study (tau 1, five levels to 8,321 dofs,
# where a factorisation costs about 35 LU solves) limits 4, 5 and 6 gave 9,
# 6 and 4 factorisations with 233, 275 and 383 LU solves on the finest level,
# and the whole study took 2.8, 2.6 and 2.7 s (median of three runs, 2 vCPU):
# a lower limit refactors more often than it saves solves.
REFACTOR_AFTER_SOLVES = 5

# Largest relative residual a linear solve may return; the refinement loop
# stops only at 1e-2 of it.
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
        if not 0.0 < self.tau < np.inf:
            raise InvalidArgumentError("tau must be positive and finite")


@dataclass
class SolverConfig:
    increment_tol_factor: float = 10.0
    max_iterations: int = 100

    def __post_init__(self):
        if not (0.0 < self.increment_tol_factor < np.inf
                and is_positive_integer(self.max_iterations)):
            raise InvalidArgumentError("increment_tol_factor must be positive and finite "
                                       "and max_iterations a positive integer")


@dataclass
class SolveReport:
    """Outcome of a fixed-point solve, filled in place step by step.

    ``solution`` is the last iterate and ``iterations`` counts linear
    solves.  ``linear_residuals`` holds the true relative residual of each
    step's linear solve, ``linear_iterations`` its LU solves in iterative
    refinement, including those of a refinement that stalled but not the
    direct solve of a fresh factor (a fresh float32 factor usually takes
    one or two), ``factorizations`` the number of LU factorisations of step
    matrices (the first step's, plus one per stale factor refreshed and one
    per refinement stalled, with the previous factor or a fresh float32
    one), and ``fallbacks`` the number of fresh step factors computed in
    float64 instead of float32.
    """

    solution: FEFunction
    iterations: int
    increments: list[float] = field(default_factory=list)
    converged: bool = False
    linear_residuals: list[float] = field(default_factory=list)
    linear_iterations: list[int] = field(default_factory=list)
    factorizations: int = 0
    fallbacks: int = 0


class StepFactor:
    """Holder of the LU factor that ``solve_linear`` reuses across calls.

    ``lu`` is the ``PermutedLU`` of the last matrix factored through this
    holder (None before the first solve), ``factorizations`` counts the
    factorisations, ``solution`` is the last solution (the start of the
    next refinement), and ``residual`` and ``iterations`` are the true
    relative residual and the refinement LU solves with ``lu`` of the last
    solve, without the direct solve of a fresh ``lu``.  More than
    ``REFACTOR_AFTER_SOLVES`` such LU solves mark ``lu`` as stale: the next
    solve factors its own matrix.
    ``stalled`` counts the LU solves of the last solve's refinements that
    stalled and were refactored, with the previous factor or with a fresh
    float32 factor (without its direct solve), else 0.  ``fallbacks``
    counts the fresh factors computed in float64 instead of float32.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.solution = None
        self.residual = None
        self.iterations = 0
        self.stalled = 0
        self.fallbacks = 0


class PermutedLU:
    """Sparse LU of ``P A P^T`` with P the reverse Cuthill-McKee ordering of A.

    The pre-ordering (Cuthill & McKee 1969) gives SuperLU's minimum-degree
    ordering on the pattern of A + A^T (Liu 1985) a banded start; on the
    vertex numbering of ``uniform_refine`` alone minimum degree fills more
    than COLAMD.  ``symmetric_mode=False`` because the Dirichlet lift's
    ``eliminate_zeros`` may drop one entry of a symmetric pair.  The step
    matrices are nonsymmetric, so symmetric mode keeps partial pivoting
    with threshold 0.1: a diagonal pivot stays unless it is ten times
    smaller than the largest entry of its column.  ``nnz`` counts the
    entries SuperLU stores for L and U.  ``P A P^T`` is one row gather with
    the column indices renamed by the inverse permutation.

    The factor is computed and stored in ``dtype``: float32 by default,
    which halves the stored L and U and speeds up the factorisation, so a
    solve is accurate to about float32 precision and ``_refine`` recovers
    the rest from float64 residuals (Moler's setting; Carson & Higham,
    SIAM J. Sci. Comput. 40, 2018).  A cast of A to ``dtype`` that is not
    finite raises ``RuntimeError``, as SuperLU does for a singular matrix.
    ``solve`` scales its right-hand side by a power of two into [0.5, 1)
    before the cast and returns float64; the scale is exact, so it only
    keeps the cast from under- or overflowing.
    """

    def __init__(self, matrix: sp.spmatrix, dtype=np.float32):
        matrix = sp.csr_matrix(matrix)
        self.perm = csgraph.reverse_cuthill_mckee(matrix, symmetric_mode=False)
        inverse = np.empty_like(self.perm)
        inverse[self.perm] = np.arange(len(self.perm), dtype=self.perm.dtype)
        rows = matrix[self.perm]
        with np.errstate(over="ignore"):
            data = rows.data.astype(dtype)
        if not np.isfinite(data).all():
            raise RuntimeError(f"{np.dtype(dtype).name} cast of the matrix is not finite")
        permuted = sp.csr_matrix((data, inverse[rows.indices], rows.indptr),
                                 shape=matrix.shape)
        self.dtype = np.dtype(dtype)
        self.lu = spla.splu(permuted.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
        self.nnz = self.lu.nnz

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        _, exponent = np.frexp(np.max(np.abs(rhs), initial=0.0))
        scaled = np.ldexp(rhs[self.perm], -exponent).astype(self.dtype)
        solution = np.empty_like(rhs, dtype=float)
        solution[self.perm] = self.lu.solve(scaled)
        return np.ldexp(solution, exponent, out=solution)


def step_pattern(mesh: Triangulation, stencil: np.ndarray):
    """The step matrix's int32 CSR pattern and each block entry's position in it.

    Row i gathers the ``stencil`` of every element with vertex i.  Returns
    read-only ``indptr``, ``indices`` (sorted, no duplicates; scipy's own
    index type, so a ``csr_matrix`` on them shares them) and ``slots``,
    whose ``[K, a, s]`` is the position of the entry (vertex a of K,
    ``stencil[K, s]``).  The 12 nt queries (vertex a of K, own vertex or
    the far vertex across edge a) carry their index 18 K + 6 a + s; tocsc's
    counting sort groups them by row, sort_indices orders each row, and a
    running count of the distinct columns numbers them.  The other 6 nt
    repeat queries of the neighbor across edge m != a, whose own vertices
    these are (on the boundary, of vertex m of K), and are gathered.
    """
    tris = mesh.triangle_vertices
    nt, nv = mesh.triangle_count, mesh.vertex_count
    across = np.ascontiguousarray(mesh.corner_across.T)            # (m, nt)
    interior = across >= 0
    neighbor = np.where(interior, across // 3, np.arange(nt))
    far = np.where(interior, across % 3, np.arange(3)[:, None])

    by_vertex = sp.csr_array((np.ones(3 * nt, dtype=np.int8), tris.reshape(-1),
                              np.arange(3 * nt + 1)), shape=(3 * nt, nv)).tocsc()
    corners = by_vertex.indices.astype(np.int32)
    reach = np.empty((nt, 3, 4), dtype=np.int32)
    reach[:, :, :3] = tris[:, None]
    reach[:, :, 3] = stencil[:, 3:]
    targets = 6 * corners[:, None] + np.arange(4, dtype=np.int32)
    targets[:, 3] += corners % 3
    queries = sp.csr_array(
        (targets.reshape(-1), np.take(reach.reshape(3 * nt, 4), corners, axis=0).reshape(-1),
         4 * by_vertex.indptr.astype(np.int32)), shape=(nv, nv))
    queries.sort_indices()
    columns = queries.indices
    new = np.zeros(len(columns) + 1, dtype=bool)      # the spare marks the end
    new[queries.indptr] = True
    new[1:-1] |= columns[1:] != columns[:-1]
    distinct = np.cumsum(new, dtype=np.int32)
    slots = np.empty((nt, 3, 6), dtype=np.int32)
    slots.reshape(-1)[queries.data] = distinct[:-1] - 1
    # vertex m + step of K is vertex far - step of the neighbor across edge
    # m; on a boundary edge the query is (vertex m + step, own vertex m)
    for m in range(3):
        for step in (1, 2):
            row = np.where(interior[m], (far[m] - step) % 3, (m + step) % 3)
            slots[:, (m + step) % 3, 3 + m] = np.take(slots, 18 * neighbor[m] + 6 * row + far[m])
    indptr = (distinct[queries.indptr] - 1).astype(np.int32)
    indices = columns[new[:-1]].astype(np.int32)
    for arr in (indptr, indices, slots):
        arr.setflags(write=False)
    return indptr, indices, slots


def _fill_pattern(disc: Discretisation, slots: np.ndarray,
                  weights: np.ndarray) -> sp.csr_matrix:
    """The matrix in ``disc``'s step pattern with ``weights`` summed into ``slots``.

    ``bincount`` adds the weights of each entry in their order, and an
    entry that sums to zero stays stored.  The matrix shares the pattern's
    read-only index arrays.
    """
    data = np.bincount(slots.reshape(-1), weights=weights.reshape(-1),
                       minlength=len(disc.indices))
    n = len(disc.indptr) - 1
    return sp.csr_matrix((data, disc.indices, disc.indptr), shape=(n, n))


def load_vector(mesh: Triangulation, f) -> np.ndarray:
    """Vertex vector of integrals of f against the hat functions (order 4)."""
    rule = triangle_rule(4)
    pts = physical_points(mesh, rule)
    vals = evaluate_field(f, pts[..., 0], pts[..., 1])
    per_vertex = vals @ (rule.weights[:, None] * rule.points)   # (nt, 3)
    return np.bincount(mesh.triangle_vertices.reshape(-1), minlength=mesh.vertex_count,
                       weights=(mesh.areas[:, None] * per_vertex).reshape(-1))


class Discretisation:
    """What every linearised step of ``problem`` on ``mesh`` shares.

    ``relaxation`` is T in the step pattern ``indptr``/``indices``, whose
    ``slots`` place the operator's blocks (``step_pattern``): each element
    adds |K|/3 * (B_00 + B_11) over its stencil to the rows of its three
    vertices.  ``lifted`` is g on the boundary vertices and zero inside.
    The Dirichlet lift keeps the step-pattern positions ``kept`` (interior
    by interior, and the diagonal of each boundary row), whose int32 CSR
    pattern is ``lift_indptr``/``lift_indices``; ``pins`` are its boundary
    diagonals.  ``factor`` carries the LU that later steps reuse.
    """

    def __init__(self, mesh: Triangulation, problem: ProblemData):
        self.mesh = mesh
        self.problem = problem
        self.operator = operator = hessian_operator(mesh)
        self.indptr, self.indices, self.slots = step_pattern(mesh, operator.stencil)
        self.load = load_vector(mesh, problem.f)
        trace = (operator.blocks[0] + operator.blocks[3]) * (mesh.areas / 3.0)[:, None]
        self.relaxation = _fill_pattern(self, self.slots, np.repeat(trace, 3, axis=0))
        boundary = mesh.vertex_on_boundary
        self.lifted = np.zeros(mesh.vertex_count)
        self.lifted[boundary] = evaluate_field(problem.g, *mesh.vertex_coords[boundary].T)

        indptr, indices = self.indptr, self.indices
        rows = np.repeat(np.arange(mesh.vertex_count), np.diff(indptr))
        self.kept = np.flatnonzero(
            (rows == indices) | ~(boundary[rows] | boundary[indices])).astype(np.int32)
        self.lift_indptr = np.searchsorted(self.kept, indptr).astype(np.int32)
        self.lift_indices = indices[self.kept]
        self.pins = np.flatnonzero(boundary[self.lift_indices])
        self.factor = StepFactor()

    def system(self, u: FEFunction):
        """Matrix M_P[u] + T / tau and right-hand side load + T u / tau of the step from ``u``."""
        matrix = assemble_step(self, u)
        tau = self.problem.tau
        matrix.data += self.relaxation.data / tau
        return matrix, self.load + (self.relaxation @ u.coefficients) / tau

    def step(self, u: FEFunction) -> FEFunction:
        """The next iterate: one linearised step from ``u``, solved with ``factor``."""
        matrix, rhs = apply_dirichlet(self, *self.system(u))
        return FEFunction(self.mesh, solve_linear(matrix, rhs, self.factor))


def assemble_step(disc: Discretisation, u_prev: FEFunction) -> sp.csr_matrix:
    """The tau-free step matrix M_P[u_prev].

    It applies the hat-function test of P[u_prev] : H[.] with the tensor
    unknown eliminated through the recovered-Hessian operator: each element
    adds |K|/3 * (P_K : B_K) over its stencil to the rows of its three
    vertices, in the fixed step pattern.  Per step, only values
    are computed: the gradient of ``u_prev`` once, component by component,
    P's entries from it, and one ``bincount`` into the fixed pattern.
    """
    mesh = disc.mesh
    if u_prev.mesh is not mesh:
        raise InvalidArgumentError("u_prev must live on the discretisation's mesh")

    # P : B per element and stencil slot, summed in row-major component
    # order and scaled by the hat-function integral |K|/3; bincount adds the
    # elements of each matrix entry in ascending element order
    p00, p01, p11 = (p[:, None] for p in diffusion_components(gradients(u_prev).T))
    blocks = disc.operator.blocks
    weights = p00 * blocks[0]
    weights += p01 * blocks[1]
    weights += p01 * blocks[2]
    weights += p11 * blocks[3]
    weights *= (mesh.areas / 3.0)[:, None]
    return _fill_pattern(disc, disc.slots, np.repeat(weights, 3, axis=0))


def apply_dirichlet(disc: Discretisation, matrix: sp.csr_matrix, rhs: np.ndarray):
    """Impose g by row replacement with a right-hand side lift.

    ``matrix`` must be a CSR matrix in the step pattern (a sparse sum drops
    the entries that cancel), else ``InvalidArgumentError``; a step's matrix
    holds views of ``disc``'s index arrays, which is checked first, in O(1).
    Boundary rows become identity rows with g(vertex) on the right, the
    boundary columns are folded into the right-hand side of the interior
    rows, and entries that are exactly zero are dropped.  Returns new objects.
    """
    if matrix.format != "csr" or not all(
            held.__array_interface__ == ours.__array_interface__ or np.array_equal(held, ours)
            for held, ours in ((matrix.indptr, disc.indptr), (matrix.indices, disc.indices))):
        raise InvalidArgumentError("matrix must be a CSR matrix in the step pattern")
    boundary = disc.mesh.vertex_on_boundary
    new_rhs = np.where(boundary, disc.lifted, rhs - matrix @ disc.lifted)
    data = matrix.data[disc.kept]
    data[disc.pins] = 1.0
    # eliminate_zeros compacts the index arrays in place, so give it copies
    new_matrix = sp.csr_matrix((data, disc.lift_indices.copy(), disc.lift_indptr.copy()),
                               shape=matrix.shape)
    new_matrix.eliminate_zeros()
    return new_matrix, new_rhs


def _residual(matrix, solution, rhs):
    """``rhs - matrix @ solution`` and its norm relative to that of ``rhs``.

    The relative residual of a solution with a NaN or inf entry is inf.
    """
    residual = rhs - matrix @ solution
    if not np.isfinite(solution).all():
        return residual, np.inf
    norm, scale = np.linalg.norm(residual), np.linalg.norm(rhs)
    return residual, norm / scale if scale > 0 else norm


def _refine(matrix, rhs, lu, start, residual):
    """Iterative refinement (Moler 1967) with ``lu`` from ``start``.

    ``residual`` is ``rhs - matrix @ start``, or ``rhs`` for ``start=None``,
    whose first iterate is the direct solve ``lu.solve(rhs)`` itself.  Each
    LU solve corrects the iterate by the LU solve of its residual, and the
    new iterate's true residual is computed once, one matrix-vector product
    per LU solve: its norm is the stop test and the vector the next
    correction's right-hand side.  Returns the last iterate, the LU solves,
    its relative residual and whether the loop stalled, once that residual
    is at most ``1e-2 * LINEAR_SOLVER_TOL`` or falls by less than
    REFINE_MIN_RATE per LU solve on average after the first (a stall).
    """
    solution, solves = start, 0
    while True:
        correction = lu.solve(residual)
        solution = correction if solution is None else solution + correction
        solves += 1
        residual, relative = _residual(matrix, solution, rhs)
        if relative <= 1e-2 * LINEAR_SOLVER_TOL:
            return solution, solves, relative, False
        if solves == 1:
            first = relative
        elif not relative < first * REFINE_MIN_RATE ** (solves - 1):
            return solution, solves, relative, True


def solve_linear(matrix: sp.spmatrix, rhs: np.ndarray,
                 factor: StepFactor | None = None) -> np.ndarray:
    """Sparse solve by the ``_refine`` loop, gated by the true residual.

    With a ``factor`` holder whose LU (of an earlier, similar matrix) is not
    stale, that is, whose last solve took at most ``REFACTOR_AFTER_SOLVES``
    refinement LU solves, the loop starts from the holder's last solution.
    With no such LU, or when that loop stalls (its LU solves go to the
    holder's ``stalled``), the old LU is released, ``matrix`` is factored as
    a float32 ``PermutedLU`` and the loop starts from nothing, so its first
    LU solve is the direct solve.  When the float32 cast is not finite,
    SuperLU finds it singular or its loop stalls, the matrix is factored
    in float64 instead and the holder's ``fallbacks`` grows by one.  A
    matrix singular in float64, or a last iterate whose relative residual
    exceeds ``LINEAR_SOLVER_TOL`` (infinite when it is not finite), raises
    ``SolverFailure``.
    """
    holder = factor if factor is not None else StepFactor()
    holder.stalled = 0
    stalled = True
    if holder.lu is not None and holder.iterations <= REFACTOR_AFTER_SOLVES:
        start = holder.solution
        solution, solves, relative, stalled = _refine(
            matrix, rhs, holder.lu, start, rhs if start is None else rhs - matrix @ start)
        if stalled:
            holder.stalled = solves
    if stalled:
        holder.lu = None        # release the old factor before building a new one
        # a fresh factor is float32 unless its cast is not finite, SuperLU
        # finds it singular or the loop from it stalls
        for dtype in (np.float32, np.float64):
            try:
                holder.lu = PermutedLU(matrix, dtype)
            except RuntimeError as failure:
                if dtype == np.float64:
                    raise SolverFailure(f"linear solve failed: {failure}") from failure
            else:
                holder.factorizations += 1
                solution, solves, relative, stalled = _refine(matrix, rhs, holder.lu, None, rhs)
                solves -= 1     # the direct solve is no refinement
                if not stalled or dtype == np.float64:
                    break
                holder.stalled += solves
                holder.lu = None
            holder.fallbacks += 1
    holder.iterations = solves
    holder.residual = relative
    if not relative <= LINEAR_SOLVER_TOL:
        raise SolverFailure(
            f"linear solve reached relative residual {relative:.3e} "
            f"(tolerance {LINEAR_SOLVER_TOL:.1e})", residual=relative)
    holder.solution = solution
    return solution


def default_initializer(disc: Discretisation) -> FEFunction:
    """Poisson start-up guess: the P1 solution of laplace(u) = f, u = g.

    Away from its critical points the guess has a usable gradient
    direction, which keeps the first diffusion tensor well defined.  The
    stiffness matrix fills the step pattern through the slots of each
    element's own vertices.
    """
    mesh = disc.mesh
    local = mesh.areas[:, None, None] * np.einsum(
        "tid,tjd->tij", mesh.basis_gradients, mesh.basis_gradients)
    stiffness = _fill_pattern(disc, disc.slots[:, :, :3], local)
    matrix, rhs = apply_dirichlet(disc, stiffness, -disc.load)
    return FEFunction(mesh, solve_linear(matrix, rhs))


def fixed_point_solve(mesh: Triangulation, problem: ProblemData,
                      config: SolverConfig | None = None,
                      initial: FEFunction | None = None) -> SolveReport:
    """Iterate linearised steps until the L2 increment drops below tol * h^2.

    The tolerance is ``increment_tol_factor * h^2`` with h the largest
    element diameter.  Divergence (five consecutive growing increments
    that gain a factor ten) raises ``DivergenceError``; a failed linear
    solve propagates with its iteration index attached.

    One ``Discretisation`` of the mesh is built per call, and each
    iteration is its ``step``.  The first step matrix is factored, and
    later steps refine iteratively with the last LU, started from the
    previous step's solution, until ``solve_linear`` refreshes it.
    """
    config = config if config is not None else SolverConfig()
    if initial is not None and initial.mesh is not mesh:
        raise InvalidArgumentError("initial guess lives on a different mesh")
    disc = Discretisation(mesh, problem)
    current = default_initializer(disc) if initial is None else initial

    factor = disc.factor
    report = SolveReport(current, 0)
    h = float(mesh.diameters.max())
    tolerance = config.increment_tol_factor * h * h

    for iteration in range(1, config.max_iterations + 1):
        try:
            proposed = disc.step(current)
        except SolverFailure as failure:
            failure.iteration = iteration
            raise
        lu_solves = factor.iterations + factor.stalled
        increment = l2_norm(FEFunction(mesh, proposed.coefficients - current.coefficients))
        report.solution, report.iterations = proposed, iteration
        report.linear_residuals.append(factor.residual)
        report.linear_iterations.append(lu_solves)
        report.increments.append(increment)
        report.factorizations, report.fallbacks = factor.factorizations, factor.fallbacks
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("iteration %d: increment %.3e (tolerance %.3e), "
                         "linear residual %.2e, LU solves %d, factorizations %d, "
                         "L+U fill %d", iteration, increment, tolerance, factor.residual,
                         lu_solves, factor.factorizations, factor.lu.nnz)
        if increment <= tolerance:
            report.converged = True
            return report
        last = report.increments[-6:]
        if iteration >= 6 and last[-1] > 10.0 * last[0] \
                and all(b > a for a, b in zip(last, last[1:])):
            raise DivergenceError(
                f"increments grew tenfold over five iterations "
                f"(last {increment:.3e}); try a smaller tau", iteration=iteration)
        current = proposed
    return report
