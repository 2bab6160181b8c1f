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
1/tau terms cancel, leaving M_P[u] u = load.  The steady residual
R(u) = M_P[u] u - load on the interior rows measures how far an iterate
is from that discrete problem; a solve reports its norm for every iterate.

Everything that depends only on the mesh is built once per mesh.  The
``Triangulation`` holds the component-major hat-function gradients.  A
``Discretisation`` is the discrete problem of the mesh and the data f and
g, with no state of a solve: the Hessian blocks over each element's
stencil (``hessian_operator``), the step matrix's sparse pattern with
each block entry's position in it, T's values in that pattern, the load
vector, and the Dirichlet values with the mask of the entries the
Dirichlet lift drops.  ``fixed_point_solve`` builds one per call and holds
the state of the solve: tau and a ``StepFactor`` with the LU factor of the
last factored step matrix, a minimum-degree LU after a reverse
Cuthill-McKee pre-ordering.  A step computes only values: the iterate's
gradient once, component by component, P's entries, which contract each
element's block, the sums into the fixed pattern plus T / tau, the load
plus T u / tau, the masked boundary lift, and the solve.

Every linear system is solved by ``solve_linear``: iterative refinement
(Moler 1967) with one LU after another, the held factor of an earlier
step first, then a fresh float32 and a fresh float64 factor (Carson &
Higham 2018), until one does not stall.  Later steps on a mesh differ
only through the frozen gradient direction, so the held factor mostly
serves them.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
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
# a lower limit refactors more often than it saves solves.  Without the limit,
# that level took 1 factorisation and 677 LU solves.
REFACTOR_AFTER_SOLVES = 5

# Largest relative residual a linear solve may return; the refinement loop
# stops only at 1e-2 of it.
LINEAR_SOLVER_TOL = 1e-10

# The phases of a solve whose wall time ``SolveReport.seconds`` sums.
PHASES = ("hessian", "pattern", "setup", "start", "assemble", "dirichlet", "factor", "refine")


@contextmanager
def timed(seconds: dict | None, phase: str):
    """Add the block's wall time to ``seconds[phase]``, less the phases timed inside it.

    Nested blocks thus split their time, and the phases sum to the wall
    time of the outermost blocks.  ``seconds`` None times nothing.
    """
    if seconds is None:
        yield
        return
    start, inner = time.perf_counter(), sum(seconds.values())
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start - (sum(seconds.values()) - inner)
        seconds[phase] = seconds.get(phase, 0.0) + elapsed


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
    solves.  ``residuals`` holds the interior 2-norm of the steady residual
    R (``Discretisation.residual``), absolute, of the start and of every
    iterate: ``iterations + 1`` values, the last the solution's.  It says
    how far an iterate is from solving the discrete problem, unlike
    ``linear_residuals``, the true relative residual of each step's linear
    solve.  ``linear_iterations`` holds each step's ``StepFactor.lu_solves``;
    ``factorizations`` and ``fallbacks`` are the ``StepFactor``'s counts
    over the whole solve (``solve_linear`` states what each counts).
    ``seconds`` maps each of the ``PHASES`` to its summed wall time:
    ``hessian_operator``, ``step_pattern``, the rest of the
    ``Discretisation``, ``default_initializer``, ``Discretisation.system``
    with the solution's ``assemble_step``, ``apply_dirichlet``, each
    ``PermutedLU`` and each ``_refine`` loop, a phase timed inside another
    counting for itself alone (``timed``).
    """

    solution: FEFunction
    iterations: int
    increments: list[float] = field(default_factory=list)
    converged: bool = False
    residuals: list[float] = field(default_factory=list)
    linear_residuals: list[float] = field(default_factory=list)
    linear_iterations: list[int] = field(default_factory=list)
    factorizations: int = 0
    fallbacks: int = 0
    seconds: dict[str, float] = field(default_factory=dict)


class StepFactor:
    """Holder of the LU factor that ``solve_linear`` reuses across calls.

    ``lu`` is the LU of the last matrix factored through this holder (None
    before the first solve), ``solution`` the last solution (the start of
    the next refinement with ``lu``) and ``residual`` its true relative
    residual.  ``stale`` says that the last solve's final refinement took
    more than ``REFACTOR_AFTER_SOLVES`` LU solves, ``lu_solves`` counts the
    refinement LU solves of the last solve, and ``factorizations`` and
    ``fallbacks`` count over all solves; ``solve_linear`` states the rule.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.solution = None
        self.residual = None
        self.stale = False
        self.lu_solves = 0
        self.fallbacks = 0


class PermutedLU:
    """Sparse LU of ``P A P^T`` with P the reverse Cuthill-McKee ordering of A.

    The pre-ordering (Cuthill & McKee 1969) gives SuperLU's minimum-degree
    ordering on the pattern of A + A^T (Liu 1985) a banded start; on the
    vertex numbering of ``uniform_refine`` alone minimum degree fills more
    than COLAMD; with it, L+U holds 40-58 % fewer entries than with COLAMD on
    the benchmark's uniform and adaptive step matrices (8k to 131k dofs), and
    a factorisation takes a third to a half of COLAMD's time (classical at
    33,025 dofs: 4.30M entries in 0.26 s against 7.74M in 0.80 s, 2 vCPU).
    ``symmetric_mode=False`` because the Dirichlet lift's
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
    keeps the cast from under- or overflowing.  ``shape`` is A's, as for
    SuperLU's own factors.
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
        self.dtype, self.shape = np.dtype(dtype), matrix.shape
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
    ``stencil[K, s]``).  Each of the 18 nt queries carries its index
    18 K + 6 a + s; tocsc's counting sort groups the corners by vertex,
    sort_indices orders each row, and every query takes the number of the
    run of equal columns within its row that it falls in.
    """
    tris = mesh.triangle_vertices
    nt, nv = mesh.triangle_count, mesh.vertex_count
    by_vertex = sp.csr_array((np.ones(3 * nt, dtype=np.int8), tris.reshape(-1),
                              np.arange(3 * nt + 1)), shape=(3 * nt, nv)).tocsc()
    corners = by_vertex.indices.astype(np.int32)                   # 3 K + a, by vertex
    targets = 6 * corners[:, None] + np.arange(6, dtype=np.int32)
    queries = sp.csr_array(
        (targets.reshape(-1), np.take(stencil, corners // 3, axis=0).reshape(-1),
         6 * by_vertex.indptr.astype(np.int32)), shape=(nv, nv))
    queries.sort_indices()
    columns = queries.indices
    new = np.ones(len(columns), dtype=bool)
    np.not_equal(columns[1:], columns[:-1], out=new[1:])
    new[queries.indptr[:-1][np.diff(queries.indptr) > 0]] = True   # each row's first
    starts = np.flatnonzero(new)
    slots = np.empty((nt, 3, 6), dtype=np.int32)
    slots.reshape(-1)[queries.data] = np.repeat(
        np.arange(len(starts), dtype=np.int32), np.diff(starts, append=len(columns)))
    indptr = np.searchsorted(starts, queries.indptr).astype(np.int32)
    indices = columns[starts].astype(np.int32)
    for arr in (indptr, indices, slots):
        arr.setflags(write=False)
    return indptr, indices, slots


def _fill_pattern(disc: Discretisation, slots: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Values in ``disc``'s step pattern with ``weights`` summed into ``slots``.

    ``bincount`` adds the weights of each entry in their order, and an
    entry that sums to zero keeps its place.
    """
    return np.bincount(slots.reshape(-1), weights=weights.reshape(-1),
                       minlength=len(disc.indices))


def load_vector(mesh: Triangulation, f) -> np.ndarray:
    """Vertex vector of integrals of f against the hat functions (order 4)."""
    rule = triangle_rule(4)
    vals = evaluate_field(f, *physical_points(mesh, rule))
    per_vertex = vals @ (rule.weights[:, None] * rule.points)   # (nt, 3)
    return np.bincount(mesh.triangle_vertices.reshape(-1), minlength=mesh.vertex_count,
                       weights=(mesh.areas[:, None] * per_vertex).reshape(-1))


class Discretisation:
    """The discrete problem on ``mesh`` of the PDE data ``f`` and ``g``.

    It depends on the mesh and the data only, so it serves every tau and
    every step of a solve; the solve's own state (tau, the LU factor) is
    held by ``fixed_point_solve``.  A step system is values, one per entry
    of the step pattern ``indptr``/``indices`` (so a sum of two cannot drop
    an entry), and ``matrix`` makes their CSR matrix.  ``slots`` place the
    ``blocks`` over the ``stencil`` (``hessian_operator``, ``step_pattern``).
    ``relaxation`` is T: each element adds |K|/3 * (B_00 + B_11) over its
    stencil to the rows of its three vertices.  ``lifted`` is g on the
    boundary vertices and zero inside.  The Dirichlet lift zeroes the
    entries ``dropped`` (off the diagonal in boundary rows or columns) and
    sets the boundary diagonals ``pins`` to 1.  A ``seconds`` dict takes the
    ``hessian`` and ``pattern`` phases of the build (``timed``).
    """

    def __init__(self, mesh: Triangulation, problem: ProblemData,
                 seconds: dict | None = None):
        self.mesh = mesh
        with timed(seconds, "hessian"):
            self.blocks, self.stencil = hessian_operator(mesh)
        with timed(seconds, "pattern"):
            self.indptr, self.indices, self.slots = step_pattern(mesh, self.stencil)
        self.load = load_vector(mesh, problem.f)
        trace = (self.blocks[0] + self.blocks[3]) * (mesh.areas / 3.0)[:, None]
        self.relaxation = _fill_pattern(self, self.slots, np.repeat(trace, 3, axis=0))
        boundary = mesh.vertex_on_boundary
        self.lifted = np.zeros(mesh.vertex_count)
        self.lifted[boundary] = evaluate_field(problem.g, *mesh.vertex_coords[boundary].T)

        rows = np.repeat(np.arange(mesh.vertex_count), np.diff(self.indptr))
        diagonal = rows == self.indices
        self.dropped = (boundary[rows] | boundary[self.indices]) & ~diagonal
        self.pins = np.flatnonzero(diagonal & boundary[rows])

    def matrix(self, values: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix of ``values`` in the step pattern, sharing its index arrays."""
        n = len(self.indptr) - 1
        return sp.csr_matrix((values, self.indices, self.indptr), shape=(n, n))

    def residual(self, u: FEFunction, values: np.ndarray) -> np.ndarray:
        """The steady residual R(u) = M_P[u] u - load, zero on the boundary rows.

        ``values`` are ``assemble_step(self, u)``.  R has no 1/tau terms: a
        step's own ``matrix @ u - rhs`` equals R only up to the round-off
        of the two T u / tau terms it cancels, which grows as tau falls.
        """
        residual = self.matrix(values) @ u.coefficients - self.load
        residual[self.mesh.vertex_on_boundary] = 0.0
        return residual

    def system(self, u: FEFunction, tau: float):
        """Values, right-hand side and steady residual of the step from ``u``.

        The values are M_P[u] + T / tau, the right-hand side is
        load + T u / tau, and R(u) is taken from M_P[u] before T / tau is
        added, at the cost of one matrix-vector product.
        """
        values = assemble_step(self, u)
        residual = self.residual(u, values)
        values += self.relaxation / tau
        return values, self.load + (self.matrix(self.relaxation) @ u.coefficients) / tau, residual


def assemble_step(disc: Discretisation, u_prev: FEFunction) -> np.ndarray:
    """The values of the tau-free step matrix M_P[u_prev] in the step pattern.

    It applies the hat-function test of P[u_prev] : H[.] with the tensor
    unknown eliminated through the recovered-Hessian operator: each element
    adds |K|/3 * (P_K : B_K) over its stencil to the rows of its three
    vertices.  Per step, only values are computed: the gradient of
    ``u_prev`` once, component by component, P's entries from it, and one
    ``bincount`` into the fixed pattern.
    """
    mesh = disc.mesh
    if u_prev.mesh is not mesh:
        raise InvalidArgumentError("u_prev must live on the discretisation's mesh")

    # P : B per element and stencil slot, summed in row-major component
    # order and scaled by the hat-function integral |K|/3; bincount adds the
    # elements of each matrix entry in ascending element order
    p00, p01, p11 = (p[:, None] for p in diffusion_components(gradients(u_prev).T))
    blocks = disc.blocks
    weights = p00 * blocks[0]
    weights += p01 * blocks[1]
    weights += p01 * blocks[2]
    weights += p11 * blocks[3]
    weights *= (mesh.areas / 3.0)[:, None]
    return _fill_pattern(disc, disc.slots, np.repeat(weights, 3, axis=0))


def apply_dirichlet(disc: Discretisation, values: np.ndarray, rhs: np.ndarray):
    """Impose g by row replacement with a right-hand side lift.

    ``values`` must hold one value per step-pattern entry, else
    ``InvalidArgumentError``; they are left as they are.  Boundary rows
    become identity rows with g(vertex) on the right, the boundary columns
    are folded into the right-hand side of the interior rows, and entries
    that are exactly zero are dropped.  Returns new objects.
    """
    if np.shape(values) != disc.indices.shape:
        raise InvalidArgumentError("values must hold one entry per step-pattern position")
    # eliminate_zeros compacts the index arrays in place, so it runs on a copy
    matrix = disc.matrix(values).copy()
    new_rhs = np.where(disc.mesh.vertex_on_boundary, disc.lifted, rhs - matrix @ disc.lifted)
    matrix.data[disc.dropped] = 0.0
    matrix.data[disc.pins] = 1.0
    matrix.eliminate_zeros()
    return matrix, new_rhs


def _residual(matrix, solution, rhs):
    """``rhs - matrix @ solution`` and its norm relative to that of ``rhs``.

    The relative residual of a solution with a NaN or inf entry is inf.
    """
    residual = rhs - matrix @ solution
    if not np.isfinite(solution).all():
        return residual, np.inf
    norm, scale = np.linalg.norm(residual), np.linalg.norm(rhs)
    return residual, norm / scale if scale > 0 else norm


def _refine(matrix, rhs, lu, start):
    """Iterative refinement (Moler 1967) with ``lu`` from ``start``.

    From ``start=None`` the first iterate is the direct solve
    ``lu.solve(rhs)`` itself.  Each LU solve corrects the iterate by the LU
    solve of its residual, and the new iterate's true residual is computed
    once, one matrix-vector product per LU solve (and one for ``start``'s):
    its norm is the stop test and the vector the next correction's
    right-hand side.  Returns the last iterate, the LU solves, its relative
    residual and whether the loop stalled, once that residual is at most
    ``1e-2 * LINEAR_SOLVER_TOL`` or falls by less than REFINE_MIN_RATE per
    LU solve on average after the first (a stall).
    """
    solution, solves = start, 0
    residual = rhs if start is None else rhs - matrix @ start
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


def solve_linear(matrix: sp.spmatrix, rhs: np.ndarray, factor: StepFactor | None = None,
                 seconds: dict | None = None) -> np.ndarray:
    """Sparse solve by the ``_refine`` loop, gated by the true residual.

    The loop runs with one LU after another and keeps the first whose
    refinement does not stall, or the float64 one whatever happens:

    1. the ``factor`` holder's LU (of an earlier, similar matrix) from the
       holder's last solution, if it exists, has ``matrix``'s shape and is
       not ``stale``;
    2. a fresh float32 ``PermutedLU`` of ``matrix``;
    3. a fresh float64 ``PermutedLU`` of ``matrix``.

    A fresh LU replaces the holder's, which is released before the
    factorisation, and counts one of its ``factorizations``; its loop
    starts from nothing, so its first LU solve is the direct solve, which
    is not counted.  The holder's ``lu_solves`` counts every other LU solve
    of the call, those of stalled loops included, and ``stale`` is set when
    the kept loop took more than ``REFACTOR_AFTER_SOLVES`` of them.  A
    float32 LU whose cast is not finite, which SuperLU finds singular or
    whose loop stalls counts one of the holder's ``fallbacks``.  A matrix
    singular in float64, or a kept iterate whose relative residual exceeds
    ``LINEAR_SOLVER_TOL`` (infinite when it is not finite), raises
    ``SolverFailure``.  Each ``PermutedLU`` is timed as phase ``factor`` and
    each loop as ``refine`` into ``seconds``.
    """
    holder = factor if factor is not None else StepFactor()
    held = holder.lu is not None and not holder.stale and holder.lu.shape == matrix.shape
    holder.lu_solves = 0
    for dtype in [None] * held + [np.float32, np.float64]:     # None: the held LU
        start = holder.solution if dtype is None else None
        if dtype is not None:
            holder.lu = None        # release the old factor before building a new one
            try:
                with timed(seconds, "factor"):
                    holder.lu = PermutedLU(matrix, dtype)
            except RuntimeError as failure:
                if dtype is np.float64:
                    raise SolverFailure(f"linear solve failed: {failure}") from failure
                holder.fallbacks += 1
                continue
            holder.factorizations += 1
        with timed(seconds, "refine"):
            solution, solves, relative, stalled = _refine(matrix, rhs, holder.lu, start)
        solves -= dtype is not None     # a fresh LU's direct solve is no refinement
        holder.lu_solves += solves
        if not stalled or dtype is np.float64:
            break
        holder.fallbacks += dtype is np.float32
    holder.stale = solves > REFACTOR_AFTER_SOLVES
    holder.residual = relative
    if not relative <= LINEAR_SOLVER_TOL:
        raise SolverFailure(
            f"linear solve reached relative residual {relative:.3e} "
            f"(tolerance {LINEAR_SOLVER_TOL:.1e})", residual=relative)
    holder.solution = solution
    return solution


def default_initializer(disc: Discretisation, seconds: dict | None = None) -> FEFunction:
    """Poisson start-up guess: the P1 solution of laplace(u) = f, u = g.

    Away from its critical points the guess has a usable gradient
    direction, which keeps the first diffusion tensor well defined.  The
    stiffness matrix fills the step pattern through the slots of each
    element's own vertices.  ``seconds`` takes the linear solve's phases.
    """
    mesh = disc.mesh
    local = mesh.areas[:, None, None] * np.einsum(
        "dit,djt->tij", mesh.basis_components, mesh.basis_components)
    stiffness = _fill_pattern(disc, disc.slots[:, :, :3], local)
    matrix, rhs = apply_dirichlet(disc, stiffness, -disc.load)
    return FEFunction(mesh, solve_linear(matrix, rhs, seconds=seconds))


def fixed_point_solve(mesh: Triangulation, problem: ProblemData,
                      config: SolverConfig | None = None,
                      initial: FEFunction | None = None) -> SolveReport:
    """Iterate linearised steps until the L2 increment drops below tol * h^2.

    The tolerance is ``increment_tol_factor * h^2`` with h the largest
    element diameter.  Divergence (five consecutive growing increments
    that gain a factor ten) raises ``DivergenceError``; a failed linear
    solve propagates with its iteration index attached.

    One ``Discretisation`` of the mesh is built per call; the loop alone
    holds tau and the ``StepFactor``.  The first step matrix is factored,
    and later steps refine iteratively with the last LU, started from the
    previous step's solution, until ``solve_linear`` refreshes it, so a
    one-step solve is bit-identical to a fresh ``solve_linear`` of its
    system.  Each
    step's system also gives the steady residual of the iterate it starts
    from; once the loop ends, the LU is released and one more
    ``assemble_step`` gives the solution's.  The report's ``seconds`` are
    filled as the phases run.
    """
    config = config if config is not None else SolverConfig()
    if initial is not None and initial.mesh is not mesh:
        raise InvalidArgumentError("initial guess lives on a different mesh")
    seconds = dict.fromkeys(PHASES, 0.0)
    with timed(seconds, "setup"):
        disc = Discretisation(mesh, problem, seconds)
    with timed(seconds, "start"):
        current = default_initializer(disc, seconds) if initial is None else initial

    tau, factor = problem.tau, StepFactor()
    report = SolveReport(current, 0, seconds=seconds)
    h = float(mesh.diameters.max())
    tolerance = config.increment_tol_factor * h * h

    for iteration in range(1, config.max_iterations + 1):
        try:
            with timed(seconds, "assemble"):
                values, rhs, residual = disc.system(current, tau)
            report.residuals.append(float(np.linalg.norm(residual)))
            with timed(seconds, "dirichlet"):
                matrix, rhs = apply_dirichlet(disc, values, rhs)
            del values, residual        # the solve holds only the lifted copy
            proposed = FEFunction(mesh, solve_linear(matrix, rhs, factor, seconds))
        except SolverFailure as failure:
            failure.iteration = iteration
            raise
        increment = l2_norm(FEFunction(mesh, proposed.coefficients - current.coefficients))
        report.solution, report.iterations = proposed, iteration
        report.linear_residuals.append(factor.residual)
        report.linear_iterations.append(factor.lu_solves)
        report.increments.append(increment)
        report.factorizations, report.fallbacks = factor.factorizations, factor.fallbacks
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("iteration %d: increment %.3e (tolerance %.3e), steady residual "
                         "of its start %.3e, linear residual %.2e, LU solves %d, "
                         "factorizations %d, L+U fill %d", iteration, increment, tolerance,
                         report.residuals[-1], factor.residual, factor.lu_solves,
                         factor.factorizations, factor.lu.nnz)
        if increment <= tolerance:
            report.converged = True
            break
        last = report.increments[-6:]
        if iteration >= 6 and last[-1] > 10.0 * last[0] \
                and all(b > a for a, b in zip(last, last[1:])):
            raise DivergenceError(
                f"increments grew tenfold over five iterations "
                f"(last {increment:.3e}); try a smaller tau", iteration=iteration)
        current = proposed
    factor.lu = None        # release the LU before one more assembly
    final = report.solution
    with timed(seconds, "assemble"):
        residual = disc.residual(final, assemble_step(disc, final))
    report.residuals.append(float(np.linalg.norm(residual)))
    return report
