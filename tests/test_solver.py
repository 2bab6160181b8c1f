import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from inflap import (DivergenceError, FEFunction, InvalidArgumentError, SolverFailure,
                    SolverConfig, build_initial_mesh, estimate, fixed_point_solve,
                    l2_error, refine, registry, uniform_refine)
from inflap.bench import convergence_study
from inflap.estimator import diffusion_components
from inflap.fespace import gradients, l2_norm
from inflap.hessian import fe_hessian
from inflap.solver import (LINEAR_SOLVER_TOL, PHASES, Discretisation, PermutedLU, ProblemData,
                           StepFactor, apply_dirichlet, assemble_step,
                           default_initializer, load_vector, solve_linear)
import inflap.solver
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (add_at_load_vector, add_at_squared_indicators,
                      add_at_trace_test, bincount_assemble_step, bincount_fe_hessian,
                      brute_saddle, centroids, coo_hessian_matrix, coo_poisson_stiffness,
                      edge_dictionary, interpolate, kernel_functions, kernel_meshes,
                      oracle_meshes, outer_diffusion_tensor,
                      perturbed_mesh, schur_eliminate, sparse_product_dirichlet,
                      sparse_product_step_matrix, two_product_refine, weighted_residuals)

CLASSICAL = registry()["classical"].data
ARONSSON = registry()["aronsson"].data


# ------------------------------------------------------------ diffusion tensor

def _tensors(u):
    """The (nt, 2, 2) tensors P of ``u`` from their entries p00, p01, p11."""
    p00, p01, p11 = diffusion_components(gradients(u).T)
    return np.stack([p00, p01, p01, p11], axis=-1).reshape(-1, 2, 2)


def test_diffusion_tensor_formula():
    mesh = build_initial_mesh(1)
    # gradient (1, 0) on every element
    u = interpolate(mesh, lambda x, y: x + 0.0 * y)
    assert np.allclose(_tensors(u), [[1.0, 0.0], [0.0, 0.0]])

    # degenerate gradient: the floor keeps P at zero
    flat = FEFunction(mesh, np.zeros(mesh.vertex_count))
    assert np.all(_tensors(flat) == 0.0)

    diag = interpolate(mesh, lambda x, y: x + y)
    assert np.allclose(_tensors(diag), [[0.5, 0.5], [0.5, 0.5]])


def test_diffusion_tensor_eigenvalue_bounds():
    # P has eigenvalues {0, 1} when |p|^2 >= GRADIENT_FLOOR and smaller
    # ones below, so its spectrum sits inside [0, 1]
    mesh = refine(build_initial_mesh(2), {0, 3, 9})
    rng = np.random.default_rng(2)
    for scale in (1e-6, 1.0, 1e3):
        u = FEFunction(mesh, scale * rng.standard_normal(mesh.vertex_count))
        eigs = np.linalg.eigvalsh(_tensors(u))
        assert eigs.min() >= -1e-12
        assert eigs.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
def test_problem_data_rejects_bad_tau(tau):
    # the step divides by tau, and ProblemData is where it is checked
    with pytest.raises(InvalidArgumentError):
        replace(ARONSSON, tau=tau)


# -------------------------------------------------------------------- assembly

def test_step_matrix_sparsity_stencil():
    # rows may reach the vertex patch plus the patches of edge neighbors
    mesh = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: x * x + y * y)
    disc = Discretisation(mesh, CLASSICAL)
    matrix = disc.matrix(disc.system(u, CLASSICAL.tau)[0])

    patches = {i: set() for i in range(mesh.vertex_count)}
    for k, verts in enumerate(mesh.triangle_vertices):
        for i in verts:
            patches[int(i)].add(k)
    neighbors = {}
    for adjacent in edge_dictionary(mesh).values():
        if len(adjacent) == 2:
            t0, t1 = adjacent
            neighbors.setdefault(t0, set()).add(t1)
            neighbors.setdefault(t1, set()).add(t0)
    for i in range(mesh.vertex_count):
        allowed = set()
        for k in patches[i]:
            allowed.update(mesh.triangle_vertices[k])
            for other in neighbors.get(k, ()):
                allowed.update(mesh.triangle_vertices[other])
        row = matrix.getrow(i)
        touched = set(row.indices[np.abs(row.data) > 1e-14])
        assert touched <= allowed


def test_rhs_vanishes_for_affine_previous_iterate_and_zero_f():
    mesh = build_initial_mesh(2)
    problem = ProblemData(f=lambda x, y: np.zeros(np.shape(x)),
                          g=lambda x, y: x, tau=5.0)
    u = interpolate(mesh, lambda x, y: 2.0 * x - y)
    _, rhs, _ = Discretisation(mesh, problem).system(u, problem.tau)
    interior = ~mesh.vertex_on_boundary
    assert np.abs(rhs[interior]).max() <= 1e-13


def test_assembly_against_coupled_saddle_oracle():
    # brute-force coupled system, Schur-eliminated onto the vertex block
    mesh = build_initial_mesh(1)
    u = interpolate(mesh, lambda x, y: x * x + y * y)
    disc = Discretisation(mesh, CLASSICAL)
    values, rhs, _ = disc.system(u, CLASSICAL.tau)

    saddle, rhs_for, _ = brute_saddle(mesh, u.coefficients, CLASSICAL.f,
                                      CLASSICAL.g, CLASSICAL.tau, dirichlet=False)
    oracle_matrix = schur_eliminate(saddle, mesh.vertex_count)
    oracle_rhs = rhs_for(fe_hessian(u))

    assert np.abs(disc.matrix(values).toarray() - oracle_matrix).max() <= 1e-12
    assert np.abs(rhs - oracle_rhs[:mesh.vertex_count]).max() <= 1e-12


@pytest.mark.parametrize("mesh", oracle_meshes(),
                         ids=["uniform", "random-local", "axis-graded"])
def test_step_matrix_is_bit_identical_to_sparse_product_oracle(mesh):
    # the blocks refilled into the fixed pattern give exactly the sums of
    # the COO-assembled operator and its two sparse products with the
    # tau-free tensors P, before and after the Dirichlet lift; the masked
    # lift drops the explicit zeros the fixed pattern keeps, as the diagonal
    # products do
    disc = Discretisation(mesh, ARONSSON)
    u = interpolate(mesh, lambda x, y: np.abs(x) ** (4 / 3) - np.abs(y) ** (4 / 3)
                    + 0.1 * np.sin(3.0 * x * y))
    values = assemble_step(disc, u)
    oracle = sparse_product_step_matrix(mesh, outer_diffusion_tensor(u, np.inf),
                                        coo_hessian_matrix(mesh))
    assert np.array_equal(disc.matrix(values).toarray(), oracle.toarray())

    ours, ours_rhs = apply_dirichlet(disc, values, disc.load)
    theirs, theirs_rhs = sparse_product_dirichlet(oracle, disc.load, mesh, ARONSSON.g)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name))
    assert np.array_equal(ours_rhs, theirs_rhs)


@pytest.mark.parametrize("name", list(kernel_meshes()))
def test_assemble_step_is_bit_identical_to_row_major_assembly(name):
    # one component-major gradient per step feeds the entries of P; the
    # sums are those of the (nt, 2, 2) assembly with the tau-free tensors
    mesh = kernel_meshes()[name]
    disc = Discretisation(mesh, ARONSSON)
    for u in kernel_functions(mesh):
        values = assemble_step(disc, u)
        data, _ = bincount_assemble_step(disc, u, tau=np.inf)
        # the matrix holds the discretisation's int32 pattern, not cast copies
        matrix = disc.matrix(values)
        assert np.shares_memory(matrix.indices, disc.indices)
        assert np.shares_memory(matrix.indptr, disc.indptr)
        assert np.array_equal(matrix.data, data)
        assert np.array_equal(_tensors(u), outer_diffusion_tensor(u, np.inf))


@pytest.mark.parametrize("name", list(kernel_meshes()))
def test_relaxation_matrix_tests_the_hessian_trace(name):
    # T is the hat-function test of trace(H[.]): it annihilates affine
    # functions on every row, and T u is the vertex sum of |K| trace(H_K) / 3
    mesh = kernel_meshes()[name]
    disc = Discretisation(mesh, ARONSSON)
    relaxation = disc.matrix(disc.relaxation)
    scale = np.abs(disc.relaxation).max()
    for affine in (lambda x, y: 1.0 + 0.0 * x, lambda x, y: x, lambda x, y: y):
        assert np.abs(relaxation @ interpolate(mesh, affine).coefficients).max() <= 1e-15 * scale
    # the terms are of size max|T| max|u| and cancel down to trace(H)
    for u in kernel_functions(mesh):
        oracle = add_at_trace_test(mesh, bincount_fe_hessian(u))
        assert np.abs(relaxation @ u.coefficients - oracle).max() <= \
            1e-15 * scale * np.abs(u.coefficients).max()


@pytest.mark.parametrize("name", list(kernel_meshes()))
def test_step_system_agrees_with_the_relaxed_row_major_assembly(name):
    # M_P + T / tau and load + T u / tau against the (nt, 2, 2) assembly
    # with P + I / tau, relative to the size of the terms each one sums; one
    # discretisation of the mesh serves every tau
    mesh = kernel_meshes()[name]
    disc = Discretisation(mesh, ARONSSON)
    for tau in (0.1, 1.0, 1000.0):
        for u in kernel_functions(mesh):
            values, rhs, _ = disc.system(u, tau)
            data, oracle_rhs = bincount_assemble_step(disc, u, tau)
            assert np.abs(values - data).max() <= 1e-14 * np.abs(data).max()
            terms = np.abs(disc.load).max() + \
                np.abs(disc.relaxation).max() * np.abs(u.coefficients).max() / tau
            assert np.abs(rhs - oracle_rhs).max() <= 1e-14 * terms


def test_step_matrix_matches_oracle_on_a_perturbed_mesh():
    # on general triangles the oracle's duplicate sums run in another order,
    # so the two agree to rounding only; the masked lift of the same values
    # is still exactly that of the diagonal products
    mesh = perturbed_mesh()
    u = interpolate(mesh, lambda x, y: x * x - 0.5 * x * y + np.exp(y))
    disc = Discretisation(mesh, CLASSICAL)
    values, rhs, _ = disc.system(u, CLASSICAL.tau)
    oracle = sparse_product_step_matrix(mesh, outer_diffusion_tensor(u, CLASSICAL.tau),
                                        coo_hessian_matrix(mesh)).toarray()
    assert np.abs(disc.matrix(values).toarray() - oracle).max() <= 1e-14 * np.abs(oracle).max()

    ours, ours_rhs = apply_dirichlet(disc, values, rhs)
    theirs, theirs_rhs = sparse_product_dirichlet(disc.matrix(values), rhs, mesh, CLASSICAL.g)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name))
    assert np.array_equal(ours_rhs, theirs_rhs)


@pytest.mark.parametrize("mesh", oracle_meshes() + [perturbed_mesh()],
                         ids=["uniform", "random-local", "axis-graded", "perturbed"])
def test_vertex_and_element_sums_are_bit_identical_to_add_at_oracles(mesh):
    # bincount adds each entry's terms in the order np.add.at does, after
    # the base value (interior**2) it starts from
    problem = ProblemData(f=lambda x, y: np.sin(2.0 * x) + y * y, g=ARONSSON.g, tau=0.3)
    u = interpolate(mesh, lambda x, y: np.abs(x) ** (4 / 3) - np.abs(y) ** (4 / 3)
                    + 0.1 * np.sin(3.0 * x * y))
    assert np.array_equal(load_vector(mesh, problem.f), add_at_load_vector(mesh, problem.f))

    v = FEFunction(mesh, u.coefficients + 0.01 * np.cos(5.0 * mesh.vertex_coords[:, 0]))
    indicators = estimate(v, problem.f)
    eta_sq = add_at_squared_indicators(mesh, *weighted_residuals(v, problem.f))
    assert np.array_equal(indicators.eta, np.sqrt(eta_sq))
    assert indicators.eta_total == float(np.sqrt(eta_sq.sum()))


def test_assemble_step_rejects_mesh_mismatch():
    mesh = build_initial_mesh(1)
    other = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: x)
    wrong = interpolate(other, lambda x, y: x)
    disc = Discretisation(mesh, CLASSICAL)
    with pytest.raises(InvalidArgumentError):
        assemble_step(disc, wrong)


@pytest.mark.parametrize("steps", [1, 2])
def test_eliminated_iterates_match_coupled_system(steps):
    # meshes up to 32 triangles, iterate both paths and compare
    for mesh in (build_initial_mesh(1),
                 uniform_refine(build_initial_mesh(1)),
                 refine(uniform_refine(build_initial_mesh(1)), {0, 5})):
        assert mesh.triangle_count <= 32
        disc = Discretisation(mesh, CLASSICAL)
        u_ours = interpolate(mesh, lambda x, y: x * x + y * y)
        u_oracle = u_ours
        for _ in range(steps):
            matrix, rhs = apply_dirichlet(disc, *disc.system(u_ours, CLASSICAL.tau)[:2])
            u_ours = FEFunction(mesh, solve_linear(matrix, rhs)[0])

            saddle, rhs_for, _ = brute_saddle(mesh, u_oracle.coefficients,
                                              CLASSICAL.f, CLASSICAL.g,
                                              CLASSICAL.tau)
            h_prev = fe_hessian(u_oracle)
            full = np.linalg.solve(saddle, rhs_for(h_prev))
            u_oracle = FEFunction(mesh, full[:mesh.vertex_count])
        assert np.abs(u_ours.coefficients - u_oracle.coefficients).max() <= 1e-10


def _criterion_6_meshes():
    """The meshes of acceptance criterion 6 (up to 32 triangles) and a perturbed mesh."""
    small = uniform_refine(build_initial_mesh(1))
    return [build_initial_mesh(1), small, refine(small, {0, 5}), perturbed_mesh()]


@pytest.mark.parametrize("problem", [CLASSICAL, ARONSSON], ids=["classical", "aronsson"])
@pytest.mark.parametrize("mesh", _criterion_6_meshes(),
                         ids=["one-square", "uniform", "local", "perturbed"])
def test_steady_residual_matches_coupled_system_without_relaxation(mesh, problem):
    # R(u) = M_P[u] u - load on the interior rows is the residual of the
    # coupled system at tau = inf, its Hessian block eliminated; the step
    # system returns the same vector
    nv = mesh.vertex_count
    disc = Discretisation(mesh, problem)
    smooth = interpolate(mesh, lambda x, y: x * x - 0.5 * x * y + np.exp(y))
    noise = FEFunction(mesh, np.random.default_rng(nv).standard_normal(nv))
    for u in (smooth, noise):
        residual = disc.residual(u, assemble_step(disc, u))
        saddle, rhs_for, boundary = brute_saddle(mesh, u.coefficients, problem.f, problem.g,
                                                 np.inf, dirichlet=False)
        oracle = schur_eliminate(saddle, nv) @ u.coefficients - rhs_for(fe_hessian(u))[:nv]
        oracle[boundary] = 0.0
        assert np.abs(residual - oracle).max() <= 1e-12
        assert np.array_equal(disc.system(u, 0.1)[2], residual)


# ------------------------------------------------------------------- dirichlet

def test_dirichlet_rows_and_values():
    mesh = build_initial_mesh(2)
    disc = Discretisation(mesh, CLASSICAL)
    u = interpolate(mesh, lambda x, y: x * x + y * y)
    matrix, rhs, _ = disc.system(u, CLASSICAL.tau)

    homogeneous = Discretisation(mesh, replace(CLASSICAL, g=lambda x, y: np.zeros(np.shape(x))))
    zeroed, zrhs = apply_dirichlet(homogeneous, matrix, rhs)
    boundary = np.flatnonzero(mesh.vertex_on_boundary)
    assert np.abs(zrhs[boundary]).max() == 0.0

    matrix, rhs = apply_dirichlet(disc, matrix, rhs)
    solution = solve_linear(matrix, rhs)[0]
    coords = mesh.vertex_coords[boundary]
    assert solution[boundary] == pytest.approx(
        (coords ** 2).sum(axis=1), abs=1e-12)
    corner = np.flatnonzero((mesh.vertex_coords == [1.0, 1.0]).all(axis=1))[0]
    assert solution[corner] == pytest.approx(2.0)


def test_dirichlet_rejects_values_that_are_not_one_per_pattern_entry():
    # the lift masks the step pattern's entries, so it takes their values
    # only, not a shortened or 2-D array nor a matrix passed by mistake
    disc = Discretisation(uniform_refine(build_initial_mesh(4)), ARONSSON)
    values = disc.relaxation
    for wrong in (values[:-1], values[None, :], disc.matrix(values)):
        with pytest.raises(InvalidArgumentError, match="step-pattern"):
            apply_dirichlet(disc, wrong, disc.load)


def test_dirichlet_leaves_its_values_as_they_are():
    # the lift writes its own copy: T, passed directly, is reused by every step
    disc = Discretisation(uniform_refine(build_initial_mesh(4)), ARONSSON)
    before = disc.relaxation.copy()
    matrix, _ = apply_dirichlet(disc, disc.relaxation, disc.load)
    assert matrix.nnz < len(before)
    assert np.array_equal(disc.relaxation, before)
    assert not np.shares_memory(matrix.data, disc.relaxation)


# ---------------------------------------------------------------- linear solve

def test_solve_linear_identity_and_diagonal():
    identity = sp.identity(4, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(solve_linear(identity, rhs)[0], rhs)

    system = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(solve_linear(system, np.array([2.0, 4.0]))[0], [1.0, 1.0])


def test_solve_linear_residual_contract():
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
    matrix = sp.csr_matrix(dense)
    rhs = rng.standard_normal(20)
    x, relative, _ = solve_linear(matrix, rhs)
    residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-10 and relative == residual


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_solve_linear_singular_system_fails():
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverFailure, match="^linear solve (failed|reached relative residual)"):
        solve_linear(singular, np.array([1.0, 0.0]))


def _step_system(mesh, problem):
    """The first step's lifted matrix and right-hand side from the Poisson start."""
    disc = Discretisation(mesh, problem)
    u = default_initializer(disc)
    return apply_dirichlet(disc, *disc.system(u, problem.tau)[:2])


def _corner_graded_mesh():
    """About 5,000 dofs graded toward the corner (1, 1) down to diameter 8e-6."""
    mesh = uniform_refine(build_initial_mesh(4))
    for _ in range(30):
        distance = np.hypot(*(centroids(mesh) - 1.0).T)
        mesh = refine(mesh, np.flatnonzero(mesh.diameters > 0.1 * distance))
    return mesh


@pytest.mark.parametrize("kind", ["uniform", "corner-graded"])
def test_factor_fills_less_than_colamd_and_meets_the_gate(kind):
    # the benchmark problems' first step matrices (classical at tau 1000,
    # Aronsson at tau 1 and at the adaptive runs' tau 0.1): the float32
    # factor's loop meets the accept target without a float64 fallback
    mesh = build_initial_mesh(4)
    if kind == "uniform":
        for _ in range(4):
            mesh = uniform_refine(mesh)
        assert mesh.vertex_count == 8321
    else:
        mesh = _corner_graded_mesh()
    for problem in (replace(CLASSICAL, tau=1000.0), ARONSSON, replace(ARONSSON, tau=0.1)):
        matrix, rhs = _step_system(mesh, problem)
        holder = StepFactor()
        _, relative, _ = solve_linear(matrix, rhs, factor=holder)
        assert holder.lu.dtype == np.float32
        # no float32 loop stalled: that would have counted a fallback
        assert holder.fallbacks == 0 and holder.factorizations == 1 and not holder.stale
        assert relative <= 1e-2 * LINEAR_SOLVER_TOL
        assert holder.lu.nnz < spla.splu(matrix.tocsc(), permc_spec="COLAMD").nnz


@pytest.mark.parametrize("kind", ["uniform", "corner-graded"])
def test_permuted_lu_factors_the_two_index_permutation(monkeypatch, kind):
    # SuperLU receives exactly the float32 CSC of matrix[perm][:, perm], so
    # the one-gather permutation and the cast before it leave the factors
    # unchanged
    mesh = uniform_refine(build_initial_mesh(4)) if kind == "uniform" else _corner_graded_mesh()
    handed = []
    real_splu = inflap.solver.spla.splu

    def recording_splu(permuted, **kwargs):
        handed.append(permuted)
        return real_splu(permuted, **kwargs)

    monkeypatch.setattr(inflap.solver.spla, "splu", recording_splu)
    for problem in (replace(CLASSICAL, tau=1000.0), ARONSSON):
        matrix, _ = _step_system(mesh, problem)
        lu = PermutedLU(matrix)
        expected = sp.csr_matrix(matrix)[lu.perm][:, lu.perm].tocsc().astype(np.float32)
        ours = handed[-1]
        assert ours.format == "csc" and ours.shape == expected.shape
        assert ours.dtype == np.float32 and lu.dtype == np.float32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, name), getattr(expected, name))


def test_float32_overflow_falls_back_to_float64():
    matrix, rhs = _step_system(uniform_refine(build_initial_mesh(4)), ARONSSON)
    huge = 1e39 * matrix
    with pytest.raises(RuntimeError, match="not finite"):
        PermutedLU(huge)
    holder = StepFactor()
    _, relative, _ = solve_linear(huge, rhs, factor=holder)
    assert holder.fallbacks == 1 and holder.factorizations == 1
    assert holder.lu.dtype == np.float64
    assert relative <= 1e-2 * LINEAR_SOLVER_TOL


def test_matrix_singular_in_float32_falls_back_to_float64():
    # 1 + 2**-30 rounds to 1 in float32, where the matrix is exactly singular
    matrix = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -30]]))
    with pytest.raises(RuntimeError, match="singular"):
        PermutedLU(matrix)
    holder = StepFactor()
    solution, _, _ = solve_linear(matrix, matrix @ np.array([1.0, 2.0]), factor=holder)
    assert holder.fallbacks == 1 and holder.factorizations == 1
    assert holder.lu.dtype == np.float64
    assert np.allclose(solution, [1.0, 2.0], rtol=0.0, atol=1e-6)


def test_ill_conditioned_system_meets_the_gate_through_the_float64_fallback():
    # condition about 1.6e8: float32 refinement contracts only about 0.77 per
    # LU solve, so the loop stalls after 8 refinement LU solves and the
    # matrix is factored in float64, whose direct solve is accepted
    n = 20_000
    laplacian = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                         format="csr")
    rhs = laplacian @ np.random.default_rng(0).standard_normal(n)
    holder = StepFactor()
    _, relative, lu_solves = solve_linear(laplacian, rhs, factor=holder)
    assert holder.fallbacks == 1 and holder.factorizations == 2 and lu_solves == 8
    assert holder.lu.dtype == np.float64
    assert relative <= 1e-2 * LINEAR_SOLVER_TOL


def test_tiny_right_hand_side_does_not_underflow_the_float32_solve():
    # 2**-133 (about 9e-41) is below float32's smallest normal number; the
    # power-of-two scale before the cast is exact, so the solve of the
    # scaled system is the scaled solve
    matrix, rhs = _step_system(uniform_refine(build_initial_mesh(4)), ARONSSON)
    holder = StepFactor()
    tiny, relative, _ = solve_linear(matrix, np.ldexp(rhs, -133), factor=holder)
    assert holder.fallbacks == 0 and holder.lu.dtype == np.float32
    assert relative <= 1e-2 * LINEAR_SOLVER_TOL
    assert np.array_equal(tiny, np.ldexp(solve_linear(matrix, rhs)[0], -133))


def test_fresh_factor_is_polished_by_refinement(monkeypatch):
    # an LU of a slightly perturbed matrix leaves the direct solve above the
    # gate; the refinement loop that began with it goes on with that same LU
    # to its accept target without refactoring
    matrix, rhs = _step_system(uniform_refine(build_initial_mesh(4)), ARONSSON)
    rng = np.random.default_rng(3)
    real_splu = inflap.solver.spla.splu

    def perturbed_splu(permuted, **kwargs):
        permuted = permuted.copy()
        permuted.data *= 1.0 + 1e-7 * rng.standard_normal(permuted.nnz)
        return real_splu(permuted, **kwargs)

    monkeypatch.setattr(inflap.solver.spla, "splu", perturbed_splu)
    holder = StepFactor()
    _, relative, lu_solves = solve_linear(matrix, rhs, factor=holder)
    direct = holder.lu.solve(rhs)
    assert np.linalg.norm(matrix @ direct - rhs) > LINEAR_SOLVER_TOL * np.linalg.norm(rhs)
    assert holder.factorizations == 1 and lu_solves > 0
    assert relative <= 1e-2 * LINEAR_SOLVER_TOL


def test_stalled_refinement_of_a_fresh_factor_fails_the_gate(monkeypatch):
    # the LU of twice the matrix halves each residual: the float32 factor's
    # loop stalls at its second LU solve, so does the float64 fallback's,
    # and the gate judges that last iterate
    matrix, rhs = _step_system(uniform_refine(build_initial_mesh(4)), ARONSSON)
    real_splu = inflap.solver.spla.splu

    def doubled_splu(permuted, **kwargs):
        return real_splu(2.0 * permuted, **kwargs)

    real_refine = inflap.solver._refine
    outcomes = []

    def recording_refine(*args):
        outcomes.append(real_refine(*args))
        return outcomes[-1]

    monkeypatch.setattr(inflap.solver.spla, "splu", doubled_splu)
    monkeypatch.setattr(inflap.solver, "_refine", recording_refine)
    holder = StepFactor()
    with pytest.raises(SolverFailure) as info:
        solve_linear(matrix, rhs, factor=holder)
    [single, (solution, solves, relative, stalled)] = outcomes
    assert single[3] and single[1] == 2
    assert holder.fallbacks == 1 and holder.factorizations == 2
    assert holder.lu.dtype == np.float64
    assert stalled and solves == 2
    assert relative == pytest.approx(0.25)
    assert str(info.value) == (f"linear solve reached relative residual {relative:.3e} "
                               f"(tolerance {LINEAR_SOLVER_TOL:.1e})")
    assert relative == np.linalg.norm(rhs - matrix @ solution) / np.linalg.norm(rhs)


# ----------------------------------------------------------------- initializer

def test_initializer_reproduces_affine_data():
    mesh = build_initial_mesh(2)
    problem = ProblemData(f=lambda x, y: np.zeros(np.shape(x)),
                          g=lambda x, y: 1.0 + x - 2.0 * y, tau=1.0)
    u0 = default_initializer(Discretisation(mesh, problem))
    expected = interpolate(mesh, problem.g)
    assert np.abs(u0.coefficients - expected.coefficients).max() <= 1e-10


def test_initializer_has_usable_gradient():
    mesh = build_initial_mesh(2)
    u0 = default_initializer(Discretisation(mesh, CLASSICAL))
    assert np.linalg.norm(gradients(u0), axis=1).max() > 0.0


@pytest.mark.parametrize("base, levels, rel", [(2, 3, 0.0), (4, 3, 0.0), (6, 2, 1e-14)],
                         ids=["initial-2", "initial-4", "initial-6"])
def test_poisson_start_matches_coo_stiffness_oracle(monkeypatch, base, levels, rel):
    # the stiffness filled into the step pattern sums each entry in element
    # order; scipy's COO conversion sums the duplicates in another order,
    # which only shows where build_initial_mesh(6) has non-dyadic vertices.
    # Both lifted systems are then solved to the accept target.
    systems = []
    real_solve = inflap.solver.solve_linear

    def recording(matrix, rhs, factor=None, start=None, seconds=None):
        systems.append((matrix, rhs))
        return real_solve(matrix, rhs, factor, start, seconds)

    monkeypatch.setattr(inflap.solver, "solve_linear", recording)
    accept = 1e-2 * LINEAR_SOLVER_TOL
    mesh = build_initial_mesh(base)
    for _ in range(levels + 1):
        for problem in (CLASSICAL, ARONSSON):
            disc = Discretisation(mesh, problem)
            ours = default_initializer(disc).coefficients
            [(matrix, rhs)] = systems
            systems.clear()
            their_matrix, their_rhs = sparse_product_dirichlet(
                coo_poisson_stiffness(mesh), -disc.load, mesh, problem.g)
            assert abs(matrix - their_matrix).max() <= rel * abs(their_matrix).max()
            assert np.abs(rhs - their_rhs).max() <= rel * np.abs(their_rhs).max()
            theirs = real_solve(their_matrix, their_rhs)[0]
            for a, b, x in ((matrix, rhs, ours), (their_matrix, their_rhs, theirs)):
                assert np.linalg.norm(b - a @ x) <= accept * np.linalg.norm(b)
        mesh = uniform_refine(mesh)


# ----------------------------------------------------------------- fixed point

def test_classical_converges_quickly():
    for mesh in (build_initial_mesh(2), uniform_refine(build_initial_mesh(2))):
        report = fixed_point_solve(mesh, CLASSICAL)
        assert report.converged
        assert report.iterations <= 5
        assert len(report.increments) == report.iterations
        assert len(report.residuals) == report.iterations + 1
        assert len(report.linear_residuals) == report.iterations
        assert max(report.linear_residuals) <= LINEAR_SOLVER_TOL
        assert report.factorizations >= 1
        assert report.increments[-1] <= 10.0 * mesh.diameters.max() ** 2


def test_aronsson_converges_within_twenty():
    for tau in (1.0, 10.0):
        problem = replace(ARONSSON, tau=tau)
        mesh = uniform_refine(build_initial_mesh(2))
        report = fixed_point_solve(mesh, problem)
        assert report.converged
        assert report.iterations <= 20


def test_immediate_convergence_counts_one_iteration():
    mesh = build_initial_mesh(2)
    settled = fixed_point_solve(mesh, CLASSICAL).solution
    report = fixed_point_solve(mesh, CLASSICAL, initial=settled)
    assert report.converged
    assert report.iterations == 1


def test_fixed_point_idempotence_within_tolerance():
    mesh = uniform_refine(build_initial_mesh(2))
    config = SolverConfig()
    report = fixed_point_solve(mesh, CLASSICAL, config)
    again = fixed_point_solve(mesh, CLASSICAL, config, initial=report.solution)
    drift = l2_norm(FEFunction(mesh, again.solution.coefficients
                               - report.solution.coefficients))
    assert drift <= config.increment_tol_factor * mesh.diameters.max() ** 2


def test_fixed_point_rejects_foreign_initial_guess():
    mesh = build_initial_mesh(1)
    other = build_initial_mesh(2)
    guess = interpolate(other, lambda x, y: x)
    with pytest.raises(InvalidArgumentError):
        fixed_point_solve(mesh, CLASSICAL, initial=guess)


def test_exact_solution_residual_under_refinement():
    # the scheme reproduces the quadratic exact solution: the interpolant
    # solves the discrete system to rounding noise on every level, which
    # is the strongest form of the residual-decay property
    mesh = build_initial_mesh(2)
    for _ in range(4):
        disc = Discretisation(mesh, CLASSICAL)
        star = interpolate(mesh, CLASSICAL.exact_solution)
        values, rhs, residual = disc.system(star, CLASSICAL.tau)
        matrix, rhs = apply_dirichlet(disc, values, rhs)
        assert np.linalg.norm(matrix @ star.coefficients - rhs) <= 1e-12
        assert np.linalg.norm(residual) <= 1e-12
        mesh = uniform_refine(mesh)


def _steady_residual(disc, u):
    return float(np.linalg.norm(disc.residual(u, assemble_step(disc, u))))


@pytest.mark.parametrize("config", [SolverConfig(increment_tol_factor=0.01),
                                    SolverConfig(increment_tol_factor=1e-12, max_iterations=3)],
                         ids=["converged", "iteration-limit"])
@pytest.mark.parametrize("start", ["poisson", "initial"])
def test_solve_reports_the_steady_residual_of_the_start_and_every_iterate(config, start):
    mesh = uniform_refine(build_initial_mesh(2))
    disc = Discretisation(mesh, ARONSSON)
    initial = interpolate(mesh, ARONSSON.g) if start == "initial" else None
    report = fixed_point_solve(mesh, ARONSSON, config, initial=initial)
    assert report.iterations > 1 and len(report.residuals) == report.iterations + 1
    first = default_initializer(disc) if initial is None else initial
    assert report.residuals[0] == _steady_residual(disc, first)
    assert report.residuals[-1] == _steady_residual(disc, report.solution)
    if report.converged:
        assert report.residuals[-1] < 0.1 * report.residuals[0]


def test_solution_residual_is_assembled_after_the_factor_is_released(monkeypatch):
    # every step assembles M_P of its start; the solution's own assembly
    # comes once the loop's factor (made after the Poisson start's own
    # holder) holds no LU
    factors, held = [], []

    class Recording(StepFactor):
        def __init__(self):
            super().__init__()
            factors.append(self)

    real_assemble = inflap.solver.assemble_step

    def assemble(disc, u):
        held.append(factors[-1].lu is not None)
        return real_assemble(disc, u)

    monkeypatch.setattr(inflap.solver, "StepFactor", Recording)
    monkeypatch.setattr(inflap.solver, "assemble_step", assemble)
    report = fixed_point_solve(uniform_refine(build_initial_mesh(2)), ARONSSON,
                               SolverConfig(increment_tol_factor=0.01))
    assert len(factors) == 2 and report.iterations > 2
    assert held == [False] + [True] * (report.iterations - 1) + [False]


def test_solve_reports_the_seconds_of_each_phase(monkeypatch):
    real_pattern = inflap.solver.step_pattern

    def slow_pattern(*args):
        time.sleep(0.05)
        return real_pattern(*args)

    monkeypatch.setattr(inflap.solver, "step_pattern", slow_pattern)
    start = time.perf_counter()
    report = fixed_point_solve(build_initial_mesh(4), ARONSSON)
    wall = time.perf_counter() - start
    assert list(report.seconds) == list(PHASES)
    assert min(report.seconds.values()) > 0.0     # every phase ran
    assert report.seconds["pattern"] >= 0.05
    # the pattern is built inside the Discretisation, and counts for itself alone
    assert report.seconds["hessian"] < 0.05 and report.seconds["setup"] < 0.05
    assert sum(report.seconds.values()) <= wall


def test_growing_increments_raise_divergence_error(monkeypatch):
    # the step map u -> 2u + 1 of each step's start doubles every increment,
    # so five growing increments in a row gain 2^5 > 10 at iteration 6; the
    # Poisson start's solve (no factor holder) runs as it is
    real_solve = inflap.solver.solve_linear

    def doubling(matrix, rhs, factor=None, start=None, seconds=None):
        if factor is None:
            return real_solve(matrix, rhs)
        return 2.0 * start + 1.0, 0.0, 0

    monkeypatch.setattr(inflap.solver, "solve_linear", doubling)
    with pytest.raises(DivergenceError) as info:
        fixed_point_solve(build_initial_mesh(2), CLASSICAL,
                          SolverConfig(increment_tol_factor=1e-6))
    assert info.value.iteration == 6


@pytest.mark.parametrize("config", [SolverConfig(increment_tol_factor=0.01),
                                    SolverConfig(increment_tol_factor=1e-12, max_iterations=3)],
                         ids=["converged", "iteration-limit"])
def test_fixed_point_solve_makes_no_hessian_contraction_per_step(monkeypatch, config):
    # the relaxation matrix T is built once per mesh, so no step contracts
    # the Hessian blocks with an iterate: that contraction gathers the
    # iterate's values through the stencil, which is taken away once the
    # discretisation is built
    real_init = Discretisation.__init__

    def init(disc, mesh, problem, seconds=None):
        real_init(disc, mesh, problem, seconds)
        disc.stencil = None

    monkeypatch.setattr(Discretisation, "__init__", init)
    assert not hasattr(inflap.solver, "hessian_components")
    report = fixed_point_solve(uniform_refine(build_initial_mesh(2)), ARONSSON, config)
    assert report.iterations > 1


@pytest.mark.parametrize("start", ["poisson", "initial"])
def test_fixed_point_solve_builds_one_discretisation(monkeypatch, start):
    # the operator, the step pattern and the load vector are built once per
    # solve and shared by the Poisson start and every step
    calls = []

    def counting(name):
        real = getattr(inflap.solver, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("hessian_operator", "step_pattern", "load_vector"):
        monkeypatch.setattr(inflap.solver, name, counting(name))
    mesh = uniform_refine(build_initial_mesh(2))
    initial = interpolate(mesh, ARONSSON.g) if start == "initial" else None
    config = SolverConfig(increment_tol_factor=0.01)
    report = fixed_point_solve(mesh, ARONSSON, config, initial=initial)
    assert report.iterations > 1
    assert sorted(calls) == ["hessian_operator", "load_vector", "step_pattern"]


# ------------------------------------------------------- factor reuse on a mesh

def test_warm_started_single_step_is_bit_identical_to_direct_path():
    mesh = uniform_refine(build_initial_mesh(4))
    settled = fixed_point_solve(mesh, ARONSSON).solution
    report = fixed_point_solve(mesh, ARONSSON, initial=settled)
    assert report.iterations == 1 and report.factorizations == 1

    disc = Discretisation(mesh, ARONSSON)
    matrix, rhs = apply_dirichlet(disc, *disc.system(settled, ARONSSON.tau)[:2])
    direct = solve_linear(matrix, rhs)[0]
    assert np.array_equal(report.solution.coefficients, direct)
    # another ordering and pivoting than spsolve's: the two solutions of a
    # system solved to relative residual 1e-15 agree to rounding
    reference = spla.spsolve(matrix.tocsc(), rhs)
    assert np.abs(direct - reference).max() <= 1e-12 * np.abs(reference).max()


def _direct_fixed_point(mesh, problem, config):
    """The fixed-point loop with a fresh direct solve in every step."""
    disc = Discretisation(mesh, problem)
    current = default_initializer(disc)
    tolerance = config.increment_tol_factor * mesh.diameters.max() ** 2
    for iteration in range(1, config.max_iterations + 1):
        matrix, rhs = apply_dirichlet(disc, *disc.system(current, problem.tau)[:2])
        proposed = FEFunction(mesh, spla.spsolve(matrix.tocsc(), rhs))
        increment = l2_norm(FEFunction(mesh, proposed.coefficients - current.coefficients))
        current = proposed
        if increment <= tolerance:
            return current, iteration
    raise AssertionError("direct loop did not converge")


def test_factor_reuse_matches_direct_solves_on_aronsson_study(monkeypatch):
    # whether each step's solve factored; the Poisson start's solve (no
    # factor holder) runs as it is
    factored = []
    real_solve = inflap.solver.solve_linear

    def solve(matrix, rhs, factor=None, start=None, seconds=None):
        if factor is None:
            return real_solve(matrix, rhs, seconds=seconds)
        before = factor.factorizations
        outcome = real_solve(matrix, rhs, factor, start, seconds)
        factored.append(factor.factorizations > before)
        return outcome

    monkeypatch.setattr(inflap.solver, "solve_linear", solve)
    config = SolverConfig(increment_tol_factor=0.01)
    levels = []
    table = convergence_study("aronsson", 3, tau=1.0, solver_config=config,
                              on_level=lambda level, mesh, report, _:
                              levels.append((mesh, report)))
    assert [row.iterations for row in table.rows] == [6, 10, 21]
    # the first step of each level and every step after a stale refinement factor
    assert [report.factorizations for _, report in levels] == [2, 4, 5]
    assert len(factored) == sum(report.iterations for _, report in levels)
    steps = iter(factored)
    for (mesh, report), row in zip(levels, table.rows):
        assert max(report.linear_residuals) <= 1e-2 * LINEAR_SOLVER_TOL
        # a step takes one refinement LU solve exactly when it was factored
        # (in float32); a reused factor takes at least three
        assert len(report.linear_iterations) == report.iterations
        assert [n == 1 for n in report.linear_iterations] == \
            [next(steps) for _ in range(report.iterations)]
        direct, iterations = _direct_fixed_point(mesh, ARONSSON, config)
        assert iterations == report.iterations
        assert row.l2_error == pytest.approx(
            l2_error(direct, ARONSSON.exact_solution), rel=1e-9)


def test_stalled_refinement_lu_solves_are_counted(monkeypatch):
    # step 2 of every level after the first tries step 1's factor, stalls
    # after 2 LU solves and is refactored; the step reports those 2 solves
    # and the 2 refinement LU solves of its fresh float32 factor
    solves = []
    real_solve = inflap.solver.PermutedLU.solve

    def counting(lu, rhs):
        solves.append(len(rhs))
        return real_solve(lu, rhs)

    monkeypatch.setattr(inflap.solver.PermutedLU, "solve", counting)
    starts = []
    real_initializer = inflap.solver.default_initializer

    def initializer(disc, seconds=None):
        before = len(solves)
        start = real_initializer(disc, seconds)
        starts.append(len(solves) - before)
        return start

    monkeypatch.setattr(inflap.solver, "default_initializer", initializer)
    levels = []

    def on_level(level, mesh, report, _):
        levels.append((report, len(solves)))
        solves.clear()

    convergence_study("classical", 4, tau=1000.0, on_level=on_level)
    assert [report.linear_iterations for report, _ in levels] == [[1], [2, 4], [2, 4], [2, 4]]
    assert [report.factorizations for report, _ in levels] == [1, 2, 2, 2]
    assert [report.fallbacks for report, _ in levels] == [0, 0, 0, 0]
    # every LU solve is reported: the Poisson start's, the direct solve of
    # each factorisation and the refinements'
    assert len(starts) == len(levels)
    for (report, counted), start in zip(levels, starts):
        assert counted == start + report.factorizations + sum(report.linear_iterations)


def test_held_factor_refines_from_the_given_start():
    mesh = uniform_refine(build_initial_mesh(4))
    disc = Discretisation(mesh, ARONSSON)
    u = default_initializer(disc)
    matrix, rhs = apply_dirichlet(disc, *disc.system(u, ARONSSON.tau)[:2])
    holder = StepFactor()
    # a fresh factor's loop starts from nothing, whatever the start
    first, _, lu_solves = solve_linear(matrix, rhs, holder, u.coefficients)
    assert lu_solves == 1 and holder.factorizations == 1
    assert np.array_equal(first, solve_linear(matrix, rhs)[0])

    # a nearby system: the held LU's first solve corrects the start's residual,
    # or solves the right-hand side itself from no start
    nudged = matrix + 1e-3 * sp.diags(np.where(mesh.vertex_on_boundary, 0.0, 1.0))
    for start, corrected in ((first, rhs - nudged @ first), (None, rhs)):
        holder.lu = recording = _RecordingFactor(holder.lu.lu if start is None else holder.lu)
        _, relative, lu_solves = solve_linear(nudged, rhs, holder, start)
        assert np.array_equal(recording.solved[0], corrected)
        assert holder.factorizations == 1
        assert lu_solves == len(recording.solved) > 0
        assert relative <= 1e-2 * LINEAR_SOLVER_TOL


def test_stale_factor_is_refreshed_before_refining():
    mesh = uniform_refine(build_initial_mesh(4))
    disc = Discretisation(mesh, ARONSSON)
    matrix, rhs = apply_dirichlet(disc, *disc.system(default_initializer(disc), ARONSSON.tau)[:2])
    holder = StepFactor()
    first = solve_linear(matrix, rhs, factor=holder)[0]
    interior = sp.diags(np.where(mesh.vertex_on_boundary, 0.0, 1.0))
    _, _, lu_solves = solve_linear(matrix + 2e-2 * interior, rhs, holder, first)
    assert holder.factorizations == 1
    assert holder.stale and lu_solves > inflap.solver.REFACTOR_AFTER_SOLVES

    # the next solve factors its own matrix and never touches the stale LU
    holder.lu = stale = _RecordingFactor(holder.lu)
    nudged = matrix + 3e-2 * interior
    solution, relative, lu_solves = solve_linear(nudged, rhs, holder, first)
    assert stale.solved == []
    assert holder.factorizations == 2 and lu_solves == 1 and not holder.stale
    assert relative <= LINEAR_SOLVER_TOL
    assert np.array_equal(solution, solve_linear(nudged, rhs)[0])


class _RecordingMatrix:
    """Stands in for a step matrix and counts its matrix-vector products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, vector):
        self.products += 1
        return self.matrix @ vector


def test_refinement_computes_one_residual_per_lu_solve():
    mesh = uniform_refine(build_initial_mesh(4))
    disc = Discretisation(mesh, ARONSSON)
    matrix, rhs = apply_dirichlet(disc, *disc.system(default_initializer(disc), ARONSSON.tau)[:2])
    holder = StepFactor()
    first = solve_linear(matrix, rhs, factor=holder)[0]
    nudged = matrix + 2e-2 * sp.diags(np.where(mesh.vertex_on_boundary, 0.0, 1.0))
    accept = 1e-2 * LINEAR_SOLVER_TOL
    for start in (first, None):
        recording, lu = _RecordingMatrix(nudged), _RecordingFactor(holder.lu)
        solution, solves, relative, stalled = inflap.solver._refine(recording, rhs, lu, start)
        assert not stalled and solves > 1 and solves == len(lu.solved)
        # and one product for the residual of a given start
        assert recording.products == solves + (start is not None)
        assert relative <= accept
        reference, reference_solves = two_product_refine(nudged, rhs, holder.lu, start, accept)
        assert np.array_equal(solution, reference) and solves == reference_solves
        assert relative == np.linalg.norm(nudged @ solution - rhs) / np.linalg.norm(rhs)

    # from nothing the first iterate is the direct solve itself, signed zeros
    # included: with the float64 LU of its own matrix (the fallback's
    # factor) it is accepted at once
    exact = PermutedLU(nudged, np.float64)
    solution, solves, _, stalled = inflap.solver._refine(nudged, rhs, exact, None)
    assert solves == 1 and not stalled
    direct = exact.solve(rhs)
    assert np.array_equal(solution, direct)
    assert np.array_equal(np.signbit(solution), np.signbit(direct))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_solution_fails_the_gate(monkeypatch, bad):
    def poisoned(lu, rhs):
        solution = np.zeros_like(rhs)
        solution[0] = bad
        return solution

    monkeypatch.setattr(inflap.solver.PermutedLU, "solve", poisoned)
    with pytest.raises(SolverFailure) as info:
        solve_linear(sp.identity(3, format="csr"), np.ones(3))
    assert str(info.value) == "linear solve reached relative residual inf (tolerance 1.0e-10)"


class _RecordingFactor:
    """Stands in for a stored LU and records the right-hand sides it solves;
    weakly referable, unlike SuperLU."""

    def __init__(self, lu):
        self.lu = lu
        self.shape = lu.shape
        self.solved = []

    def solve(self, rhs):
        self.solved.append(rhs)
        return self.lu.solve(rhs)


def test_unrelated_factor_is_released_and_refactored(monkeypatch):
    disc = Discretisation(uniform_refine(build_initial_mesh(4)), ARONSSON)
    u = default_initializer(disc)
    matrix, rhs = apply_dirichlet(disc, *disc.system(u, ARONSSON.tau)[:2])
    rng = np.random.default_rng(5)
    unrelated = sp.random(matrix.shape[0], matrix.shape[0], density=0.01,
                          random_state=rng, format="csc") + 4.0 * sp.identity(
                              matrix.shape[0], format="csc")
    holder = StepFactor()
    holder.lu = _RecordingFactor(spla.splu(unrelated.tocsc()))
    stale = weakref.ref(holder.lu)
    stale_solves = holder.lu.solved

    factor_calls = []
    real_splu = inflap.solver.spla.splu

    def splu(*args, **kwargs):
        factor_calls.append(stale() is None)    # old factor already gone
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(inflap.solver.spla, "splu", splu)
    solution, relative, lu_solves = solve_linear(matrix, rhs, factor=holder)
    assert factor_calls == [True]
    assert len(stale_solves) == 2       # the refinement stalls at its first check
    assert lu_solves == 3               # the 2 stalled and 1 of the fresh float32 LU
    assert holder.factorizations == 1 and holder.fallbacks == 0
    assert relative <= LINEAR_SOLVER_TOL
    assert np.array_equal(solution, solve_linear(matrix, rhs)[0])


def test_held_factor_of_another_size_is_not_tried():
    holder = StepFactor()
    solve_linear(2.0 * sp.identity(4, format="csr"), np.ones(4), factor=holder)
    held = holder.lu = _RecordingFactor(holder.lu)
    solution, _, _ = solve_linear(3.0 * sp.identity(6, format="csr"), np.ones(6), factor=holder)
    assert held.solved == []
    assert holder.factorizations == 2 and holder.lu.shape == (6, 6)
    assert np.allclose(solution, 1.0 / 3.0, rtol=1e-15, atol=0.0)
