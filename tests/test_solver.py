import weakref
from dataclasses import replace

import numpy as np
import pytest

from inflap import (Discretisation, FEFunction, InvalidArgumentError,
                    SolverFailure, SolverConfig, SpaceP1,
                    apply_dirichlet, assemble_step, build_initial_mesh,
                    default_initializer, diffusion_tensor, estimate,
                    fe_hessian, fixed_point_solve, gradients, interpolate,
                    l2_error, l2_norm, load_vector, refine, registry,
                    solve_linear, uniform_refine)
from inflap.bench import convergence_study
from inflap.solver import LINEAR_SOLVER_TOL, ProblemData, StepFactor
import inflap.solver
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (add_at_load_vector, add_at_squared_indicators,
                      add_at_step_rhs, brute_saddle, coo_hessian_matrix,
                      coo_poisson_stiffness, oracle_meshes, perturbed_mesh,
                      schur_eliminate, sparse_product_dirichlet,
                      sparse_product_step_matrix)

CLASSICAL = registry()["classical"].data
ARONSSON = registry()["aronsson"].data


# ------------------------------------------------------------ diffusion tensor

def test_diffusion_tensor_formula():
    mesh = build_initial_mesh(1)
    space = SpaceP1(mesh)
    # gradient (1, 0) on every element
    u = interpolate(space, lambda x, y: x + 0.0 * y)
    tensors = diffusion_tensor(u, tau=2.0)
    assert np.allclose(tensors, [[1.5, 0.0], [0.0, 0.5]])

    # degenerate gradient: only the relaxation part survives
    flat = FEFunction(space, np.zeros(space.dof_count))
    tensors = diffusion_tensor(flat, tau=4.0)
    assert np.allclose(tensors, 0.25 * np.eye(2))

    diag = interpolate(space, lambda x, y: x + y)
    tensors = diffusion_tensor(diag, tau=1.0)
    assert np.allclose(tensors, [[1.5, 0.5], [0.5, 1.5]])


def test_diffusion_tensor_eigenvalue_bounds():
    mesh = refine(build_initial_mesh(2), {0, 3, 9})
    space = SpaceP1(mesh)
    rng = np.random.default_rng(2)
    for tau in (0.1, 1.0, 1000.0):
        u = FEFunction(space, rng.standard_normal(space.dof_count))
        eigs = np.linalg.eigvalsh(diffusion_tensor(u, tau))
        assert eigs.min() >= 1.0 / tau - 1e-12
        assert eigs.max() <= 1.0 + 1.0 / tau + 1e-12


def test_diffusion_tensor_rejects_bad_parameters():
    mesh = build_initial_mesh(1)
    u = interpolate(SpaceP1(mesh), lambda x, y: x)
    with pytest.raises(InvalidArgumentError):
        diffusion_tensor(u, tau=0.0)


# -------------------------------------------------------------------- assembly

def test_step_matrix_sparsity_stencil():
    # rows may reach the vertex patch plus the patches of edge neighbors
    mesh = build_initial_mesh(2)
    u = interpolate(SpaceP1(mesh), lambda x, y: x * x + y * y)
    matrix, _ = assemble_step(Discretisation(mesh, CLASSICAL), u, fe_hessian(u))

    patches = {i: set() for i in range(mesh.vertex_count)}
    for k, verts in enumerate(mesh.triangle_vertices):
        for i in verts:
            patches[int(i)].add(k)
    neighbors = {}
    for t0, t1 in mesh.edge_triangles:
        if t1 >= 0:
            neighbors.setdefault(int(t0), set()).add(int(t1))
            neighbors.setdefault(int(t1), set()).add(int(t0))
    matrix = matrix.tocsr()
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
    space = SpaceP1(mesh)
    problem = ProblemData(f=lambda x, y: np.zeros(np.shape(x)),
                          g=lambda x, y: x, tau=5.0)
    u = interpolate(space, lambda x, y: 2.0 * x - y)
    _, rhs = assemble_step(Discretisation(mesh, problem), u, fe_hessian(u))
    interior = ~mesh.vertex_on_boundary
    assert np.abs(rhs[interior]).max() <= 1e-13


def test_assembly_against_coupled_saddle_oracle():
    # brute-force coupled system, Schur-eliminated onto the vertex block
    mesh = build_initial_mesh(1)
    space = SpaceP1(mesh)
    u = interpolate(space, lambda x, y: x * x + y * y)
    matrix, rhs = assemble_step(Discretisation(mesh, CLASSICAL), u, fe_hessian(u))

    saddle, rhs_for, _ = brute_saddle(mesh, u.coefficients, CLASSICAL.f,
                                      CLASSICAL.g, CLASSICAL.tau, dirichlet=False)
    oracle_matrix = schur_eliminate(saddle, mesh.vertex_count)
    oracle_rhs = rhs_for(np.asarray(fe_hessian(u).coefficients.reshape(-1, 2, 2)))

    assert np.abs(matrix.toarray() - oracle_matrix).max() <= 1e-12
    assert np.abs(rhs - oracle_rhs[:mesh.vertex_count]).max() <= 1e-12


@pytest.mark.parametrize("mesh", oracle_meshes(),
                         ids=["uniform", "random-local", "axis-graded"])
def test_step_matrix_is_bit_identical_to_sparse_product_oracle(mesh):
    # the blocks refilled into the fixed pattern give exactly the sums of
    # the COO-assembled operator and its two sparse products, before and
    # after the Dirichlet lift; the gathered lift drops the explicit zeros
    # the fixed pattern keeps, as the diagonal products do
    disc = Discretisation(mesh, ARONSSON)
    u = interpolate(disc.space, lambda x, y: np.abs(x) ** (4 / 3) - np.abs(y) ** (4 / 3)
                    + 0.1 * np.sin(3.0 * x * y))
    matrix, rhs = assemble_step(disc, u, fe_hessian(u))
    oracle = sparse_product_step_matrix(mesh, diffusion_tensor(u, ARONSSON.tau),
                                        coo_hessian_matrix(mesh))
    assert np.array_equal(matrix.toarray(), oracle.toarray())

    ours, ours_rhs = apply_dirichlet(disc, matrix, rhs)
    theirs, theirs_rhs = sparse_product_dirichlet(oracle, rhs, disc.space, ARONSSON.g)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name))
    assert np.array_equal(ours_rhs, theirs_rhs)


def test_step_matrix_matches_oracle_on_a_perturbed_mesh():
    # on general triangles the oracle's duplicate sums run in another order,
    # so the two agree to rounding only
    mesh = perturbed_mesh()
    u = interpolate(SpaceP1(mesh), lambda x, y: x * x - 0.5 * x * y + np.exp(y))
    matrix, _ = assemble_step(Discretisation(mesh, CLASSICAL), u, fe_hessian(u))
    oracle = sparse_product_step_matrix(mesh, diffusion_tensor(u, CLASSICAL.tau),
                                        coo_hessian_matrix(mesh)).toarray()
    assert np.abs(matrix.toarray() - oracle).max() <= 1e-14 * np.abs(oracle).max()


@pytest.mark.parametrize("mesh", oracle_meshes() + [perturbed_mesh()],
                         ids=["uniform", "random-local", "axis-graded", "perturbed"])
def test_vertex_and_element_sums_are_bit_identical_to_add_at_oracles(mesh):
    # bincount adds each entry's terms in the order np.add.at does, after
    # the base value (load vector, interior**2) it starts from
    problem = ProblemData(f=lambda x, y: np.sin(2.0 * x) + y * y, g=ARONSSON.g, tau=0.3)
    space = SpaceP1(mesh)
    u = interpolate(space, lambda x, y: np.abs(x) ** (4 / 3) - np.abs(y) ** (4 / 3)
                    + 0.1 * np.sin(3.0 * x * y))
    h = fe_hessian(u)
    assert np.array_equal(load_vector(mesh, problem.f), add_at_load_vector(mesh, problem.f))
    _, rhs = assemble_step(Discretisation(mesh, problem), u, h)
    assert np.array_equal(rhs, add_at_step_rhs(mesh, h, problem))

    v = FEFunction(space, u.coefficients + 0.01 * np.cos(5.0 * mesh.vertex_coords[:, 0]))
    indicators = estimate(mesh, u, v, problem.f, problem.tau)
    eta_sq = add_at_squared_indicators(mesh, indicators.interior, indicators.jumps)
    assert np.array_equal(indicators.eta, np.sqrt(eta_sq))
    assert indicators.eta_total == float(np.sqrt(eta_sq.sum()))


def test_assemble_step_rejects_mesh_mismatch():
    mesh = build_initial_mesh(1)
    other = build_initial_mesh(2)
    u = interpolate(SpaceP1(mesh), lambda x, y: x)
    wrong = interpolate(SpaceP1(other), lambda x, y: x)
    disc = Discretisation(mesh, CLASSICAL)
    with pytest.raises(InvalidArgumentError):
        assemble_step(disc, wrong, fe_hessian(u))
    with pytest.raises(InvalidArgumentError):
        assemble_step(disc, u, fe_hessian(wrong))


@pytest.mark.parametrize("steps", [1, 2])
def test_eliminated_iterates_match_coupled_system(steps):
    # meshes up to 32 triangles, iterate both paths and compare
    for mesh in (build_initial_mesh(1),
                 uniform_refine(build_initial_mesh(1)),
                 refine(uniform_refine(build_initial_mesh(1)), {0, 5})):
        assert mesh.triangle_count <= 32
        disc = Discretisation(mesh, CLASSICAL)
        space = disc.space
        u_ours = interpolate(space, lambda x, y: x * x + y * y)
        u_oracle = u_ours
        for _ in range(steps):
            matrix, rhs = assemble_step(disc, u_ours, fe_hessian(u_ours))
            matrix, rhs = apply_dirichlet(disc, matrix, rhs)
            u_ours = FEFunction(space, solve_linear(matrix, rhs))

            saddle, rhs_for, _ = brute_saddle(mesh, u_oracle.coefficients,
                                              CLASSICAL.f, CLASSICAL.g,
                                              CLASSICAL.tau)
            h_prev = np.asarray(fe_hessian(u_oracle).coefficients.reshape(-1, 2, 2))
            full = np.linalg.solve(saddle, rhs_for(h_prev))
            u_oracle = FEFunction(space, full[:mesh.vertex_count])
        assert np.abs(u_ours.coefficients - u_oracle.coefficients).max() <= 1e-10


# ------------------------------------------------------------------- dirichlet

def test_dirichlet_rows_and_values():
    mesh = build_initial_mesh(2)
    disc = Discretisation(mesh, CLASSICAL)
    space = disc.space
    u = interpolate(space, lambda x, y: x * x + y * y)
    matrix, rhs = assemble_step(disc, u, fe_hessian(u))

    homogeneous = Discretisation(mesh, replace(CLASSICAL, g=lambda x, y: np.zeros(np.shape(x))))
    zeroed, zrhs = apply_dirichlet(homogeneous, matrix, rhs)
    assert np.abs(zrhs[space.boundary_dofs]).max() == 0.0

    matrix, rhs = apply_dirichlet(disc, matrix, rhs)
    solution = solve_linear(matrix, rhs)
    coords = mesh.vertex_coords[space.boundary_dofs]
    assert solution[space.boundary_dofs] == pytest.approx(
        (coords ** 2).sum(axis=1), abs=1e-12)
    corner = np.flatnonzero((mesh.vertex_coords == [1.0, 1.0]).all(axis=1))[0]
    assert solution[corner] == pytest.approx(2.0)


# ---------------------------------------------------------------- linear solve

def test_solve_linear_identity_and_diagonal():
    identity = sp.identity(4, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(solve_linear(identity, rhs), rhs)

    system = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(solve_linear(system, np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_linear_residual_contract():
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
    matrix = sp.csr_matrix(dense)
    rhs = rng.standard_normal(20)
    x = solve_linear(matrix, rhs)
    residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-10


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_solve_linear_singular_system_fails():
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverFailure) as info:
        solve_linear(singular, np.array([1.0, 0.0]))
    assert info.value.residual is None or info.value.residual > 1e-10


# ----------------------------------------------------------------- initializer

def test_initializer_reproduces_affine_data():
    mesh = build_initial_mesh(2)
    problem = ProblemData(f=lambda x, y: np.zeros(np.shape(x)),
                          g=lambda x, y: 1.0 + x - 2.0 * y, tau=1.0)
    u0 = default_initializer(Discretisation(mesh, problem))
    expected = interpolate(SpaceP1(mesh), problem.g)
    assert np.abs(u0.coefficients - expected.coefficients).max() <= 1e-10


def test_initializer_has_usable_gradient():
    mesh = build_initial_mesh(2)
    u0 = default_initializer(Discretisation(mesh, CLASSICAL))
    assert np.linalg.norm(gradients(u0), axis=1).max() > 0.0


@pytest.mark.parametrize("base, levels, rel", [(2, 3, 0.0), (4, 3, 0.0), (6, 2, 1e-14)],
                         ids=["initial-2", "initial-4", "initial-6"])
def test_poisson_start_matches_coo_stiffness_oracle(base, levels, rel):
    # the stiffness filled into the step pattern sums each entry in element
    # order; scipy's COO conversion sums the duplicates in another order,
    # which only shows where build_initial_mesh(6) has non-dyadic vertices
    mesh = build_initial_mesh(base)
    for _ in range(levels + 1):
        for problem in (CLASSICAL, ARONSSON):
            disc = Discretisation(mesh, problem)
            ours = default_initializer(disc).coefficients
            matrix, rhs = sparse_product_dirichlet(coo_poisson_stiffness(mesh), -disc.load,
                                                   disc.space, problem.g)
            theirs = spla.spsolve(matrix.tocsc(), rhs)
            assert np.abs(ours - theirs).max() <= rel * np.abs(theirs).max()
        mesh = uniform_refine(mesh)


# ----------------------------------------------------------------- fixed point

def test_classical_converges_quickly():
    for mesh in (build_initial_mesh(2), uniform_refine(build_initial_mesh(2))):
        report = fixed_point_solve(mesh, CLASSICAL)
        assert report.converged
        assert report.iterations <= 5
        assert len(report.increments) == report.iterations
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
    space = SpaceP1(mesh)
    drift = l2_norm(FEFunction(space, again.solution.coefficients
                               - report.solution.coefficients))
    assert drift <= config.increment_tol_factor * mesh.diameters.max() ** 2


def test_fixed_point_rejects_foreign_initial_guess():
    mesh = build_initial_mesh(1)
    other = build_initial_mesh(2)
    guess = interpolate(SpaceP1(other), lambda x, y: x)
    with pytest.raises(InvalidArgumentError):
        fixed_point_solve(mesh, CLASSICAL, initial=guess)


def test_exact_solution_residual_under_refinement():
    # the scheme reproduces the quadratic exact solution: the interpolant
    # solves the discrete system to rounding noise on every level, which
    # is the strongest form of the residual-decay property
    mesh = build_initial_mesh(2)
    for _ in range(4):
        disc = Discretisation(mesh, CLASSICAL)
        star = interpolate(disc.space, CLASSICAL.exact_solution)
        matrix, rhs = assemble_step(disc, star, fe_hessian(star))
        matrix, rhs = apply_dirichlet(disc, matrix, rhs)
        assert np.linalg.norm(matrix @ star.coefficients - rhs) <= 1e-12
        mesh = uniform_refine(mesh)


@pytest.mark.parametrize("config", [SolverConfig(increment_tol_factor=0.01),
                                    SolverConfig(increment_tol_factor=1e-12, max_iterations=3)],
                         ids=["converged", "iteration-limit"])
def test_fixed_point_solve_evaluates_one_hessian_per_iteration(monkeypatch, config):
    # each step needs the Hessian of its previous iterate and nothing more
    calls = []
    real_fe_hessian = inflap.solver.fe_hessian

    def counting(u):
        calls.append(u)
        return real_fe_hessian(u)

    monkeypatch.setattr(inflap.solver, "fe_hessian", counting)
    report = fixed_point_solve(uniform_refine(build_initial_mesh(2)), ARONSSON, config)
    assert report.iterations > 1
    assert len(calls) == report.iterations


@pytest.mark.parametrize("start", ["poisson", "initial"])
def test_fixed_point_solve_builds_one_discretisation(monkeypatch, start):
    # the operator and the load vector are built once per solve and shared
    # by the Poisson start and every step
    calls = []

    def counting(name):
        real = getattr(inflap.solver, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("hessian_operator", "load_vector"):
        monkeypatch.setattr(inflap.solver, name, counting(name))
    mesh = uniform_refine(build_initial_mesh(2))
    initial = interpolate(SpaceP1(mesh), ARONSSON.g) if start == "initial" else None
    config = SolverConfig(increment_tol_factor=0.01)
    report = fixed_point_solve(mesh, ARONSSON, config, initial=initial)
    assert report.iterations > 1
    assert sorted(calls) == ["hessian_operator", "load_vector"]


# ------------------------------------------------------- factor reuse on a mesh

def test_warm_started_single_step_is_bit_identical_to_direct_path():
    mesh = uniform_refine(build_initial_mesh(4))
    settled = fixed_point_solve(mesh, ARONSSON).solution
    report = fixed_point_solve(mesh, ARONSSON, initial=settled)
    assert report.iterations == 1 and report.factorizations == 1

    disc = Discretisation(mesh, ARONSSON)
    matrix, rhs = assemble_step(disc, settled, fe_hessian(settled))
    matrix, rhs = apply_dirichlet(disc, matrix, rhs)
    direct = solve_linear(matrix, rhs)
    assert np.array_equal(report.solution.coefficients, direct)
    assert np.array_equal(direct, spla.spsolve(matrix.tocsc(), rhs))


def _direct_fixed_point(mesh, problem, config):
    """The fixed-point loop with a fresh direct solve in every step."""
    disc = Discretisation(mesh, problem)
    space = disc.space
    current = default_initializer(disc)
    tolerance = config.increment_tol_factor * mesh.diameters.max() ** 2
    for iteration in range(1, config.max_iterations + 1):
        matrix, rhs = assemble_step(disc, current, fe_hessian(current))
        matrix, rhs = apply_dirichlet(disc, matrix, rhs)
        proposed = FEFunction(space, spla.spsolve(matrix.tocsc(), rhs))
        increment = l2_norm(FEFunction(space, proposed.coefficients - current.coefficients))
        current = proposed
        if increment <= tolerance:
            return current, iteration
    raise AssertionError("direct loop did not converge")


def test_factor_reuse_matches_direct_solves_on_aronsson_study():
    config = SolverConfig(increment_tol_factor=0.01)
    levels = []
    table = convergence_study("aronsson", 3, tau=1.0, solver_config=config,
                              on_level=lambda level, mesh, report, _:
                              levels.append((mesh, report)))
    assert [row.iterations for row in table.rows] == [6, 10, 21]
    for (mesh, report), row in zip(levels, table.rows):
        assert report.factorizations == 1
        assert max(report.linear_residuals) <= 1e-2 * LINEAR_SOLVER_TOL
        # the factored first step takes no GMRES iterations, the later ones some
        assert len(report.linear_iterations) == report.iterations
        assert report.linear_iterations[0] == 0 and min(report.linear_iterations[1:]) > 0
        direct, iterations = _direct_fixed_point(mesh, ARONSSON, config)
        assert iterations == report.iterations
        assert row.l2_error == pytest.approx(
            l2_error(direct, ARONSSON.exact_solution), rel=1e-9)


def test_gmres_starts_from_the_last_solution(monkeypatch):
    mesh = uniform_refine(build_initial_mesh(4))
    disc = Discretisation(mesh, ARONSSON)
    u = default_initializer(disc)
    matrix, rhs = assemble_step(disc, u, fe_hessian(u))
    matrix, rhs = apply_dirichlet(disc, matrix, rhs)
    holder = StepFactor()
    first = solve_linear(matrix, rhs, factor=holder)
    assert holder.iterations == 0 and holder.factorizations == 1
    assert np.array_equal(holder.solution, first)

    # a nearby system: the start is the last solution plus one LU correction
    nudged = matrix + 1e-3 * sp.diags(np.where(mesh.vertex_on_boundary, 0.0, 1.0))
    starts = []
    real_gmres = inflap.solver.spla.gmres

    def gmres(*args, **kwargs):
        starts.append(kwargs["x0"])
        return real_gmres(*args, **kwargs)

    monkeypatch.setattr(inflap.solver.spla, "gmres", gmres)
    second = solve_linear(nudged, rhs, factor=holder)
    lu = spla.splu(matrix.tocsc(), permc_spec="COLAMD")
    assert np.array_equal(starts[0], first + lu.solve(rhs - nudged @ first))
    assert holder.factorizations == 1 and holder.iterations > 0
    assert np.array_equal(holder.solution, second)
    assert holder.residual <= 1e-2 * LINEAR_SOLVER_TOL


class _WeakFactor:
    """Stands in for a stored LU; weakly referable, unlike SuperLU."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)


def test_unrelated_factor_is_released_and_refactored(monkeypatch):
    disc = Discretisation(uniform_refine(build_initial_mesh(4)), ARONSSON)
    u = default_initializer(disc)
    matrix, rhs = assemble_step(disc, u, fe_hessian(u))
    matrix, rhs = apply_dirichlet(disc, matrix, rhs)
    rng = np.random.default_rng(5)
    unrelated = sp.random(matrix.shape[0], matrix.shape[0], density=0.01,
                          random_state=rng, format="csc") + 4.0 * sp.identity(
                              matrix.shape[0], format="csc")
    holder = StepFactor()
    holder.lu = _WeakFactor(spla.splu(unrelated.tocsc()))
    stale = weakref.ref(holder.lu)

    factor_calls = []
    real_splu = inflap.solver.spla.splu

    def splu(*args, **kwargs):
        factor_calls.append(stale() is None)    # old factor already gone
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(inflap.solver.spla, "splu", splu)
    solution = solve_linear(matrix, rhs, factor=holder)
    assert factor_calls == [True]
    assert holder.factorizations == 1
    assert holder.residual <= LINEAR_SOLVER_TOL
    assert np.array_equal(solution, spla.spsolve(matrix.tocsc(), rhs))

