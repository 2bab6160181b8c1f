import numpy as np
import pytest

import scipy.sparse as sp

from inflap import (FEFunction, SpaceP1, build_initial_mesh, fe_hessian,
                    gradients, hessian_operator, integrate, interpolate,
                    refine, tensor_values, uniform_refine)
from conftest import (edge_dictionary, hat_gradients, oracle_meshes,
                      outward_normal, perturbed_mesh, tri_area)


def meshes_for_affine_check():
    base = build_initial_mesh(1)
    return [base, uniform_refine(build_initial_mesh(2)),
            refine(build_initial_mesh(2), {1, 4, 9})]


@pytest.mark.parametrize("mesh", meshes_for_affine_check(),
                         ids=["coarse", "uniform", "local"])
def test_affine_functions_have_zero_hessian(mesh):
    u = interpolate(SpaceP1(mesh), lambda x, y: 0.3 + 1.2 * x - 2.5 * y)
    assert np.abs(fe_hessian(u).coefficients).max() <= 1e-12


def test_zero_function_has_zero_hessian():
    mesh = build_initial_mesh(2)
    u = FEFunction(SpaceP1(mesh), np.zeros(mesh.vertex_count))
    assert np.all(fe_hessian(u).coefficients == 0.0)


def test_hessian_against_dense_mass_system_oracle():
    # assemble the elementwise mass system and its edge right-hand side by
    # brute force, solve, and compare; assembled via the coupled system with
    # the diffusion rows ignored
    mesh = build_initial_mesh(1)
    u = interpolate(SpaceP1(mesh), lambda x, y: x * x)
    nv = mesh.vertex_count

    mass = np.zeros((4 * mesh.triangle_count, 4 * mesh.triangle_count))
    rhs = np.zeros(4 * mesh.triangle_count)
    for k in range(mesh.triangle_count):
        for comp in range(4):
            mass[4 * k + comp, 4 * k + comp] = tri_area(mesh, k)
    for (a, b), adjacent in edge_dictionary(mesh).items():
        length = np.linalg.norm(mesh.vertex_coords[b] - mesh.vertex_coords[a])
        weight = 0.5 if len(adjacent) == 2 else 1.0
        for k in adjacent:
            normal = outward_normal(mesh, k, a, b)
            for source in adjacent:
                basis = hat_gradients(mesh, source)
                grad = basis.T @ u.coefficients[mesh.triangle_vertices[source]]
                for r in range(2):
                    for c in range(2):
                        rhs[4 * k + 2 * r + c] += weight * length * grad[r] * normal[c]
    oracle = np.linalg.solve(mass, rhs)

    ours = fe_hessian(u).coefficients
    assert np.abs(ours - oracle).max() <= 1e-12
    # frozen: on the 4-element criss-cross mesh the recovered tensor of x^2
    # is the identity on every element
    assert np.allclose(tensor_values(fe_hessian(u)),
                       np.broadcast_to(np.eye(2), (4, 2, 2)), atol=1e-13)


def _apply(operator, coefficients):
    """Tensor coefficients of the operator's blocks applied to vertex values."""
    values = np.einsum("qts,ts->tq", operator.blocks, coefficients[operator.stencil])
    return values.reshape(-1)


def test_operator_matches_direct_evaluation():
    mesh = refine(build_initial_mesh(2), {0, 7})
    space = SpaceP1(mesh)
    operator = hessian_operator(mesh)

    assert np.all(_apply(operator, np.zeros(space.dof_count)) == 0.0)

    affine = interpolate(space, lambda x, y: 1.0 - x + 4.0 * y)
    assert np.abs(_apply(operator, affine.coefficients)).max() <= 1e-13

    u = interpolate(space, lambda x, y: x * x + y * y)
    assert np.abs(_apply(operator, u.coefficients)
                  - fe_hessian(u).coefficients).max() <= 1e-13


def test_operator_row_locality():
    # an element's stencil holds its own vertices, then per edge the far
    # vertex of the neighbor across it, or (boundary edge, zero weights)
    # the element's own vertex opposite that edge
    mesh = refine(build_initial_mesh(2), {1, 6})
    operator = hessian_operator(mesh)
    neighbor = {}
    for (a, b), adjacent in edge_dictionary(mesh).items():
        if len(adjacent) == 2:
            neighbor[(adjacent[0], a, b)] = adjacent[1]
            neighbor[(adjacent[1], a, b)] = adjacent[0]
    for k, verts in enumerate(mesh.triangle_vertices):
        verts = [int(v) for v in verts]
        assert list(operator.stencil[k, :3]) == verts
        for m in range(3):
            a, b = sorted(verts[j] for j in range(3) if j != m)
            column = operator.blocks[:, k, 3 + m]
            if (k, a, b) in neighbor:
                far = set(mesh.triangle_vertices[neighbor[(k, a, b)]]) - {a, b}
                assert {operator.stencil[k, 3 + m]} == far
                assert np.any(column != 0.0)
            else:
                assert operator.stencil[k, 3 + m] == verts[m]
                assert np.all(column == 0.0)


def test_step_pattern_and_slots():
    # the pattern is sorted, duplicate-free and structurally symmetric, and
    # slot (K, a, s) is the entry (vertex a of K, stencil vertex s)
    for mesh in [refine(uniform_refine(build_initial_mesh(2)), {2, 5, 30})] \
            + oracle_meshes() + [perturbed_mesh()]:
        operator = hessian_operator(mesh)
        indptr, indices = operator.indptr, operator.indices
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for i in range(mesh.vertex_count):
            assert np.all(np.diff(indices[indptr[i]:indptr[i + 1]]) > 0)
        rows = np.repeat(np.arange(mesh.vertex_count), np.diff(indptr))
        slots = operator.slots
        assert np.array_equal(rows[slots], np.broadcast_to(
            mesh.triangle_vertices[:, :, None], slots.shape))
        assert np.array_equal(indices[slots], np.broadcast_to(
            operator.stencil[:, None, :], slots.shape))
        assert np.array_equal(np.unique(slots), np.arange(len(indices)))

        transpose = sp.csr_array((np.ones(len(indices)), indices, indptr)).T.tocsr()
        transpose.sort_indices()
        assert np.array_equal(transpose.indptr, indptr)
        assert np.array_equal(transpose.indices, indices)


def test_linearity():
    mesh = refine(build_initial_mesh(2), {3})
    space = SpaceP1(mesh)
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(space.dof_count)
        w = rng.standard_normal(space.dof_count)
        a, b = rng.standard_normal(2)
        combo = fe_hessian(FEFunction(space, a * v + b * w)).coefficients
        parts = a * fe_hessian(FEFunction(space, v)).coefficients \
            + b * fe_hessian(FEFunction(space, w)).coefficients
        assert np.abs(combo - parts).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_global_consistency_identity(seed):
    # testing with the constant tensor: interior averages cancel pairwise,
    # leaving the boundary flux of the gradient
    mesh = refine(build_initial_mesh(2), {2, 8, 11})
    space = SpaceP1(mesh)
    rng = np.random.default_rng(100 + seed)
    v = FEFunction(space, rng.standard_normal(space.dof_count))
    lhs = integrate(fe_hessian(v), mesh)
    grad = gradients(v)
    rhs = np.zeros((2, 2))
    for e in mesh.boundary_edge_ids:
        owner = mesh.edge_triangles[e, 0]
        rhs += mesh.edge_lengths[e] * np.outer(grad[owner], mesh.edge_normals[e])
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_mean_hessian_converges_for_quadratics():
    # first-order consistency: the area-weighted mean tensor approaches the
    # constant Hessian of a quadratic, halving the error per refinement
    def hess_error(mesh):
        q = lambda x, y: x * x + 0.5 * x * y - 2.0 * y * y
        exact = np.array([[2.0, 0.5], [0.5, -4.0]])
        u = interpolate(SpaceP1(mesh), q)
        mean = integrate(fe_hessian(u), mesh) / 4.0
        return np.abs(mean - exact).max()

    mesh = build_initial_mesh(2)
    errors = []
    for _ in range(4):
        errors.append(hess_error(mesh))
        mesh = uniform_refine(mesh)
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.4 <= fine / coarse <= 0.6
