from types import SimpleNamespace

import numpy as np
import pytest

import scipy.sparse as sp

from inflap import (FEFunction, build_initial_mesh, fe_hessian, gradients,
                    hessian_operator, interpolate, refine, registry, uniform_refine)
import inflap.solver
from inflap.solver import Discretisation, assemble_step, step_pattern
from conftest import (argmax_product_operator_and_pattern, assert_bit_identical,
                      bincount_fe_hessian, bit_oracle_meshes, edge_dictionary, hat_gradients,
                      integrate, kernel_functions, kernel_meshes, oracle_meshes,
                      outward_normal, perturbed_mesh, row_major_edge_table, tri_area)


def meshes_for_affine_check():
    base = build_initial_mesh(1)
    return [base, uniform_refine(build_initial_mesh(2)),
            refine(build_initial_mesh(2), {1, 4, 9})]


@pytest.mark.parametrize("mesh", meshes_for_affine_check(),
                         ids=["coarse", "uniform", "local"])
def test_affine_functions_have_zero_hessian(mesh):
    u = interpolate(mesh, lambda x, y: 0.3 + 1.2 * x - 2.5 * y)
    assert np.abs(fe_hessian(u)).max() <= 1e-12


def test_zero_function_has_zero_hessian():
    mesh = build_initial_mesh(2)
    u = FEFunction(mesh, np.zeros(mesh.vertex_count))
    assert np.all(fe_hessian(u) == 0.0)


def test_hessian_against_dense_mass_system_oracle():
    # assemble the elementwise mass system and its edge right-hand side by
    # brute force, solve, and compare; assembled via the coupled system with
    # the diffusion rows ignored
    mesh = build_initial_mesh(1)
    u = interpolate(mesh, lambda x, y: x * x)
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

    ours = fe_hessian(u)
    assert ours.shape == (mesh.triangle_count, 2, 2)
    assert np.abs(ours.reshape(-1) - oracle).max() <= 1e-12
    # frozen: on the 4-element criss-cross mesh the recovered tensor of x^2
    # is the identity on every element
    assert np.allclose(fe_hessian(u),
                       np.broadcast_to(np.eye(2), (4, 2, 2)), atol=1e-13)


@pytest.mark.parametrize("name", list(kernel_meshes()))
def test_fe_hessian_is_bit_identical_to_bincount_oracle(name):
    # the operator's blocks contracted with the vertex values give the edge
    # formula summed by one bincount over all edge terms, up to rounding:
    # the two sum the same terms in another order
    for u in kernel_functions(kernel_meshes()[name]):
        oracle = bincount_fe_hessian(u)
        assert np.abs(fe_hessian(u) - oracle).max() <= 1e-13 * np.abs(oracle).max()


def _apply(operator, coefficients):
    """(nt, 2, 2) tensors of the operator's blocks applied to vertex values."""
    values = np.einsum("qts,ts->tq", operator.blocks, coefficients[operator.stencil])
    return values.reshape(-1, 2, 2)


def test_operator_matches_direct_evaluation():
    mesh = refine(build_initial_mesh(2), {0, 7})
    operator = hessian_operator(mesh)

    assert np.all(_apply(operator, np.zeros(mesh.vertex_count)) == 0.0)

    affine = interpolate(mesh, lambda x, y: 1.0 - x + 4.0 * y)
    assert np.abs(_apply(operator, affine.coefficients)).max() <= 1e-13

    u = interpolate(mesh, lambda x, y: x * x + y * y)
    assert np.abs(_apply(operator, u.coefficients) - bincount_fe_hessian(u)).max() <= 1e-13


def test_operator_row_locality():
    # an element's stencil holds its own vertices, then per edge the far
    # vertex of the neighbor across it, or (boundary edge, zero weights)
    # the element's own vertex opposite that edge
    mesh = refine(build_initial_mesh(2), {1, 6})
    operator = hessian_operator(mesh)
    stencil = operator.stencil
    neighbor = {}
    for (a, b), adjacent in edge_dictionary(mesh).items():
        if len(adjacent) == 2:
            neighbor[(adjacent[0], a, b)] = adjacent[1]
            neighbor[(adjacent[1], a, b)] = adjacent[0]
    for k, verts in enumerate(mesh.triangle_vertices):
        verts = [int(v) for v in verts]
        assert list(stencil[k, :3]) == verts
        for m in range(3):
            a, b = sorted(verts[j] for j in range(3) if j != m)
            column = operator.blocks[:, k, 3 + m]
            if (k, a, b) in neighbor:
                far = set(mesh.triangle_vertices[neighbor[(k, a, b)]]) - {a, b}
                assert {stencil[k, 3 + m]} == far
                assert np.any(column != 0.0)
            else:
                assert stencil[k, 3 + m] == verts[m]
                assert np.all(column == 0.0)


def test_step_pattern_and_slots():
    # the solver's pattern is sorted, duplicate-free and structurally
    # symmetric, and slot (K, a, s) is the entry (vertex a of K, stencil
    # vertex s), so the slots of vertex 0 give back the stencil; the
    # operator stores that stencil as a read-only int32 array.  The pattern
    # reads only the triangles' vertices and the stencil: the operator is
    # the only reader of the mesh's edge adjacency
    for mesh in [refine(uniform_refine(build_initial_mesh(2)), {2, 5, 30})] \
            + oracle_meshes() + [perturbed_mesh()]:
        operator = hessian_operator(mesh)
        triangles = SimpleNamespace(triangle_vertices=mesh.triangle_vertices,
                                    triangle_count=mesh.triangle_count,
                                    vertex_count=mesh.vertex_count)
        indptr, indices, slots = step_pattern(triangles, operator.stencil)
        assert_bit_identical(operator.stencil, indices[slots[:, 0, :]], "stencil")
        assert operator.stencil.dtype == np.int32
        assert not operator.stencil.flags.writeable
        for arr in (indptr, indices, slots):
            assert arr.dtype == np.int32 and not arr.flags.writeable
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for i in range(mesh.vertex_count):
            assert np.all(np.diff(indices[indptr[i]:indptr[i + 1]]) > 0)
        rows = np.repeat(np.arange(mesh.vertex_count), np.diff(indptr))
        assert np.array_equal(rows[slots], np.broadcast_to(
            mesh.triangle_vertices[:, :, None], slots.shape))
        assert np.array_equal(indices[slots], np.broadcast_to(
            operator.stencil[:, None, :], slots.shape))
        assert np.array_equal(np.unique(slots), np.arange(len(indices)))

        transpose = sp.csr_array((np.ones(len(indices)), indices, indptr)).T.tocsr()
        transpose.sort_indices()
        assert np.array_equal(transpose.indptr, indptr)
        assert np.array_equal(transpose.indices, indices)


@pytest.mark.parametrize("name", list(bit_oracle_meshes()))
def test_operator_is_bit_identical_to_argmax_product_oracle(name, monkeypatch):
    # bit-identical wherever the solver reads the blocks.  The hat-gradient
    # form sums the edge formula's terms in another order:
    # on the dyadic meshes every sum is exact, so the blocks equal the
    # oracle's by value and only the signs of zeros differ; bincount sums
    # from +0, so M_P[u] and T filled from either blocks are bit-identical.
    # On the perturbed mesh the blocks agree to a few ulps
    mesh = bit_oracle_meshes()[name]
    ours = hessian_operator(mesh)
    reference, reference_pattern = argmax_product_operator_and_pattern(mesh)
    assert vars(ours).keys() == {"blocks", "stencil"}
    assert_bit_identical(ours.stencil, reference.stencil, "stencil")
    for attribute, array, expected in zip(("indptr", "indices", "slots"),
                                          step_pattern(mesh, ours.stencil), reference_pattern):
        assert_bit_identical(array, expected, attribute)
    if name == "perturbed":
        scale = np.abs(reference.blocks).max()
        assert np.abs(ours.blocks - reference.blocks).max() <= 4 * np.finfo(float).eps * scale
        return
    assert np.array_equal(ours.blocks, reference.blocks)

    problem = registry()["aronsson"].data
    disc = Discretisation(mesh, problem)
    monkeypatch.setattr(inflap.solver, "hessian_operator", lambda mesh: reference)
    oracle = Discretisation(mesh, problem)
    assert_bit_identical(disc.relaxation, oracle.relaxation, "T")
    for u in kernel_functions(mesh):
        assert_bit_identical(assemble_step(disc, u), assemble_step(oracle, u), "M_P")


def test_operator_reads_no_edge_geometry():
    # the triangles, the corner across each edge and the hat gradients are
    # all the operator needs: no edge table, normals, lengths or areas
    for mesh in [refine(uniform_refine(build_initial_mesh(2)), {2, 5, 30}), perturbed_mesh()]:
        bare = SimpleNamespace(**{name: getattr(mesh, name) for name in (
            "triangle_vertices", "triangle_count", "corner_across", "basis_components")})
        ours, full = hessian_operator(bare), hessian_operator(mesh)
        for attribute in ("blocks", "stencil"):
            assert_bit_identical(getattr(ours, attribute), getattr(full, attribute), attribute)


def test_hessian_builds_no_step_pattern(monkeypatch):
    # the operator and fe_hessian stand alone: only the solver's
    # discretisation builds the step pattern
    def refuse(*args):
        raise AssertionError("step pattern built")

    monkeypatch.setattr(inflap.solver, "step_pattern", refuse)
    mesh = refine(uniform_refine(build_initial_mesh(2)), {3, 17})
    u = interpolate(mesh, lambda x, y: x * x - x * y)
    assert np.array_equal(fe_hessian(u), _apply(hessian_operator(mesh), u.coefficients))
    with pytest.raises(AssertionError, match="step pattern built"):
        Discretisation(mesh, registry()["aronsson"].data)


def test_linearity():
    mesh = refine(build_initial_mesh(2), {3})
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(mesh.vertex_count)
        w = rng.standard_normal(mesh.vertex_count)
        a, b = rng.standard_normal(2)
        combo = fe_hessian(FEFunction(mesh, a * v + b * w))
        parts = a * fe_hessian(FEFunction(mesh, v)) + b * fe_hessian(FEFunction(mesh, w))
        assert np.abs(combo - parts).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_global_consistency_identity(seed):
    # testing with the constant tensor: interior averages cancel pairwise,
    # leaving the boundary flux of the gradient
    mesh = refine(build_initial_mesh(2), {2, 8, 11})
    rng = np.random.default_rng(100 + seed)
    v = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))
    lhs = integrate(fe_hessian(v), mesh)
    grad = gradients(v)
    rhs = np.zeros((2, 2))
    table = row_major_edge_table(mesh)
    for e in table["boundary_edge_ids"]:
        owner = table["edge_triangles"][e, 0]
        rhs += table["edge_lengths"][e] * np.outer(grad[owner], table["edge_normals"][e])
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_mean_hessian_converges_for_quadratics():
    # first-order consistency: the area-weighted mean tensor approaches the
    # constant Hessian of a quadratic, halving the error per refinement
    def hess_error(mesh):
        q = lambda x, y: x * x + 0.5 * x * y - 2.0 * y * y
        exact = np.array([[2.0, 0.5], [0.5, -4.0]])
        u = interpolate(mesh, q)
        mean = integrate(fe_hessian(u), mesh) / 4.0
        return np.abs(mean - exact).max()

    mesh = build_initial_mesh(2)
    errors = []
    for _ in range(4):
        errors.append(hess_error(mesh))
        mesh = uniform_refine(mesh)
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.4 <= fine / coarse <= 0.6
