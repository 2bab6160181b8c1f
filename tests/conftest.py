"""Shared brute-force oracles and test meshes for the test suite.

Everything here recomputes geometry from scratch (affine solves, explicit
edge dictionaries, plain loops) or assembles with general sparse products,
so it stays independent of the vectorised code paths it is used to check.
"""

import numpy as np
import scipy.sparse as sp

from inflap.fespace import (evaluate_field, physical_points, tensor_trace,
                            triangle_rule)
from inflap.mesh import Triangulation, build_initial_mesh, refine, uniform_refine


def oracle_meshes():
    """A uniform, a randomly refined and an axis-graded mesh."""
    rng = np.random.default_rng(17)
    uniform = uniform_refine(uniform_refine(build_initial_mesh(4)))
    local = build_initial_mesh(4)
    for _ in range(6):
        local = refine(local, rng.choice(local.triangle_count,
                                         local.triangle_count // 5, replace=False))
    graded = build_initial_mesh(2)
    for _ in range(8):
        graded = refine(graded, np.flatnonzero(np.abs(graded.centroids[:, 0]) < 0.25))
    return [uniform, local, graded]


def perturbed_mesh():
    """A uniform mesh with randomly displaced interior vertices."""
    rng = np.random.default_rng(4)
    base = uniform_refine(build_initial_mesh(4))
    coords = base.vertex_coords.copy()
    inner = ~base.vertex_on_boundary
    coords[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 2)) * base.diameters.min()
    return Triangulation(coords, base.triangle_vertices)


def tri_area(mesh, k):
    p = mesh.vertex_coords[mesh.triangle_vertices[k]]
    return 0.5 * abs((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                     - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))


def affine_gradient(mesh, k, values):
    """Gradient on element k from a 3x3 Vandermonde solve."""
    p = mesh.vertex_coords[mesh.triangle_vertices[k]]
    vander = np.column_stack([np.ones(3), p])
    return np.linalg.solve(vander, values[mesh.triangle_vertices[k]])[1:]


def hat_gradients(mesh, k):
    p = mesh.vertex_coords[mesh.triangle_vertices[k]]
    vander = np.column_stack([np.ones(3), p])
    rows = []
    for i in range(3):
        unit = np.zeros(3)
        unit[i] = 1.0
        rows.append(np.linalg.solve(vander, unit)[1:])
    return np.array(rows)


def edge_dictionary(mesh):
    """Sorted endpoint pair -> list of adjacent triangle ids."""
    edges = {}
    for k, verts in enumerate(mesh.triangle_vertices):
        v = [int(x) for x in verts]
        for a, b in ((v[0], v[1]), (v[1], v[2]), (v[2], v[0])):
            edges.setdefault((min(a, b), max(a, b)), []).append(k)
    return edges


def outward_normal(mesh, k, a, b):
    pa, pb = mesh.vertex_coords[a], mesh.vertex_coords[b]
    t = pb - pa
    n = np.array([-t[1], t[0]]) / np.linalg.norm(t)
    centroid = mesh.vertex_coords[mesh.triangle_vertices[k]].mean(axis=0)
    if n @ (0.5 * (pa + pb) - centroid) < 0:
        n = -n
    return n


def brute_saddle(mesh, u_prev_coeffs, f, g, tau, eps=1e-10, dirichlet=True):
    """Dense coupled system in the unknowns [U (nv); H (4 nt, row-major)].

    The first nv rows test A[u_prev] : H with the hat functions (Dirichlet
    rows replaced when requested); the remaining rows impose the
    elementwise Hessian identity |K| H = edge terms(U).  Returns the
    matrix, a callable producing the right-hand side for given previous
    Hessian matrices, and the boundary dof ids.
    """
    nv, nt = mesh.vertex_count, mesh.triangle_count
    tris = mesh.triangle_vertices
    coords = mesh.vertex_coords
    n = nv + 4 * nt
    matrix = np.zeros((n, n))

    tensors = []
    for k in range(nt):
        grad = affine_gradient(mesh, k, u_prev_coeffs)
        denom = max(grad @ grad, eps)
        tensors.append(np.outer(grad, grad) / denom + np.eye(2) / tau)
    tensors = np.array(tensors)

    boundary = np.flatnonzero(mesh.vertex_on_boundary)
    for k in range(nt):
        w = tri_area(mesh, k) / 3.0
        for i in tris[k]:
            for r in range(2):
                for c in range(2):
                    matrix[i, nv + 4 * k + 2 * r + c] += w * tensors[k, r, c]

    for k in range(nt):
        for comp in range(4):
            matrix[nv + 4 * k + comp, nv + 4 * k + comp] = tri_area(mesh, k)

    for (a, b), adjacent in edge_dictionary(mesh).items():
        length = np.linalg.norm(coords[b] - coords[a])
        weight = 0.5 if len(adjacent) == 2 else 1.0
        for k in adjacent:
            normal = outward_normal(mesh, k, a, b)
            for source in adjacent:
                basis = hat_gradients(mesh, source)
                for i in range(3):
                    col = tris[source][i]
                    for r in range(2):
                        for c in range(2):
                            matrix[nv + 4 * k + 2 * r + c, col] -= \
                                weight * length * basis[i, r] * normal[c]

    if dirichlet:
        for i in boundary:
            matrix[i, :] = 0.0
            matrix[i, i] = 1.0

    rule = triangle_rule(4)

    def rhs_for(h_prev_mats):
        rhs = np.zeros(n)
        for k in range(nt):
            area = tri_area(mesh, k)
            trace = h_prev_mats[k, 0, 0] + h_prev_mats[k, 1, 1]
            p = coords[tris[k]]
            for wq, lam in zip(rule.weights, rule.points):
                x, y = lam @ p
                value = float(f(x, y)) + trace / tau
                for i in range(3):
                    rhs[tris[k][i]] += area * wq * value * lam[i]
        if dirichlet:
            for i in boundary:
                rhs[i] = float(g(coords[i, 0], coords[i, 1]))
        return rhs

    return matrix, rhs_for, boundary


def schur_eliminate(matrix, nv):
    """Fold the Hessian block back onto the vertex block.

    The lower-right block is diagonal, so H = D^-1 B U substitutes
    directly into the upper rows.
    """
    coupling = matrix[:nv, nv:]
    diag = np.diag(matrix[nv:, nv:]).copy()
    to_u = -matrix[nv:, :nv]
    return matrix[:nv, :nv] + coupling @ (to_u / diag[:, None])


def _edge_terms(mesh, receiver, source, edge_ids, weight, rows, cols, vals):
    """Write COO entries of blocks of edge terms into (block, i, r, c, edge) views.

    ``receiver`` and ``source`` are (blocks, edges) element ids.  Each
    entry adds weight * |e| / |K_receiver| * grad(hat_i on source)[r] * n[c],
    with n the normal of e pointing out of the receiver, to component
    (r, c) of the receiver and the column of the source's vertex i.
    """
    normals = mesh.edge_normals[edge_ids].T                         # (2, edges)
    sign = np.where(mesh.edge_triangles[edge_ids, 0] == receiver, 1.0, -1.0)
    scale = weight * mesh.edge_lengths[edge_ids] / mesh.areas[receiver] * sign
    basis = mesh.basis_gradients[source].transpose(0, 2, 3, 1)      # (blocks, 3, 2, edges)
    np.multiply(scale[:, None, None, None, :] * basis[:, :, :, None, :], normals, out=vals)
    rows[...] = 4 * receiver[:, None, None, None, :] + np.arange(4).reshape(2, 2, 1)
    cols[...] = mesh.triangle_vertices[source].transpose(0, 2, 1)[:, :, None, None, :]


def coo_hessian_matrix(mesh):
    """Recovered-Hessian map as a (4 nt, nv) CSR matrix, built from COO edge terms.

    Row 4*K + 2*r + c gives component (r, c) on element K.  ``tocsr`` sums
    the duplicate entries of each (row, vertex) pair.
    """
    interior = mesh.interior_edge_ids
    boundary = mesh.boundary_edge_ids
    plus = mesh.edge_triangles[interior, 0]
    minus = mesh.edge_triangles[interior, 1]
    owner = mesh.edge_triangles[boundary, 0][None]
    split = 48 * len(interior)
    rows = np.empty(split + 12 * len(boundary), dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))
    inner = (4, 3, 2, 2, len(interior))
    outer = (1, 3, 2, 2, len(boundary))
    _edge_terms(mesh, np.stack([plus, plus, minus, minus]),
                np.stack([plus, minus, plus, minus]), interior, 0.5,
                *(a[:split].reshape(inner) for a in (rows, cols, vals)))
    _edge_terms(mesh, owner, owner, boundary, 1.0,
                *(a[split:].reshape(outer) for a in (rows, cols, vals)))
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(4 * mesh.triangle_count, mesh.vertex_count)).tocsr()


def sparse_product_step_matrix(mesh, tensors, hessian_matrix):
    """Step matrix test^T (pairing H): hat-function test of A : H[.].

    ``pairing`` takes the Frobenius product with each element's tensor,
    ``test`` integrates an elementwise constant against the hat functions
    (|K|/3 on each vertex of K).
    """
    nt = mesh.triangle_count
    pairing = sp.csr_matrix((tensors.reshape(-1), np.arange(4 * nt),
                             4 * np.arange(nt + 1)), shape=(nt, 4 * nt))
    test = sp.csr_matrix((np.repeat(mesh.areas / 3.0, 3),
                          mesh.triangle_vertices.reshape(-1),
                          3 * np.arange(nt + 1)),
                         shape=(nt, mesh.vertex_count))
    return (test.T @ (pairing @ hessian_matrix)).tocsr()


def sparse_product_dirichlet(matrix, rhs, space, g):
    """Dirichlet lift by diagonal products: keep @ matrix @ keep + pin.

    Boundary rows become identity rows with g(vertex) on the right, the
    boundary columns move into the right-hand side of the interior rows;
    the sparse products drop the entries that are exactly zero.
    """
    boundary = space.boundary_dofs
    coords = space.mesh.vertex_coords[boundary]
    values = evaluate_field(g, coords[:, 0], coords[:, 1])
    lifted = np.zeros(space.dof_count)
    lifted[boundary] = values
    interior = np.ones(space.dof_count)
    interior[boundary] = 0.0
    new_rhs = interior * (rhs - matrix @ lifted)
    new_rhs[boundary] = values
    keep = sp.diags(interior)
    pin = sp.diags(1.0 - interior)
    return (keep @ matrix @ keep + pin).tocsr(), new_rhs


def coo_poisson_stiffness(mesh):
    """P1 stiffness matrix, element matrices summed by COO to CSR conversion."""
    local = mesh.areas[:, None, None] * np.einsum(
        "tid,tjd->tij", mesh.basis_gradients, mesh.basis_gradients)
    verts = mesh.triangle_vertices
    rows = np.repeat(verts, 3, axis=1).reshape(-1)
    cols = np.tile(verts, (1, 3)).reshape(-1)
    return sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(mesh.vertex_count, mesh.vertex_count)).tocsr()


# The scatters below sum with np.add.at, one term after another in index
# order; the package sums the same terms with np.bincount.

def add_at_load_vector(mesh, f):
    """Integrals of f against the hat functions (order-4 quadrature)."""
    rule = triangle_rule(4)
    pts = physical_points(mesh, rule)
    vals = evaluate_field(f, pts[..., 0], pts[..., 1])
    per_vertex = vals @ (rule.weights[:, None] * rule.points)
    out = np.zeros(mesh.vertex_count)
    np.add.at(out, mesh.triangle_vertices, mesh.areas[:, None] * per_vertex)
    return out


def add_at_step_rhs(mesh, h_prev, problem):
    """Load vector plus |K| trace(h_prev) / (3 tau) on each vertex of K."""
    rhs = add_at_load_vector(mesh, problem.f)
    relax = mesh.areas * tensor_trace(h_prev) / (3.0 * problem.tau)
    np.add.at(rhs, mesh.triangle_vertices, relax[:, None])
    return rhs


def add_at_squared_indicators(mesh, interior, jumps):
    """interior**2 plus half of each interior edge's jumps**2 on both sides."""
    eta_sq = interior ** 2
    half = 0.5 * jumps ** 2
    np.add.at(eta_sq, mesh.edge_triangles[mesh.interior_edge_ids, 0], half)
    np.add.at(eta_sq, mesh.edge_triangles[mesh.interior_edge_ids, 1], half)
    return eta_sq
