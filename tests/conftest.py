"""Shared brute-force oracles, test meshes and helpers for the test suite.

The oracles recompute geometry from scratch (affine solves, explicit edge
dictionaries, plain loops) or assemble with general sparse products, so
they stay independent of the vectorised code paths they are used to
check; ``brute_conformity_errors`` tests every vertex against every edge,
and ``decode_vtu_array`` reads a VTU array by the file format alone.
``interpolate``, ``integrate``, ``min_angle_degrees`` and ``centroids``
are helpers that only the tests need, as are the edge normals, lengths
and per-edge triangles of ``row_major_edge_table``.
``two_product_refine``, ``pair_jump_residuals``, ``row_major_mesh_arrays``,
``argmax_product_operator_and_pattern``, the
per-case mesh builds (``quarter_loop_initial_mesh``, ``any_edge_closure``,
``five_case_bisect``) and the row-major kernels (``einsum_gradients``,
``row_sum_l2_norm``, ``outer_diffusion_tensor``, ``batched_physical_points``,
``bincount_fe_hessian``, ``bincount_assemble_step``) are earlier forms of
package code, kept as references for their faster or narrower
replacements.
"""

import base64
import functools

import numpy as np
import scipy.sparse as sp

from inflap.fespace import (FEFunction, evaluate_field, physical_points, triangle_rule,
                            values_at)
from inflap.hessian import fe_hessian
from inflap.mesh import (BOUNDARY_TOL, COVERAGE_TOL, Triangulation, build_initial_mesh,
                         refine, uniform_refine)
from inflap.estimator import GRADIENT_FLOOR, interior_residual_norms, jump_residuals
from inflap.solver import REFINE_MIN_RATE


def interpolate(mesh, g):
    """Vertex (Lagrange) interpolant of a scalar field."""
    return FEFunction(mesh, evaluate_field(g, *mesh.vertex_coords.T))


def integrate(field, mesh):
    """Integral over the whole mesh of a callable, P1 function or tensor field.

    Callables and P1 functions integrate to a float (order-4 quadrature);
    elementwise constant (nt, 2, 2) tensor arrays integrate componentwise
    to a (2, 2) array.
    """
    rule = triangle_rule(4)
    if isinstance(field, np.ndarray):
        return np.einsum("t,trc->rc", mesh.areas, field)
    if isinstance(field, FEFunction):
        return float(mesh.areas @ (values_at(field, rule) @ rule.weights))
    vals = evaluate_field(field, *physical_points(mesh, rule))
    return float(mesh.areas @ (vals @ rule.weights))


def min_angle_degrees(mesh):
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.vertex_coords[mesh.triangle_vertices]
    edge_vec = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    lengths = np.sqrt((edge_vec ** 2).sum(axis=2))
    small = np.inf
    for i in range(3):
        opposite = lengths[:, i]
        adj1 = lengths[:, (i + 1) % 3]
        adj2 = lengths[:, (i + 2) % 3]
        cos = (adj1 ** 2 + adj2 ** 2 - opposite ** 2) / (2.0 * adj1 * adj2)
        small = min(small, np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).min())
    return float(small)


def centroids(mesh):
    """(nt, 2) triangle centroids, each coordinate summed as ((x0 + x1) + x2) / 3."""
    p = mesh.vertex_coords[mesh.triangle_vertices]
    return ((p[:, 0] + p[:, 1]) + p[:, 2]) / 3


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
        graded = refine(graded, np.flatnonzero(np.abs(centroids(graded)[:, 0]) < 0.25))
    return [uniform, local, graded]


@functools.cache
def kernel_meshes():
    """Meshes for the bit-for-bit kernel oracles, with their test ids.

    Uniform levels 0-4 of the 4 x 4 criss-cross mesh (64 to 16,384
    triangles, the meshes of the uniform studies), ten successive random
    local refinements of the 2 x 2 mesh and a perturbed mesh.
    """
    meshes = {"uniform0": build_initial_mesh(4)}
    for level in range(1, 5):
        meshes[f"uniform{level}"] = uniform_refine(meshes[f"uniform{level - 1}"])
    rng = np.random.default_rng(29)
    local = build_initial_mesh(2)
    for k in range(10):
        local = refine(local, rng.choice(local.triangle_count,
                                         max(1, local.triangle_count // 4), replace=False))
        meshes[f"local{k}"] = local
    meshes["perturbed"] = perturbed_mesh()
    return meshes


@functools.cache
def bit_oracle_meshes():
    """``kernel_meshes()`` and ``oracle_meshes()`` together, by test id."""
    return {**kernel_meshes(), **dict(zip(["oracle-uniform", "oracle-local", "oracle-graded"],
                                          oracle_meshes()))}


def quarter_loop_initial_mesh(n):
    """``build_initial_mesh(n)`` with each quarter of the squares written by a strided loop."""
    ticks = np.linspace(-1.0, 1.0, n + 1)
    gx, gy = np.meshgrid(ticks, ticks, indexing="xy")
    corners = np.column_stack([gx.ravel(), gy.ravel()])
    mids = 0.5 * (ticks[:-1] + ticks[1:])
    cx, cy = np.meshgrid(mids, mids, indexing="xy")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    coords = np.vstack([corners, centers])

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i = i.ravel()
    j = j.ravel()
    c00 = j * (n + 1) + i
    c10 = c00 + 1
    c01 = c00 + (n + 1)
    c11 = c01 + 1
    center = (n + 1) ** 2 + j * n + i
    quarters = [(c00, c10, center), (c10, c11, center),
                (c11, c01, center), (c01, c00, center)]
    tris = np.empty((4 * n * n, 3), dtype=np.int64)
    for q, (u, v, w) in enumerate(quarters):
        tris[q::4, 0] = u
        tris[q::4, 1] = v
        tris[q::4, 2] = w
    return Triangulation(coords, tris)


def any_edge_closure(mesh, marked):
    """The edges ``refine`` bisects for the triangle ids ``marked``.

    Marks the refinement edge of every marked triangle, then of every
    triangle with any marked edge, until nothing changes.  Edges are the
    ids of ``row_major_edge_table``.
    """
    table = row_major_edge_table(mesh)
    triangle_edges = table["triangle_edges"]
    edge_marked = np.zeros(len(table["edge_vertices"]), dtype=bool)
    ref_edge = triangle_edges[:, 2]
    edge_marked[ref_edge[np.asarray(marked, dtype=np.int64)]] = True
    while True:
        needs = edge_marked[triangle_edges].any(axis=1) & ~edge_marked[ref_edge]
        if not needs.any():
            break
        edge_marked[ref_edge[needs]] = True
    return edge_marked


def five_case_bisect(mesh, edge_marked):
    """The refined mesh for a closed edge marking, one hand-written case at a time.

    Each triangle falls in one of five cases (kept, refinement edge only,
    with the edge opposite vertex 1, with the edge opposite vertex 0, all
    three edges), and each child of each case is emitted by its own call.
    ``edge_marked`` is indexed by the edge ids of ``row_major_edge_table``,
    ordered by (smaller, larger) endpoint id, and the midpoints follow
    that order.
    """
    tris = mesh.triangle_vertices
    table = row_major_edge_table(mesh)
    te = table["triangle_edges"]
    nt = mesh.triangle_count
    nv = mesh.vertex_count

    split = np.flatnonzero(edge_marked)
    midpoint_of = np.full(len(table["edge_vertices"]), -1, dtype=np.int64)
    midpoint_of[split] = nv + np.arange(len(split))
    pairs = table["edge_vertices"][split]
    mids = 0.5 * (mesh.vertex_coords[pairs[:, 0]] + mesh.vertex_coords[pairs[:, 1]])
    coords = np.vstack([mesh.vertex_coords, mids])

    m = edge_marked[te]
    assert not np.any((m[:, 0] | m[:, 1]) & ~m[:, 2]), "marking is not closed"
    case = np.zeros(nt, dtype=np.int64)
    case[m[:, 2] & ~m[:, 1] & ~m[:, 0]] = 1
    case[m[:, 2] & m[:, 1] & ~m[:, 0]] = 2
    case[m[:, 2] & ~m[:, 1] & m[:, 0]] = 3
    case[m[:, 2] & m[:, 1] & m[:, 0]] = 4
    n_children = np.array([1, 2, 3, 3, 4])[case]
    start = np.concatenate([[0], np.cumsum(n_children)])
    out = np.empty((start[-1], 3), dtype=np.int64)

    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    m0 = midpoint_of[te[:, 0]]
    m1 = midpoint_of[te[:, 1]]
    m2 = midpoint_of[te[:, 2]]

    def emit(mask, slot, cols):
        rows = start[:-1][mask] + slot
        out[rows, 0] = cols[0][mask]
        out[rows, 1] = cols[1][mask]
        out[rows, 2] = cols[2][mask]

    emit(case == 0, 0, (a, b, c))
    only = case == 1
    emit(only, 0, (c, a, m2))
    emit(only, 1, (b, c, m2))
    left = case == 2
    emit(left, 0, (m2, c, m1))
    emit(left, 1, (a, m2, m1))
    emit(left, 2, (b, c, m2))
    right = case == 3
    emit(right, 0, (c, a, m2))
    emit(right, 1, (m2, b, m0))
    emit(right, 2, (c, m2, m0))
    both = case == 4
    emit(both, 0, (m2, c, m1))
    emit(both, 1, (a, m2, m1))
    emit(both, 2, (m2, b, m0))
    emit(both, 3, (c, m2, m0))
    return Triangulation(coords, out, new_vertex_parents=pairs)


def assert_bit_identical(ours, reference, name=""):
    """Same dtype, shape, strides and values, signed zeros included."""
    assert (ours.dtype, ours.shape, ours.strides) == \
        (reference.dtype, reference.shape, reference.strides), name
    assert np.array_equal(ours, reference), name
    if ours.dtype.kind == "f":
        assert np.array_equal(np.signbit(ours), np.signbit(reference)), name


def kernel_functions(mesh):
    """A nonsmooth field and random vertex values on ``mesh``."""
    coords = mesh.vertex_coords
    rough = (np.abs(coords[:, 0]) ** (4 / 3) - np.abs(coords[:, 1]) ** (4 / 3)
             + 0.1 * np.sin(3.0 * coords[:, 0] * coords[:, 1]))
    noise = np.random.default_rng(mesh.triangle_count).standard_normal(mesh.vertex_count)
    return [FEFunction(mesh, rough), FEFunction(mesh, noise)]


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


def brute_conformity_errors(mesh, tol=1e-12):
    """Brute-force conformity check, intended as an independent oracle.

    Works directly from the triangle list (not the cached edge table):
    counts edge multiplicities with a dictionary, tests every vertex
    against every edge segment for hanging nodes, and checks orientation,
    coverage and that single-sided edges lie on the boundary of the
    square.  Returns a list of human-readable violations, empty when the
    mesh is conforming.  Quadratic in the mesh size.
    """
    problems = []
    coords = mesh.vertex_coords
    tris = mesh.triangle_vertices

    seen = {}
    for verts in tris:
        v = [int(x) for x in verts]
        for i, j in ((v[0], v[1]), (v[1], v[2]), (v[2], v[0])):
            key = (i, j) if i < j else (j, i)
            seen[key] = seen.get(key, 0) + 1
    for key, count in seen.items():
        if count > 2:
            problems.append(f"edge {key} shared by {count} triangles")

    pa = coords[tris[:, 0]]
    ab, ac = coords[tris[:, 1]] - pa, coords[tris[:, 2]] - pa
    signed = 0.5 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    for k in np.flatnonzero(signed <= 0.0):
        problems.append(f"triangle {k} has non-positive area {signed[k]:.3e}")
    total = signed.sum()
    if abs(total - 4.0) > COVERAGE_TOL:
        problems.append(f"total area {total!r} differs from 4")

    edges = np.array(sorted(seen.keys()), dtype=np.int64)
    a = coords[edges[:, 0]]
    d = coords[edges[:, 1]] - a
    dd = (d ** 2).sum(axis=1)
    chunk = max(1, int(2e6) // max(len(edges), 1))
    for lo in range(0, len(coords), chunk):
        pts = coords[lo:lo + chunk]
        rel = pts[:, None, :] - a[None, :, :]
        cross = rel[..., 0] * d[None, :, 1] - rel[..., 1] * d[None, :, 0]
        t = (rel * d[None, :, :]).sum(axis=2) / dd[None, :]
        near = (np.abs(cross) <= tol * np.sqrt(dd)[None, :]) & (t > tol) & (t < 1.0 - tol)
        ids = np.arange(lo, lo + len(pts))
        near &= (ids[:, None] != edges[None, :, 0]) & (ids[:, None] != edges[None, :, 1])
        for vi, ei in zip(*np.nonzero(near)):
            problems.append(f"vertex {lo + int(vi)} hangs on edge "
                            f"{tuple(int(x) for x in edges[ei])}")

    for key, count in seen.items():
        if count != 1:
            continue
        qa, qb = coords[key[0]], coords[key[1]]
        on_side = any(abs(qa[axis] - side) <= BOUNDARY_TOL
                      and abs(qb[axis] - side) <= BOUNDARY_TOL
                      for axis in (0, 1) for side in (-1.0, 1.0))
        if not on_side:
            problems.append(f"interior edge {key} has only one neighbor")
    return problems


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


def _edge_terms(mesh, table, receiver, source, edge_ids, weight, rows, cols, vals):
    """Write COO entries of blocks of edge terms into (block, i, r, c, edge) views.

    ``receiver`` and ``source`` are (blocks, edges) element ids.  Each
    entry adds weight * |e| / |K_receiver| * grad(hat_i on source)[r] * n[c],
    with n the normal of e pointing out of the receiver, to component
    (r, c) of the receiver and the column of the source's vertex i.
    """
    normals = table["edge_normals"][edge_ids].T                     # (2, edges)
    sign = np.where(table["edge_triangles"][edge_ids, 0] == receiver, 1.0, -1.0)
    scale = weight * table["edge_lengths"][edge_ids] / mesh.areas[receiver] * sign
    basis = mesh.basis_components[:, :, source].transpose(2, 1, 0, 3)   # (blocks, 3, 2, edges)
    np.multiply(scale[:, None, None, None, :] * basis[:, :, :, None, :], normals, out=vals)
    rows[...] = 4 * receiver[:, None, None, None, :] + np.arange(4).reshape(2, 2, 1)
    cols[...] = mesh.triangle_vertices[source].transpose(0, 2, 1)[:, :, None, None, :]


def coo_hessian_matrix(mesh):
    """Recovered-Hessian map as a (4 nt, nv) CSR matrix, built from COO edge terms.

    Row 4*K + 2*r + c gives component (r, c) on element K.  ``tocsr`` sums
    the duplicate entries of each (row, vertex) pair.
    """
    table = row_major_edge_table(mesh)
    interior = table["interior_edge_ids"]
    boundary = table["boundary_edge_ids"]
    plus, minus = table["edge_triangles"][interior].T
    owner = table["edge_triangles"][boundary, 0][None]
    split = 48 * len(interior)
    rows = np.empty(split + 12 * len(boundary), dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))
    inner = (4, 3, 2, 2, len(interior))
    outer = (1, 3, 2, 2, len(boundary))
    _edge_terms(mesh, table, np.stack([plus, plus, minus, minus]),
                np.stack([plus, minus, plus, minus]), interior, 0.5,
                *(a[:split].reshape(inner) for a in (rows, cols, vals)))
    _edge_terms(mesh, table, owner, owner, boundary, 1.0,
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


def sparse_product_dirichlet(matrix, rhs, mesh, g):
    """Dirichlet lift by diagonal products: keep @ matrix @ keep + pin.

    Boundary rows become identity rows with g(vertex) on the right, the
    boundary columns move into the right-hand side of the interior rows;
    the sparse products drop the entries that are exactly zero.
    """
    boundary = np.flatnonzero(mesh.vertex_on_boundary)
    coords = mesh.vertex_coords[boundary]
    values = evaluate_field(g, coords[:, 0], coords[:, 1])
    lifted = np.zeros(mesh.vertex_count)
    lifted[boundary] = values
    interior = np.ones(mesh.vertex_count)
    interior[boundary] = 0.0
    new_rhs = interior * (rhs - matrix @ lifted)
    new_rhs[boundary] = values
    keep = sp.diags(interior)
    pin = sp.diags(1.0 - interior)
    return (keep @ matrix @ keep + pin).tocsr(), new_rhs


def coo_poisson_stiffness(mesh):
    """P1 stiffness matrix, element matrices summed by COO to CSR conversion."""
    basis = mesh.basis_components.transpose(2, 1, 0)
    local = mesh.areas[:, None, None] * np.einsum("tid,tjd->tij", basis, basis)
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
    vals = evaluate_field(f, *physical_points(mesh, rule))
    per_vertex = vals @ (rule.weights[:, None] * rule.points)
    out = np.zeros(mesh.vertex_count)
    np.add.at(out, mesh.triangle_vertices, mesh.areas[:, None] * per_vertex)
    return out


def add_at_trace_test(mesh, hessian):
    """|K| trace(hessian_K) / 3 on each vertex of K: the hat-function test of the trace."""
    out = np.zeros(mesh.vertex_count)
    np.add.at(out, mesh.triangle_vertices,
              (mesh.areas * (hessian[:, 0, 0] + hessian[:, 1, 1]) / 3.0)[:, None])
    return out


def weighted_residuals(u, f):
    """The two parts ``estimate`` sums: h_K ||R||_K per element and |J| h_e per interior edge."""
    return u.mesh.diameters * interior_residual_norms(u.mesh, f), np.abs(jump_residuals(u))


def add_at_squared_indicators(mesh, interior, jumps):
    """interior**2 plus half of each interior edge's jumps**2 on both sides.

    ``jumps`` is ordered like ``lower_corner_order``.
    """
    table = row_major_edge_table(mesh)
    plus, minus = table["edge_triangles"][lower_corner_order(table)].T
    eta_sq = interior ** 2
    half = 0.5 * jumps ** 2
    np.add.at(eta_sq, plus, half)
    np.add.at(eta_sq, minus, half)
    return eta_sq


def _relative_residual(matrix, solution, rhs):
    scale = np.linalg.norm(rhs)
    residual = np.linalg.norm(matrix @ solution - rhs) if np.isfinite(solution).all() else np.inf
    return residual / scale if scale > 0 else residual


def two_product_refine(matrix, rhs, lu, start, accept):
    """Iterative refinement with ``lu`` from ``start`` (zero when None).

    Computes each iterate's residual twice, ``matrix @ x - rhs`` for the
    stop test and ``rhs - matrix @ x`` for the next correction.  Returns
    the solution and the number of LU solves once the relative residual is
    at most ``accept``, or None once it falls by less than REFINE_MIN_RATE
    per LU solve on average after the first.
    """
    solution = lu.solve(rhs) if start is None else start + lu.solve(rhs - matrix @ start)
    solves = 1
    first = relative = _relative_residual(matrix, solution, rhs)
    while not relative <= accept:
        if solves > 1 and not relative < first * REFINE_MIN_RATE ** (solves - 1):
            return None
        solution = solution + lu.solve(rhs - matrix @ solution)
        solves += 1
        relative = _relative_residual(matrix, solution, rhs)
    return solution, solves


def row_major_edge_table(mesh):
    """The edge table of ``mesh`` from row-sorted endpoint pairs and ``np.unique``.

    A second stable argsort and ``searchsorted`` give each edge's
    triangles, the smaller id first (-1 in slot 1 on the boundary), and a
    compare-and-argmax over the other triangle's edges the corner across
    each edge of a triangle.  ``scaled_normals`` is the edge vector turned
    to point out of the edge's first triangle (|e| n) and ``edge_normals``
    the unit normal.  Returns a dict of name -> array.
    """
    coords, tris = mesh.vertex_coords, mesh.triangle_vertices
    nv, nt = len(coords), len(tris)
    pairs = np.sort(tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
    keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
    edge_vertices = np.column_stack([keys // nv, keys % nv])
    ne = len(edge_vertices)
    counts = np.bincount(inverse, minlength=ne)
    triangle_edges = inverse.reshape(nt, 3)
    order = np.argsort(inverse, kind="stable")
    flat_tri = np.repeat(np.arange(nt, dtype=np.int64), 3)[order]
    first = np.searchsorted(inverse[order], np.arange(ne))
    edge_triangles = np.full((ne, 2), -1, dtype=np.int64)
    edge_triangles[:, 0] = flat_tri[first]
    has_two = counts == 2
    edge_triangles[has_two, 1] = flat_tri[first[has_two] + 1]
    sides = edge_triangles[triangle_edges]                          # (nt, 3, 2)
    other = np.where(sides[..., 0] == np.arange(nt)[:, None], sides[..., 1], sides[..., 0])
    slot = np.argmax(triangle_edges[np.maximum(other, 0)] == triangle_edges[..., None], axis=2)

    a, b = coords[edge_vertices[:, 0]], coords[edge_vertices[:, 1]]
    tangent = b - a
    edge_lengths = np.sqrt((tangent ** 2).sum(axis=1))
    scaled_normals = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    center = coords[tris].mean(axis=1)[edge_triangles[:, 0]]
    scaled_normals[((0.5 * (a + b) - center) * scaled_normals).sum(axis=1) < 0.0] *= -1.0
    return {
        "edge_vertices": edge_vertices, "triangle_edges": triangle_edges,
        "corner_across": np.where(other >= 0, 3 * other + slot, -1),
        "edge_triangles": edge_triangles, "interior_edge_ids": np.flatnonzero(has_two),
        "boundary_edge_ids": np.flatnonzero(counts == 1), "edge_lengths": edge_lengths,
        "scaled_normals": scaled_normals, "edge_normals": scaled_normals / edge_lengths[:, None],
    }


def lower_corner_order(table):
    """Interior edge ids of ``table`` by the flat corner 3 K + m of the edge in its first triangle K."""
    interior = table["interior_edge_ids"]
    plus = table["edge_triangles"][interior, 0]
    slot = np.argmax(table["triangle_edges"][plus] == interior[:, None], axis=1)
    return interior[np.argsort(3 * plus + slot)]


def row_major_mesh_arrays(mesh):
    """Every array of ``mesh`` recomputed from (nt, 3, 2) corner rows and ``row_major_edge_table``.

    Geometry is reduced along the corner and coordinate axes.  Returns a
    dict of attribute name -> array.
    """
    coords, tris = mesh.vertex_coords, mesh.triangle_vertices
    p = coords[tris]
    edge_vec = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    table = row_major_edge_table(mesh)
    return {
        "vertex_coords": coords, "triangle_vertices": tris,
        "vertex_on_boundary": np.abs(np.abs(coords).max(axis=1) - 1.0) <= BOUNDARY_TOL,
        "areas": areas, "diameters": np.sqrt((edge_vec ** 2).sum(axis=2)).max(axis=1),
        "basis_components": np.stack([-edge_vec[..., 1].T, edge_vec[..., 0].T]) / (2.0 * areas),
        "corner_across": table["corner_across"],
    }


def argmax_product_operator_and_pattern(mesh):
    """The Hessian blocks and stencil and the step pattern, each far slot found by argmax.

    The far slot is the position of the shared edge among the neighbor's
    edges, the step pattern is the sparse product incidence^T @ reach and
    the slots are read back by fancy indexing into it.  Returns the pair
    ``(blocks, stencil)`` and the int32 ``(indptr, indices, slots)``.
    """
    tris = mesh.triangle_vertices
    nt, nv = mesh.triangle_count, mesh.vertex_count
    table = row_major_edge_table(mesh)
    triangle_edges = table["triangle_edges"]
    edges = np.ascontiguousarray(triangle_edges.T)
    own = np.arange(nt)
    adjacent = table["edge_triangles"][edges]
    is_plus = adjacent[..., 0] == own
    neighbor = np.where(is_plus, adjacent[..., 1], adjacent[..., 0])
    interior = neighbor >= 0
    neighbor = np.where(interior, neighbor, own)
    far = np.argmax(triangle_edges[neighbor] == edges[..., None], axis=2)

    sign = np.where(is_plus, 1.0, -1.0)
    scale = np.where(interior, 0.5, 1.0) * table["edge_lengths"][edges] / mesh.areas * sign
    across = np.where(interior, scale, 0.0)
    normals = np.ascontiguousarray(table["edge_normals"][edges].transpose(0, 2, 1))[:, None]
    basis = mesh.basis_components

    def term(m, weights, gradient):
        return (weights[m] * gradient)[:, None] * normals[m]

    def their_gradient(m, local):
        return basis[:, (far[m] + local) % 3, neighbor[m]]

    blocks = np.empty((6, 2, 2, nt))
    for a in range(3):
        gradient = basis[:, a]
        blocks[a] = term(0, scale, gradient)
        blocks[a] += term(1, scale, gradient)
        blocks[a] += term(2, scale, gradient)
        blocks[a] += term((a + 1) % 3, across, their_gradient((a + 1) % 3, 1))
        blocks[a] += term((a + 2) % 3, across, their_gradient((a + 2) % 3, 2))
    for m in range(3):
        blocks[3 + m] = term(m, across, their_gradient(m, 0))
    blocks = np.ascontiguousarray(blocks.reshape(6, 4, nt).transpose(1, 2, 0))
    stencil = np.concatenate([tris, np.where(interior, tris[neighbor, far], tris.T).T], axis=1)
    stencil = stencil.astype(np.int32)

    incidence = sp.csr_array((np.ones(3 * nt), tris.reshape(-1), 3 * np.arange(nt + 1)),
                             shape=(nt, nv))
    reach = sp.csr_array((np.ones(6 * nt), stencil.reshape(-1), 6 * np.arange(nt + 1)),
                         shape=(nt, nv))
    pattern = (incidence.T @ reach).tocsr()
    position = sp.csr_array((np.arange(pattern.nnz, dtype=float), pattern.indices,
                             pattern.indptr), shape=pattern.shape)
    slots = position[np.repeat(tris, 6, axis=1).reshape(-1),
                     np.tile(stencil, 3).reshape(-1)]
    return (blocks, stencil), (pattern.indptr.astype(np.int32),
                               pattern.indices.astype(np.int32),
                               slots.astype(np.int32).reshape(nt, 3, 6))


VTK_TYPES = {"Float64": "<f8", "Int64": "<i8", "UInt8": "u1"}


def decode_vtu_array(element):
    """Array of a binary VTU ``DataArray`` element, read as VTK's XML format defines it.

    The text, stripped of the whitespace around it, is one strict base64
    string: a little-endian UInt32 byte count, then exactly that many bytes
    of the declared type.  Arrays with more than one component come back
    with one row per tuple.
    """
    assert element.get("format") == "binary"
    raw = base64.b64decode(element.text.strip(), validate=True)
    assert int.from_bytes(raw[:4], "little") == len(raw) - 4
    values = np.frombuffer(raw[4:], dtype=VTK_TYPES[element.get("type")])
    components = int(element.get("NumberOfComponents", "1"))
    return values if components == 1 else values.reshape(-1, components)


def pair_jump_residuals(u_prev, u_next, tau):
    """Jump residual times |e| of the step from ``u_prev`` to ``u_next`` on every interior edge.

    Edges come in ``lower_corner_order`` with the normal |e| n out of the
    first triangle taken from the turned edge vector.  The diffusion
    tensor and the 1/tau gradient jump come from ``u_prev``, the tensor
    jump from ``u_next``.  At the pair ``(u, u)`` the two 1/tau terms
    cancel, which leaves the package's tau-free residual; at ``tau=np.inf``
    they are zero.
    """
    table = row_major_edge_table(u_prev.mesh)
    interior = lower_corner_order(table)
    plus, minus = table["edge_triangles"][interior].T
    normals = table["scaled_normals"][interior]
    grad_prev = einsum_gradients(u_prev)
    grad_next = einsum_gradients(u_next)
    tensors = outer_diffusion_tensor(u_prev, tau)
    gradient_jump = ((grad_prev[plus] - grad_prev[minus]) * normals).sum(axis=1)
    tensor_jump = (grad_next[plus] - grad_next[minus])[:, :, None] * normals[:, None, :]
    averaged = 0.5 * (tensors[plus] + tensors[minus])
    return gradient_jump / tau - np.einsum("erc,erc->e", averaged, tensor_jump)


# Row-major forms of the per-step kernels.  The package computes the same
# numbers component by component on contiguous vectors, bit for bit.

def batched_physical_points(mesh, rule):
    """Quadrature nodes (nt, nq, 2) by one batched product over (nt, 3, 2) corner rows."""
    return rule.points @ mesh.vertex_coords[mesh.triangle_vertices]


def einsum_gradients(u):
    """Elementwise gradients (nt, 2) by one einsum over the (nt, 3, 2) basis."""
    values = u.coefficients[u.mesh.triangle_vertices]
    basis = np.ascontiguousarray(u.mesh.basis_components.transpose(2, 1, 0))
    return np.einsum("tid,ti->td", basis, values)


def row_sum_l2_norm(u):
    """Exact L2 norm of a P1 function from (nt, 3) rows of vertex values."""
    v = u.coefficients[u.mesh.triangle_vertices]
    s = v.sum(axis=1)
    return float(np.sqrt(np.sum(u.mesh.areas / 12.0 * (s * s + (v * v).sum(axis=1)))))


def outer_diffusion_tensor(u, tau):
    """(nt, 2, 2) tensors (p (x) p) / max(|p|^2, GRADIENT_FLOOR) + I / tau (P at np.inf)."""
    grad = einsum_gradients(u)
    denom = np.maximum((grad ** 2).sum(axis=1), GRADIENT_FLOOR)
    out = grad[:, :, None] * grad[:, None, :] / denom[:, None, None]
    out[:, 0, 0] += 1.0 / tau
    out[:, 1, 1] += 1.0 / tau
    return out


def bincount_fe_hessian(v):
    """Recovered Hessian (nt, 2, 2): all edge terms of an element in one bincount.

    Each element sums its terms in the order they appear: interior edges
    where it is the first neighbor, then the negated terms where it is the
    second, then its boundary edges, each by ascending edge id.
    """
    mesh = v.mesh
    grad = einsum_gradients(v)
    table = row_major_edge_table(mesh)
    lengths, unit = table["edge_lengths"], table["edge_normals"]

    interior = table["interior_edge_ids"]
    plus, minus = table["edge_triangles"][interior].T
    weighted = lengths[interior, None, None] * \
        (0.5 * (grad[plus] + grad[minus]))[:, :, None] * unit[interior, None, :]

    boundary = table["boundary_edge_ids"]
    owner = table["edge_triangles"][boundary, 0]
    weighted_boundary = lengths[boundary, None, None] * \
        grad[owner][:, :, None] * unit[boundary, None, :]

    receivers = np.concatenate([plus, minus, owner])
    terms = np.concatenate([weighted, -weighted, weighted_boundary])
    out = np.bincount((4 * receivers[:, None] + np.arange(4)).reshape(-1),
                      weights=terms.reshape(-1), minlength=4 * mesh.triangle_count)
    return out.reshape(-1, 2, 2) / mesh.areas[:, None, None]


def bincount_assemble_step(disc, u_prev, tau):
    """Step-matrix data and right-hand side from (nt, 2, 2) tensors and Hessians.

    The combined relaxed step at ``tau``: the tensors are P + I / tau, and
    the right-hand side adds the trace of ``fe_hessian`` over tau to the
    load.  At ``tau=np.inf`` the matrix data are those of the tau-free M_P.
    """
    mesh = disc.mesh
    tensors = outer_diffusion_tensor(u_prev, tau).reshape(-1, 4, 1)
    blocks = disc.blocks
    weights = (((tensors[:, 0] * blocks[0] + tensors[:, 1] * blocks[1])
                + tensors[:, 2] * blocks[2]) + tensors[:, 3] * blocks[3])
    weights *= (mesh.areas / 3.0)[:, None]
    data = np.bincount(disc.slots.reshape(-1), minlength=len(disc.indices),
                       weights=np.broadcast_to(weights[:, None], disc.slots.shape).reshape(-1))
    hessian = fe_hessian(u_prev)
    relax = mesh.areas * (hessian[:, 0, 0] + hessian[:, 1, 1]) / (3.0 * tau)
    rhs = np.bincount(np.concatenate([np.arange(mesh.vertex_count),
                                      mesh.triangle_vertices.reshape(-1)]),
                      weights=np.concatenate([disc.load, np.repeat(relax, 3)]))
    return data, rhs
