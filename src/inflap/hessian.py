"""Recovered elementwise Hessians of P1 functions.

The second derivative of a piecewise-affine function only exists
distributionally.  Testing it against the indicator of an element and
integrating by parts twice leaves pure edge terms (the volume term dies
because the test function is constant), which gives the closed form

    H_K = (1/|K|) * sum over the edges e of K of |e| * gbar_e (x) n_{K,e}

where gbar_e is the average of the gradients on the one or two elements
meeting e, n_{K,e} is the unit normal pointing out of K, and (x) is the
outer product.

``hessian_operator`` builds this map once per mesh as one dense 4x6 block
per element over the element's stencil (its own vertices and the vertex
across each interior edge).  ``hessian_components`` contracts the blocks
with the vertex values at the stencil; it is the only evaluation of the
formula, and ``fe_hessian`` returns it as the (nt, 2, 2) tensor.  The
solver tests the trace of the blocks with the hat functions once per mesh
(its relaxation matrix), so no linearised step contracts them with an
iterate.  The operator also carries the pattern of the step matrix its
blocks fill and each block entry's position in it (whose column is the
stencil vertex), so a step only computes new values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fespace import FEFunction
from .mesh import Triangulation


class HessianOperator:
    """The recovered-Hessian map of one mesh, element by element.

    ``blocks[2*r + c, K, s]`` is the weight of stencil vertex
    ``stencil[K, s]`` in component (r, c) of the recovered Hessian on K.
    Stencil slots 0-2 are the vertices of K, slot 3 + m the vertex across
    the edge opposite vertex m; on a boundary edge that slot repeats vertex
    m with zero weights.

    ``indptr``/``indices`` are the int32 CSR pattern (sorted, no
    duplicates) of the vertex-by-vertex step matrix, whose row i gathers
    every element with vertex i; int32 is scipy's own index type for these
    sizes, so a ``csr_matrix`` built on them shares them instead of
    casting copies.  ``slots[K, a, s]`` is the position in that pattern of
    the entry (vertex a of K, stencil vertex s of K), so ``stencil`` (int32,
    (nt, 6)) is ``indices[slots[:, 0, :]]``.
    """

    def __init__(self, blocks: np.ndarray, stencil: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray, slots: np.ndarray):
        self.blocks = blocks
        self.stencil = stencil
        self.indptr = indptr
        self.indices = indices
        self.slots = slots
        for arr in (blocks, stencil, indptr, indices, slots):
            arr.setflags(write=False)


def hessian_components(operator: HessianOperator, coefficients: np.ndarray) -> np.ndarray:
    """Recovered Hessian of the P1 function with vertex values ``coefficients``.

    Returns the (4, nt) components, row-major within each element: the
    blocks of ``operator`` contracted with the values at its stencil.
    """
    return np.einsum("qts,ts->qt", operator.blocks, np.take(coefficients, operator.stencil))


def fe_hessian(v: FEFunction) -> np.ndarray:
    """Elementwise 2x2 Hessian recovered from edge jumps of the gradient.

    Returns an (nt, 2, 2) array, row-major within each element, from the
    operator of ``v.mesh``.  In exact arithmetic the result vanishes for
    globally affine inputs because the length-weighted outward normals of
    each element sum to zero.
    """
    return hessian_components(hessian_operator(v.mesh), v.coefficients).T.reshape(-1, 2, 2)


def hessian_operator(mesh: Triangulation) -> HessianOperator:
    """Build the per-element Hessian blocks and the step-matrix pattern.

    Each edge term of the recovered Hessian is split by the element whose
    gradient it carries: an interior edge passes half of each neighbor's
    gradient to both neighbors, a boundary edge all of its owner's
    gradient to the owner.  Every term is (weight * |e| / |K| * grad[r]) *
    n[c] with n pointing out of the receiver K.  The weight of own vertex a
    sums K's three edge terms, then the terms of the neighbors across edges
    a + 1 and a + 2.  On the meshes ``build_initial_mesh`` and ``refine``
    make, the sums equal bit for bit those of the COO assembly the tests
    keep as oracle, whose duplicates are summed in another order.

    The neighbor across edge m and the slot of that edge in it come from
    the mesh's edge table (``edge_triangles``, ``edge_local``).  The
    pattern is built with int32 temporaries from the 12 nt queries that
    are not known duplicates: they are grouped by row with one counting
    sort, ordered within each row by ``sort_indices``, and numbered by a
    running count of the distinct columns, which gives their ``slots``;
    the other 6 nt slots are gathered from the own-vertex slots they
    repeat.  ``stencil``, ``indptr``, ``indices`` and ``slots`` are
    returned as int32.
    """
    tris = mesh.triangle_vertices
    nt, nv = mesh.triangle_count, mesh.vertex_count
    # arrays are (..., nt) so every term below is a contiguous vector
    # operation; np.take gathers rows far faster than fancy indexing
    edges = np.ascontiguousarray(mesh.triangle_edges.T)            # edge m is opposite vertex m
    own = np.arange(nt)
    adjacent = np.take(mesh.edge_triangles, edges, axis=0)          # (m, nt, 2)
    is_plus = adjacent[..., 0] == own
    neighbor = np.where(is_plus, adjacent[..., 1], adjacent[..., 0])
    interior = neighbor >= 0
    neighbor = np.where(interior, neighbor, own)
    # local index in the neighbor of the shared edge, i.e. of its far vertex;
    # both elements are counterclockwise, so the neighbor's next vertex after
    # that is vertex m + 2 of K and the one after it vertex m + 1.  A boundary
    # edge keeps its own slot m, so its zero-weight terms read K's gradients.
    slot = np.take(mesh.edge_local, edges, axis=0)                  # (m, nt, 2)
    far = np.where(interior, np.where(is_plus, slot[..., 1], slot[..., 0]),
                   np.arange(3)[:, None])

    sign = np.where(is_plus, 1.0, -1.0)
    scale = np.where(interior, 0.5, 1.0) * mesh.edge_lengths[edges] / mesh.areas * sign
    across = np.where(interior, scale, 0.0)
    normals = np.take(mesh.edge_normals.T, edges, axis=1)          # (c, m, nt)
    basis = mesh.basis_components                                   # (r, vertex, K)
    corner_basis = basis.reshape(2, 3 * nt)                         # (r, vertex * nt + K)

    def term(m, weights, gradient, out):
        """(2, 2, nt) terms (weights * gradient[r]) * normal[c] of edge m."""
        return np.multiply((weights[m] * gradient)[:, None], normals[:, m], out=out)

    def their_gradient(m, local):
        """Gradient on the neighbor across edge m of its vertex far + local."""
        return np.take(corner_basis, (far[m] + local) % 3 * nt + neighbor[m], axis=1)

    # vertex a is the far + 1 of the neighbor across edge a + 1 and the
    # far + 2 of the one across edge a + 2
    blocks = np.empty((6, 2, 2, nt))
    spare = np.empty((2, 2, nt))
    for a in range(3):
        gradient = basis[:, a]
        term(0, scale, gradient, blocks[a])
        blocks[a] += term(1, scale, gradient, spare)
        blocks[a] += term(2, scale, gradient, spare)
        blocks[a] += term((a + 1) % 3, across, their_gradient((a + 1) % 3, 1), spare)
        blocks[a] += term((a + 2) % 3, across, their_gradient((a + 2) % 3, 2), spare)
    for m in range(3):
        term(m, across, their_gradient(m, 0), blocks[3 + m])
    blocks = np.ascontiguousarray(blocks.reshape(6, 4, nt).transpose(1, 2, 0))  # (q, nt, s)
    stencil = np.concatenate([tris, np.where(interior, np.take(tris, 3 * neighbor + far),
                                             tris.T).T], axis=1).astype(np.int32)

    # step-matrix pattern: vertex i reaches the stencil of every element at
    # i.  Only 4 of the 6 queries (vertex a of K, stencil[K, s]) per corner
    # are sorted: the own vertices and the far vertex across edge a.  The
    # far vertex across edge m != a is an own vertex of the neighbor, which
    # also has vertex a, and a boundary edge's slot repeats own vertex m, so
    # those 6 nt queries are gathered below.  Each query carries its index
    # 18 K + 6 a + s in ``slots``; tocsc's counting sort groups the corners
    # 3 K + a by vertex, sort_indices orders each vertex's queries by
    # column, and a running count of the distinct columns gives every query
    # its position.
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
    return HessianOperator(blocks, stencil, indptr, columns[new[:-1]].astype(np.int32), slots)
