"""Recovered elementwise Hessians of P1 functions.

The second derivative of a piecewise-affine function only exists
distributionally.  Testing it against the indicator of an element and
integrating by parts twice leaves pure edge terms (the volume term dies
because the test function is constant), which gives the closed form

    H_K = (1/|K|) * sum over the edges e of K of |e| * gbar_e (x) n_{K,e}

where gbar_e is the average of the gradients on the one or two elements
meeting e, n_{K,e} is the unit normal pointing out of K, and (x) is the
outer product.

Both evaluations of this formula share one per-edge kernel.  Component
(r, c) of an edge's term is ``(|e| * gbar_r) * n_c`` with n the edge's
stored normal, which points out of its first neighbor; a boundary edge
averages its owner's gradient with itself, which is exact.  Each element
then sums the terms of its three edges as ``(t1 + t2) + t3``, negating
those of which it is the second neighbor, and divides by |K|.  The
summation order is a contract: bulk marking has exact ties, so a
last-bit change gives another adaptive mesh sequence.  The order is the
one of the ``bincount`` assembly the tests keep as oracle (first-neighbor
edges, then second-neighbor edges, then boundary edges, each by ascending
edge id), and the mesh stores each element's edges in that order
(``Triangulation.signed_element_edges``), so no step rebuilds it.

``fe_hessian`` applies the kernel to all four components and returns the
(nt, 2, 2) tensor; ``hessian_trace`` applies it to the diagonal only and
is what each linearised step puts into its right-hand side.
``hessian_operator`` builds the same map once per mesh as one dense 4x6
block per element over the element's stencil (its own vertices and the
vertex across each interior edge), which is what the solver substitutes
into its linear systems.  The operator also carries the pattern of the
step matrix those blocks fill and each block entry's position in it
(whose column is the stencil vertex), so a step only computes new values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fespace import FEFunction, gradients
from .mesh import Triangulation


def _weighted_means(mesh: Triangulation, grad: np.ndarray) -> np.ndarray:
    """|e| * gbar_r on every edge, shape (2, ne), from a (2, nt) gradient."""
    sources = mesh.edge_sources
    means = np.take(grad, sources[0], axis=1)
    means += np.take(grad, sources[1], axis=1)
    means *= 0.5
    means *= mesh.edge_lengths
    return means


def _element_sums(mesh: Triangulation, terms: np.ndarray) -> np.ndarray:
    """Per-edge terms (k, ne) summed over each element's edges, over |K|; (k, nt)."""
    signed = np.concatenate([terms, -terms], axis=1)
    t = np.take(signed, mesh.signed_element_edges, axis=1)         # (k, 3, nt)
    sums = t[:, 0] + t[:, 1]
    sums += t[:, 2]
    sums /= mesh.areas
    return sums


def hessian_trace(mesh: Triangulation, grad: np.ndarray) -> np.ndarray:
    """Trace of the recovered Hessian per element, shape (nt,).

    ``grad`` is the (2, nt) component-major gradient of a P1 function on
    ``mesh`` (``gradients(u).T``).  Bit for bit the trace of ``fe_hessian``.
    """
    terms = _weighted_means(mesh, grad)
    terms *= mesh.edge_normals.T
    diagonal = _element_sums(mesh, terms)
    return diagonal[0] + diagonal[1]


def fe_hessian(v: FEFunction) -> np.ndarray:
    """Elementwise 2x2 Hessian recovered from edge jumps of the gradient.

    Returns an (nt, 2, 2) array, row-major within each element.  The result
    vanishes identically for globally affine inputs because the
    length-weighted outward normals of each element sum to zero.
    """
    mesh = v.mesh
    means = _weighted_means(mesh, gradients(v).T)
    terms = means[:, None] * mesh.edge_normals.T                  # (r, c, ne)
    return _element_sums(mesh, terms.reshape(4, -1)).T.reshape(-1, 2, 2)


class HessianOperator:
    """The recovered-Hessian map of one mesh, element by element.

    ``blocks[2*r + c, K, s]`` is the weight of stencil vertex s of element
    K in component (r, c) of the recovered Hessian on K.  Stencil slots 0-2
    are the vertices of K, slot 3 + m the vertex across the edge opposite
    vertex m; on a boundary edge that slot repeats vertex m with zero
    weights.

    ``indptr``/``indices`` are the int32 CSR pattern (sorted, no
    duplicates) of the vertex-by-vertex step matrix, whose row i gathers
    every element with vertex i; int32 is scipy's own index type for these
    sizes, so a ``csr_matrix`` built on them shares them instead of
    casting copies.  ``slots[K, a, s]`` is the position in that pattern of
    the entry (vertex a of K, stencil vertex s of K), so the stencil is
    ``indices[slots[:, 0, :]]``.
    """

    def __init__(self, blocks: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                 slots: np.ndarray):
        self.blocks = blocks
        self.indptr = indptr
        self.indices = indices
        self.slots = slots
        for arr in (blocks, indptr, indices, slots):
            arr.setflags(write=False)


def hessian_operator(mesh: Triangulation) -> HessianOperator:
    """Build the per-element Hessian blocks and the step-matrix pattern.

    Each edge term of ``fe_hessian`` is split by the element whose
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
    repeat.  ``indptr``, ``indices`` and ``slots`` are returned as int32.
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
                                             tris.T).T], axis=1)

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
    return HessianOperator(blocks, indptr, columns[new[:-1]].astype(np.int32), slots)
