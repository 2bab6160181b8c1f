"""Recovered elementwise Hessians of P1 functions.

The second derivative of a piecewise-affine function only exists
distributionally.  Testing it against the indicator of an element and
integrating by parts twice leaves pure edge terms (the volume term dies
because the test function is constant), which gives the closed form

    H_K = (1/|K|) * sum over the edges e of K of |e| * gbar_e (x) n_{K,e}

where gbar_e is the average of the gradients on the one or two elements
meeting e, n_{K,e} is the unit normal pointing out of K, and (x) is the
outer product.  ``fe_hessian`` evaluates this directly from a function's
gradients as an (nt, 2, 2) array, whose trace the solver puts into the
right-hand side; ``hessian_operator`` builds the same map once per mesh as
one dense 4x6 block per element over the element's stencil (its own
vertices and the vertex across each interior edge), which is what the
solver substitutes into its linear systems.  The operator also carries
the sparse pattern of the step matrix those blocks fill, so a step only
computes new values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fespace import FEFunction, gradients
from .mesh import Triangulation


def fe_hessian(v: FEFunction) -> np.ndarray:
    """Elementwise 2x2 Hessian recovered from edge jumps of the gradient.

    Returns an (nt, 2, 2) array, row-major within each element.  The result
    vanishes identically for globally affine inputs because the
    length-weighted outward normals of each element sum to zero.
    """
    mesh = v.mesh
    grad = gradients(v)

    interior = mesh.interior_edge_ids
    plus = mesh.edge_triangles[interior, 0]
    minus = mesh.edge_triangles[interior, 1]
    normals = mesh.edge_normals[interior]
    weighted = mesh.edge_lengths[interior, None, None] * \
        (0.5 * (grad[plus] + grad[minus]))[:, :, None] * normals[:, None, :]

    boundary = mesh.boundary_edge_ids
    owner = mesh.edge_triangles[boundary, 0]
    normals = mesh.edge_normals[boundary]
    weighted_boundary = mesh.edge_lengths[boundary, None, None] * \
        grad[owner][:, :, None] * normals[:, None, :]

    # each element sums its plus, minus and boundary terms in that order
    receivers = np.concatenate([plus, minus, owner])
    terms = np.concatenate([weighted, -weighted, weighted_boundary])
    out = np.bincount((4 * receivers[:, None] + np.arange(4)).reshape(-1),
                      weights=terms.reshape(-1), minlength=4 * mesh.triangle_count)
    return out.reshape(-1, 2, 2) / mesh.areas[:, None, None]


class HessianOperator:
    """The recovered-Hessian map of one mesh, element by element.

    ``blocks[2*r + c, K, s]`` is the weight of vertex ``stencil[K, s]`` in
    component (r, c) of the recovered Hessian on element K.  Slots 0-2 of
    the stencil are the vertices of K, slot 3 + m the vertex across the
    edge opposite vertex m; on a boundary edge that slot repeats vertex m
    with zero weights.

    ``indptr``/``indices`` are the CSR pattern (sorted, no duplicates) of
    the vertex-by-vertex step matrix, whose row i gathers every element
    with vertex i.  ``slots[K, a, s]`` is the position in that pattern of
    the entry (vertex a of K, ``stencil[K, s]``).
    """

    def __init__(self, stencil: np.ndarray, blocks: np.ndarray,
                 indptr: np.ndarray, indices: np.ndarray, slots: np.ndarray):
        self.stencil = stencil
        self.blocks = blocks
        self.indptr = indptr
        self.indices = indices
        self.slots = slots
        for arr in (stencil, blocks, indptr, indices, slots):
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
    """
    tris = mesh.triangle_vertices
    nt, nv = mesh.triangle_count, mesh.vertex_count
    # arrays are (..., nt) so every term below is a contiguous vector operation
    edges = np.ascontiguousarray(mesh.triangle_edges.T)            # edge m is opposite vertex m
    own = np.arange(nt)
    adjacent = mesh.edge_triangles[edges]                           # (m, nt, 2)
    is_plus = adjacent[..., 0] == own
    neighbor = np.where(is_plus, adjacent[..., 1], adjacent[..., 0])
    interior = neighbor >= 0
    neighbor = np.where(interior, neighbor, own)
    # local index in the neighbor of the shared edge, i.e. of its far vertex;
    # both elements are counterclockwise, so the neighbor's next vertex after
    # that is vertex m + 2 of K and the one after it vertex m + 1
    far = np.argmax(mesh.triangle_edges[neighbor] == edges[..., None], axis=2)

    sign = np.where(is_plus, 1.0, -1.0)
    scale = np.where(interior, 0.5, 1.0) * mesh.edge_lengths[edges] / mesh.areas * sign
    across = np.where(interior, scale, 0.0)
    normals = np.ascontiguousarray(mesh.edge_normals[edges].transpose(0, 2, 1))[:, None]
    grad = np.ascontiguousarray(mesh.basis_gradients.reshape(-1, 2).T)  # (r, 3 K + vertex)

    def term(m, weights, gradient):
        """(2, 2, nt) terms (weights * gradient[r]) * normal[c] of edge m."""
        return (weights[m] * gradient)[:, None] * normals[m]

    def their_gradient(m, local):
        """Gradient on the neighbor across edge m of its vertex far + local."""
        return grad[:, 3 * neighbor[m] + (far[m] + local) % 3]

    # vertex a is the far + 1 of the neighbor across edge a + 1 and the
    # far + 2 of the one across edge a + 2
    blocks = np.empty((6, 2, 2, nt))
    for a in range(3):
        gradient = np.ascontiguousarray(grad[:, a::3])
        blocks[a] = term(0, scale, gradient)
        blocks[a] += term(1, scale, gradient)
        blocks[a] += term(2, scale, gradient)
        blocks[a] += term((a + 1) % 3, across, their_gradient((a + 1) % 3, 1))
        blocks[a] += term((a + 2) % 3, across, their_gradient((a + 2) % 3, 2))
    for m in range(3):
        blocks[3 + m] = term(m, across, their_gradient(m, 0))
    blocks = np.ascontiguousarray(blocks.reshape(6, 4, nt).transpose(1, 2, 0))  # (q, nt, s)
    stencil = np.concatenate([tris, np.where(interior, tris[neighbor, far], tris.T).T], axis=1)

    # step-matrix pattern: vertex i reaches the stencil of every element at i
    incidence = sp.csr_array((np.ones(3 * nt), tris.reshape(-1), 3 * np.arange(nt + 1)),
                             shape=(nt, nv))
    reach = sp.csr_array((np.ones(6 * nt), stencil.reshape(-1), 6 * np.arange(nt + 1)),
                         shape=(nt, nv))
    pattern = (incidence.T @ reach).tocsr()
    # entry positions as (exact) float values, so indexing returns them
    position = sp.csr_array((np.arange(pattern.nnz, dtype=float), pattern.indices,
                             pattern.indptr), shape=pattern.shape)
    slots = position[np.repeat(tris, 6, axis=1).reshape(-1),
                     np.tile(stencil, 3).reshape(-1)]
    return HessianOperator(stencil, blocks, pattern.indptr, pattern.indices,
                           slots.astype(np.int32).reshape(nt, 3, 6))
