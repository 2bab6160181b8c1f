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
solver fills the blocks into the pattern of its own linear systems.
"""

from __future__ import annotations

import numpy as np

from .fespace import FEFunction
from .mesh import Triangulation


class HessianOperator:
    """The recovered-Hessian map of one mesh, element by element.

    ``blocks[2*r + c, K, s]`` is the weight of stencil vertex
    ``stencil[K, s]`` (int32, (nt, 6)) in component (r, c) of the recovered
    Hessian on K.  Stencil slots 0-2 are the vertices of K, slot 3 + m the
    vertex across the edge opposite vertex m; on a boundary edge that slot
    repeats vertex m with zero weights.
    """

    def __init__(self, blocks: np.ndarray, stencil: np.ndarray):
        self.blocks = blocks
        self.stencil = stencil
        for arr in (blocks, stencil):
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
    """Build the per-element Hessian blocks over each element's stencil.

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
    the mesh's ``corner_across``.  ``edge_normals`` point out of the
    smaller of the two triangle ids, so K receives them with sign +1 when
    its neighbor's id is larger.  ``stencil`` is returned as int32.
    """
    tris = mesh.triangle_vertices
    nt = mesh.triangle_count
    # arrays are (..., nt) so every term below is a contiguous vector
    # operation; np.take gathers rows far faster than fancy indexing
    edges = np.ascontiguousarray(mesh.triangle_edges.T)            # edge m is opposite vertex m
    own = np.arange(nt)
    corner = np.ascontiguousarray(mesh.corner_across.T)            # (m, nt)
    interior = corner >= 0
    neighbor = np.where(interior, corner // 3, own)
    # local index in the neighbor of the shared edge, i.e. of its far vertex;
    # both elements are counterclockwise, so the neighbor's next vertex after
    # that is vertex m + 2 of K and the one after it vertex m + 1.  A boundary
    # edge keeps its own slot m, so its zero-weight terms read K's gradients.
    far = np.where(interior, corner % 3, np.arange(3)[:, None])

    sign = np.where(neighbor >= own, 1.0, -1.0)
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
    return HessianOperator(blocks, stencil)
