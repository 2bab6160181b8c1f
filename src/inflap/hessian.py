"""Recovered elementwise Hessians of P1 functions.

The second derivative of a piecewise-affine function only exists
distributionally.  Testing it against the indicator of an element and
integrating by parts twice leaves pure edge terms (the volume term dies
because the test function is constant): the recovered Hessian of Lakkis
& Pryer (SIAM J. Sci. Comput. 33, 2011) is

    H_K = (1/|K|) * sum over the edges e of K of |e| * gbar_e (x) n_{K,e}

with gbar_e the average of the gradients on the one or two elements
meeting e, n_{K,e} the unit normal pointing out of K and (x) the outer
product.  The edge opposite vertex m has |e_m| n_{K,m} = -2 |K| grad
phi_m^K, and the hat gradients of K sum to zero, so a boundary edge drops
out and H_K is the sum over the interior edges m of K of
(grad u_K - grad u_{K'_m}) (x) grad phi_m^K, K'_m the neighbor across m.

``hessian_operator`` builds this map once per mesh as two read-only
arrays: one dense 4x6 block per element over the element's stencil (its
own vertices and the vertex across each interior edge), and the stencil.
``hessian_components`` contracts the blocks with the vertex values at the
stencil; it is the only evaluation of the formula, and ``fe_hessian``
returns it as the (nt, 2, 2) tensor.  The solver's ``Discretisation``
keeps both arrays and fills the blocks into the pattern of its own linear
systems.
"""

from __future__ import annotations

import numpy as np

from .fespace import FEFunction
from .mesh import Triangulation


def hessian_components(blocks: np.ndarray, stencil: np.ndarray,
                       coefficients: np.ndarray) -> np.ndarray:
    """Recovered Hessian of the P1 function with vertex values ``coefficients``.

    Returns the (4, nt) components, row-major within each element: the
    ``blocks`` of ``hessian_operator`` contracted with the values at its
    ``stencil``.
    """
    return np.einsum("qts,ts->qt", blocks, np.take(coefficients, stencil))


def fe_hessian(v: FEFunction) -> np.ndarray:
    """Elementwise 2x2 Hessian recovered from edge jumps of the gradient.

    Returns an (nt, 2, 2) array, row-major within each element, from the
    blocks of ``v.mesh``.  In exact arithmetic the result vanishes for
    globally affine inputs because every gradient jump across an edge is
    zero.
    """
    return hessian_components(*hessian_operator(v.mesh), v.coefficients).T.reshape(-1, 2, 2)


def hessian_operator(mesh: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """The read-only per-element Hessian ``blocks`` over each element's ``stencil``.

    ``blocks[2*r + c, K, s]`` (float64, (4, nt, 6)) is the weight of stencil
    vertex ``stencil[K, s]`` (int32, (nt, 6)) in component (r, c) of the
    recovered Hessian on K.  Stencil slots 0-2 are the vertices of K, slot
    3 + m the vertex across the edge opposite vertex m; on a boundary edge
    that slot repeats vertex m with zero weights.

    Reads only the triangles, ``corner_across`` and the hat gradients.  With
    hat_m the gradient of K's hat function m on an interior edge m and zero
    on a boundary edge, own vertex a weighs grad phi_a (x) (hat_0 + hat_1 +
    hat_2), and the gradients on the neighbor across edge m are subtracted
    (x) hat_m.  On the dyadic meshes ``build_initial_mesh`` and ``refine``
    make, the blocks equal by value those of the edge formula the tests
    keep as oracle (only signs of zeros differ); on a perturbed mesh they
    agree to a few ulps.
    """
    tris = mesh.triangle_vertices
    nt = mesh.triangle_count
    # arrays are (..., nt) so every term below is a contiguous vector
    # operation; np.take gathers rows far faster than fancy indexing
    corner = np.ascontiguousarray(mesh.corner_across.T)            # (m, nt)
    interior = corner >= 0
    neighbor = np.where(interior, corner // 3, np.arange(nt))
    # local index in the neighbor of the shared edge, i.e. of its far vertex;
    # both elements are counterclockwise, so the neighbor's next vertex after
    # that is vertex m + 2 of K and the one after it vertex m + 1.  A boundary
    # edge keeps its own slot m, so its zero-weight terms read K's gradients.
    far = np.where(interior, corner % 3, np.arange(3)[:, None])
    basis = mesh.basis_components                                   # (r, vertex, K)
    corner_basis = basis.reshape(2, 3 * nt)                         # (r, vertex * nt + K)
    hats = np.where(interior, basis, 0.0)                           # (c, m, K)

    def their_gradient(m, local):
        """Gradient on the neighbor across edge m of its vertex far + local."""
        return np.take(corner_basis, (far[m] + local) % 3 * nt + neighbor[m], axis=1)

    blocks = np.empty((6, 2, 2, nt))
    np.multiply(basis.transpose(1, 0, 2)[:, :, None], hats.sum(axis=1), out=blocks[:3])
    for m in range(3):
        hat = hats[:, m]
        blocks[(m + 2) % 3] -= their_gradient(m, 1)[:, None] * hat
        blocks[(m + 1) % 3] -= their_gradient(m, 2)[:, None] * hat
        np.multiply(their_gradient(m, 0)[:, None], -hat, out=blocks[3 + m])
    blocks = np.ascontiguousarray(blocks.reshape(6, 4, nt).transpose(1, 2, 0))  # (q, nt, s)
    stencil = np.concatenate([tris, np.where(interior, np.take(tris, 3 * neighbor + far),
                                             tris.T).T], axis=1).astype(np.int32)
    for arr in (blocks, stencil):
        arr.setflags(write=False)
    return blocks, stencil
