"""Recovered elementwise Hessians of P1 functions.

The second derivative of a piecewise-affine function only exists
distributionally.  Testing it against the indicator of an element and
integrating by parts twice leaves pure edge terms (the volume term dies
because the test function is constant), which gives the closed form

    H_K = (1/|K|) * sum over the edges e of K of |e| * gbar_e (x) n_{K,e}

where gbar_e is the average of the gradients on the one or two elements
meeting e, n_{K,e} is the unit normal pointing out of K, and (x) is the
outer product.  ``fe_hessian`` evaluates this directly; ``hessian_operator``
assembles the same map as a sparse matrix acting on vertex coefficients,
which is what the solver substitutes into its linear systems.  The two
code paths are deliberately independent so they can cross-check each
other.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fespace import FEFunction, SpaceP0Tensor, gradients
from .mesh import Triangulation


def fe_hessian(v: FEFunction) -> FEFunction:
    """Elementwise 2x2 Hessian recovered from edge jumps of the gradient.

    Returns a tensor-valued function over ``SpaceP0Tensor``.  The result
    vanishes identically for globally affine inputs because the
    length-weighted outward normals of each element sum to zero.
    """
    mesh = v.space.mesh
    grad = gradients(v)
    nt = mesh.triangle_count
    out = np.zeros((nt, 2, 2))

    interior = mesh.interior_edge_ids
    plus = mesh.edge_triangles[interior, 0]
    minus = mesh.edge_triangles[interior, 1]
    normals = mesh.edge_normals[interior]
    weighted = mesh.edge_lengths[interior, None, None] * \
        (0.5 * (grad[plus] + grad[minus]))[:, :, None] * normals[:, None, :]
    np.add.at(out, plus, weighted)
    np.add.at(out, minus, -weighted)

    boundary = mesh.boundary_edge_ids
    owner = mesh.edge_triangles[boundary, 0]
    normals = mesh.edge_normals[boundary]
    weighted = mesh.edge_lengths[boundary, None, None] * \
        grad[owner][:, :, None] * normals[:, None, :]
    np.add.at(out, owner, weighted)

    out /= mesh.areas[:, None, None]
    return FEFunction(SpaceP0Tensor(mesh), out.reshape(-1))


class HessianOperator:
    """Sparse linear map from P1 vertex coefficients to tensor coefficients.

    Row 4*K + 2*r + c of the matrix produces component (r, c) of the
    recovered Hessian on element K; it touches only the vertices of K and
    of its at most three edge neighbors.
    """

    def __init__(self, mesh: Triangulation, matrix: sp.csr_matrix):
        self.mesh = mesh
        self.matrix = matrix

    def apply(self, v) -> FEFunction:
        coeffs = v.coefficients if isinstance(v, FEFunction) else np.asarray(v, dtype=float)
        return FEFunction(SpaceP0Tensor(self.mesh), self.matrix @ coeffs)


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


def hessian_operator(mesh: Triangulation) -> HessianOperator:
    """Assemble the recovered-Hessian map once so solves can reuse it.

    Each edge term of ``fe_hessian`` is split by the element whose
    gradient it carries: an interior edge passes half of each neighbor's
    gradient to both neighbors, a boundary edge all of its owner's
    gradient to the owner.  The rounding of the duplicate sums in
    ``tocsr`` depends on the order the entries are listed in, which the
    (block, i, r, c, edge) layout and the block order below fix.
    """
    interior = mesh.interior_edge_ids
    boundary = mesh.boundary_edge_ids
    plus = mesh.edge_triangles[interior, 0]
    minus = mesh.edge_triangles[interior, 1]
    owner = mesh.edge_triangles[boundary, 0][None]
    split = 48 * len(interior)
    # scipy keeps int32 indices at these sizes; int64 ones would be copied down
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
    matrix = sp.coo_matrix((vals, (rows, cols)),
                           shape=(4 * mesh.triangle_count, mesh.vertex_count)).tocsr()
    return HessianOperator(mesh, matrix)
