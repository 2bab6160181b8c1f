"""Residual a posteriori indicators for the linearised iteration.

For a pair of consecutive iterates (u_prev, u_next) the element residual

    R = f + laplace(u_prev) / tau - A[u_prev] : D^2 u_next

uses broken (elementwise) second derivatives, which vanish identically
for piecewise-affine iterates, so R reduces to f on the implemented
spaces.  The information sits in the interior-edge residual

    J = jump(grad u_prev . n) / tau - avg(A[u_prev]) : tensor_jump(grad u_next)

where the tensor jump of a vector field xi is xi+ (x) n+ + xi- (x) n-.
Both residuals are elementwise respectively edgewise constant here, so
their L2 norms are exact.

Two aggregates are reported: ``global_estimate`` is the plain sum
sum_K h_K ||R||_K + sum_e h_e^(1/2) ||J||_e with constant one, and
``eta_total`` is the root of the summed squared local indicators

    eta_K^2 = h_K^2 ||R||_K^2 + 1/2 sum_{e in dK, interior} h_e ||J||_e^2,

the standard localisation used for bulk marking (each interior edge
splits evenly between its two elements, so summing eta_K^2 reproduces
the full squared residual exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .fespace import (FEFunction, evaluate_field, gradients, physical_points,
                      tensor_trace, triangle_rule)
from .hessian import fe_hessian
from .mesh import Triangulation
from .solver import diffusion_tensor


@dataclass
class IndicatorField:
    """Per-entity residual indicators and their aggregates.

    ``eta`` holds the per-element marking indicators, ``interior`` the
    weighted element residuals h_K ||R||_K, ``jumps`` the weighted edge
    residuals h_e^(1/2) ||J||_e ordered like ``mesh.interior_edge_ids``.
    """

    eta: np.ndarray
    interior: np.ndarray
    jumps: np.ndarray
    global_estimate: float
    eta_total: float


def interior_residual_norms(mesh: Triangulation, u_prev: FEFunction, f, tau: float,
                            hessian_trace: bool = False) -> np.ndarray:
    """L2 norm over each element of the interior residual (order-4 quadrature).

    Broken second derivatives of P1 iterates vanish, so the residual is
    f itself; with ``hessian_trace`` the elementwise constant
    trace(H[u_prev]) / tau is added instead of the (zero) broken
    Laplacian, which is the variant matching the scheme's right-hand
    side.
    """
    if u_prev.space.mesh is not mesh:
        raise InvalidArgumentError("u_prev must live on the given mesh")
    rule = triangle_rule(4)
    pts = physical_points(mesh, rule)
    vals = evaluate_field(f, pts[..., 0], pts[..., 1]).copy()
    if hessian_trace:
        vals += (tensor_trace(fe_hessian(u_prev)) / tau)[:, None]
    return np.sqrt(mesh.areas * ((vals ** 2) @ rule.weights))


def jump_residuals(mesh: Triangulation, u_prev: FEFunction, u_next: FEFunction,
                   tau: float) -> np.ndarray:
    """Edgewise constant jump residual on every interior edge.

    Ordered like ``mesh.interior_edge_ids``.  The diffusion tensor is
    elementwise constant and therefore double valued on edges; its edge
    value is the arithmetic average of the two neighbors.
    """
    if u_prev.space.mesh is not mesh or u_next.space.mesh is not mesh:
        raise InvalidArgumentError("iterates must live on the given mesh")
    interior = mesh.interior_edge_ids
    plus = mesh.edge_triangles[interior, 0]
    minus = mesh.edge_triangles[interior, 1]
    normals = mesh.edge_normals[interior]

    grad_prev = gradients(u_prev)
    grad_next = gradients(u_next)
    tensors = diffusion_tensor(u_prev, tau)

    gradient_jump = ((grad_prev[plus] - grad_prev[minus]) * normals).sum(axis=1)
    tensor_jump = (grad_next[plus] - grad_next[minus])[:, :, None] * normals[:, None, :]
    averaged = 0.5 * (tensors[plus] + tensors[minus])
    return gradient_jump / tau - np.einsum("erc,erc->e", averaged, tensor_jump)


def estimate(mesh: Triangulation, u_prev: FEFunction, u_next: FEFunction,
             f, tau: float, hessian_trace: bool = False) -> IndicatorField:
    """Assemble the indicator field for a pair of iterates."""
    residual_norms = interior_residual_norms(mesh, u_prev, f, tau, hessian_trace)
    jump_values = jump_residuals(mesh, u_prev, u_next, tau)

    interior = mesh.diameters * residual_norms
    edge_lengths = mesh.edge_lengths[mesh.interior_edge_ids]
    # ||J||_L2(e) = |J| sqrt(h_e), so the weighted edge part is |J| h_e
    jumps = np.abs(jump_values) * edge_lengths

    eta_sq = interior ** 2
    half = 0.5 * jumps ** 2
    np.add.at(eta_sq, mesh.edge_triangles[mesh.interior_edge_ids, 0], half)
    np.add.at(eta_sq, mesh.edge_triangles[mesh.interior_edge_ids, 1], half)

    return IndicatorField(eta=np.sqrt(eta_sq),
                          interior=interior,
                          jumps=jumps,
                          global_estimate=float(interior.sum() + jumps.sum()),
                          eta_total=float(np.sqrt(eta_sq.sum())))
