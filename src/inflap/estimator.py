"""Residual a posteriori indicators at the discrete solution.

The indicators measure the residual of the solution u a fixed-point
solve returns, evaluated at the self-consistent pair u_prev = u_next = u,
not the (tolerance-sized) last linearisation step.  There the two
relaxation terms of the step cancel, and with P[u] = (p (x) p) / |p|^2,
p = grad u, the element residual

    R = f - P[u] : D^2 u

uses broken (elementwise) second derivatives, which vanish identically
for piecewise-affine functions, so R reduces to f.  The information sits
in the interior-edge residual

    J = -avg(P[u]) : tensor_jump(grad u)

where the tensor jump of a vector field xi is xi+ (x) n+ + xi- (x) n-.
Both residuals are elementwise respectively edgewise constant here, so
their L2 norms are exact.  P is the tensor of the solver's tau-free step
matrix, so the estimator does not depend on the relaxation parameter.

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

from .fespace import (FEFunction, evaluate_field, gradients, physical_points,
                      triangle_rule)
from .mesh import Triangulation

# Floor on |p|^2 in the diffusion tensor; it only guards the exact 0/0 case
# of an element where the frozen gradient vanishes.
GRADIENT_FLOOR = 1e-10


@dataclass
class IndicatorField:
    """Per-element marking indicators and their aggregates.

    ``mesh`` is the mesh the indicators belong to and ``eta`` holds the
    per-element marking indicators eta_K.
    """

    mesh: Triangulation
    eta: np.ndarray
    global_estimate: float
    eta_total: float


def diffusion_components(grad: np.ndarray):
    """Entries p00, p01, p11 of P = (p (x) p) / |p|^2 per element (p10 == p01).

    ``grad`` is the (2, nt) component-major gradient p of the frozen
    iterate; p_rc = (p_r p_c) / max(|p|^2, GRADIENT_FLOOR).
    """
    g0, g1 = grad
    denom = np.maximum(g0 * g0 + g1 * g1, GRADIENT_FLOOR)
    return g0 * g0 / denom, g0 * g1 / denom, g1 * g1 / denom


def interior_residual_norms(mesh: Triangulation, f) -> np.ndarray:
    """L2 norm over each element of the interior residual (order-4 quadrature).

    Broken second derivatives of P1 iterates vanish, so the residual is
    f itself.
    """
    rule = triangle_rule(4)
    vals = evaluate_field(f, *physical_points(mesh, rule))
    return np.sqrt(mesh.areas * ((vals ** 2) @ rule.weights))


def _interior_edges(mesh: Triangulation):
    """Each interior edge once, from its lower-numbered triangle.

    Returns ``(plus, slot, minus)``: the edge is local edge ``slot`` of
    triangle ``plus`` and lies across from ``minus > plus``, listed in
    ``np.nonzero`` order of the corners (K, m) of ``mesh.corner_across``.
    """
    across = mesh.corner_across
    plus, slot = np.nonzero(across // 3 > np.arange(mesh.triangle_count)[:, None])
    return plus, slot, across[plus, slot] // 3


def jump_residuals(u: FEFunction) -> np.ndarray:
    """Edgewise constant jump residual J times |e| on every interior edge of ``u.mesh``.

    Ordered like ``_interior_edges``.  The edge normal out of the plus side,
    scaled by the edge length, is |e| n = -2 |K| grad phi_m^K, so no edge
    geometry is needed.  P is elementwise constant and therefore double
    valued on edges; its edge value is the arithmetic average of the two
    neighbors.  The contraction avg(P) : tensor_jump sums its four
    products as (00 + 10) + (01 + 11), the order of the einsum the tests
    keep as reference; bulk marking has exact ties, so another order could
    change the adaptive mesh sequence.
    """
    mesh = u.mesh
    plus, slot, minus = _interior_edges(mesh)
    scale = -2.0 * mesh.areas[plus]
    n0 = scale * mesh.basis_components[0, slot, plus]
    n1 = scale * mesh.basis_components[1, slot, plus]

    grad = gradients(u).T
    p00, p01, p11 = diffusion_components(grad)

    d0 = grad[0, plus] - grad[0, minus]
    d1 = grad[1, plus] - grad[1, minus]
    j00, j01, j10, j11 = d0 * n0, d0 * n1, d1 * n0, d1 * n1
    a00 = 0.5 * (p00[plus] + p00[minus])
    a01 = 0.5 * (p01[plus] + p01[minus])
    a11 = 0.5 * (p11[plus] + p11[minus])
    return -((a00 * j00 + a01 * j10) + (a01 * j01 + a11 * j11))


def estimate(u: FEFunction, f) -> IndicatorField:
    """Assemble the indicator field of ``u`` on its mesh.

    The weighted element residuals h_K ||R||_K and edge residuals
    h_e^(1/2) ||J||_e = |J| h_e give ``eta`` and ``global_estimate``.
    """
    mesh = u.mesh
    interior = mesh.diameters * interior_residual_norms(mesh, f)
    # ||J||_L2(e) = |J| sqrt(h_e), so the weighted edge part is |J| h_e
    jumps = np.abs(jump_residuals(u))

    # interior**2 first, then the edge halves on the plus and minus sides
    plus, _, minus = _interior_edges(mesh)
    eta_sq = np.bincount(np.concatenate([np.arange(mesh.triangle_count), plus, minus]),
                         weights=np.concatenate([interior ** 2, np.tile(0.5 * jumps ** 2, 2)]))

    return IndicatorField(mesh=mesh,
                          eta=np.sqrt(eta_sq),
                          global_estimate=float(interior.sum() + jumps.sum()),
                          eta_total=float(np.sqrt(eta_sq.sum())))
